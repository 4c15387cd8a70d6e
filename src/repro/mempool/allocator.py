"""Allocator interface plus the two implementations Table 2 compares.

Both allocators enforce the device capacity through the
:class:`~repro.device.gpu.SimulatedGPU` ledger and charge their per-call
latency to the compute stream of the shared timeline (cudaMalloc
synchronizes the device, so its cost is serialized with kernels — that
is why it hurts so much).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from repro.device.gpu import OutOfMemoryError, SimulatedGPU
from repro.device.timeline import Timeline
from repro.mempool.heap_pool import HeapPool, PoolExhaustedError
from repro.mempool.stats import AllocatorStats

_tuple_new = tuple.__new__


class Allocation(NamedTuple):
    """Handle for one live allocation (a NamedTuple: one is minted per
    alloc on the hot path, where frozen-dataclass construction costs;
    :meth:`Allocator.alloc` mints it with ``tuple.__new__``, which skips
    the generated Python ``__new__`` frame)."""

    handle: int
    nbytes: int
    tag: str = ""


class Allocator:
    """Common bookkeeping for byte-usage and peak tracking.

    The two implementations differ only in who places the bytes:
    ``reserve(nbytes) -> handle`` and ``release(handle)`` are the
    backing store's own bound methods, called straight from
    :meth:`alloc`/:meth:`free` — there are two of these calls per
    tensor per step, and a forwarding method between the bookkeeping
    and the store is a Python frame on each.  For the same reason
    ``used_bytes`` is a plain attribute, and the per-call latency is
    added to the timeline's compute clock and busy time in place
    (:class:`~repro.device.timeline.Timeline`), not through a call.
    """

    def __init__(self, gpu: SimulatedGPU, timeline: Optional[Timeline],
                 reserve: Callable[[int], int],
                 release: Callable[[int], None]):
        self.gpu = gpu
        self.timeline = timeline
        self.stats = AllocatorStats()
        self._reserve = reserve
        self._release = release
        #: bytes held by live allocations
        self.used_bytes = 0
        self._peak = 0
        # the latencies are device-model constants; resolve the
        # subclass properties once instead of twice per alloc/free
        self._alloc_latency = self.alloc_latency
        self._free_latency = self.free_latency

    # subclasses supply the backing store and the latency properties
    @property
    def alloc_latency(self) -> float:
        raise NotImplementedError

    @property
    def free_latency(self) -> float:
        raise NotImplementedError

    # -- public API -----------------------------------------------------------
    def alloc(self, nbytes: int, tag: str = "") -> Allocation:
        try:
            handle = self._reserve(nbytes)
        except PoolExhaustedError as exc:
            # Only a PoolAllocator's store raises this.  Surface it
            # as device OOM so capacity probes treat both allocators
            # uniformly.
            raise OutOfMemoryError(
                nbytes, self.free_bytes, self.slab_bytes) from exc
        used = self.used_bytes + nbytes
        self.used_bytes = used
        if used > self._peak:
            self._peak = used
        stats = self.stats
        latency = self._alloc_latency
        stats.allocs += 1
        stats.alloc_bytes += nbytes
        stats.overhead_seconds += latency
        timeline = self.timeline
        if timeline is not None:
            timeline.clock["compute"] += latency
            timeline.busy["compute"] += latency
        return _tuple_new(Allocation, (handle, nbytes, tag))

    def free(self, allocation: Allocation) -> None:
        self._release(allocation.handle)
        self.used_bytes -= allocation.nbytes
        latency = self._free_latency
        stats = self.stats
        stats.frees += 1
        stats.overhead_seconds += latency
        timeline = self.timeline
        if timeline is not None:
            timeline.clock["compute"] += latency
            timeline.busy["compute"] += latency

    def forget(self, allocation: Allocation) -> None:
        """:meth:`free` for an allocation the backing store never
        placed: a residency table's recorded answer (``core/plan.py::
        ResidencyTable``).  The same accounting, and nothing released."""
        self.used_bytes -= allocation.nbytes
        latency = self._free_latency
        stats = self.stats
        stats.frees += 1
        stats.overhead_seconds += latency
        timeline = self.timeline
        if timeline is not None:
            timeline.clock["compute"] += latency
            timeline.busy["compute"] += latency

    # -- usage accounting --------------------------------------------------------
    @property
    def peak_bytes(self) -> int:
        return self._peak

    @property
    def free_bytes(self) -> int:
        raise NotImplementedError

    def reset_peak(self) -> None:
        self._peak = self.used_bytes

    def signature(self) -> tuple:
        """The state the allocator is in: from one signature, the same
        calls succeed and fail alike, and leave it at one signature."""
        return self.used_bytes, self.gpu.free_bytes


class CudaAllocator(Allocator):
    """Native cudaMalloc/cudaFree baseline: one device segment per call."""

    def __init__(self, gpu: SimulatedGPU, timeline: Optional[Timeline] = None):
        super().__init__(gpu, timeline, gpu.reserve, gpu.release)

    @property
    def alloc_latency(self) -> float:
        return self.gpu.model.cuda_malloc_latency

    @property
    def free_latency(self) -> float:
        return self.gpu.model.cuda_free_latency

    @property
    def free_bytes(self) -> int:
        return self.gpu.free_bytes


class PoolAllocator(Allocator):
    """Heap-pool allocator: one slab reserved up front, first-fit inside.

    ``slab_bytes`` defaults to the whole device; the dynamic-workspace
    experiments use smaller pools (3 GB / 5 GB in Fig. 12).
    """

    def __init__(
        self,
        gpu: SimulatedGPU,
        timeline: Optional[Timeline] = None,
        slab_bytes: Optional[int] = None,
    ):
        self.slab_bytes = slab_bytes if slab_bytes is not None else gpu.free_bytes
        self._slab_seg = gpu.reserve(self.slab_bytes, "heap-pool-slab")
        self.pool = HeapPool(self.slab_bytes)
        super().__init__(gpu, timeline, self.pool.alloc, self.pool.free)

    def signature(self) -> tuple:
        return self.used_bytes, self.pool.signature()

    @property
    def alloc_latency(self) -> float:
        return self.gpu.model.pool_alloc_latency

    @property
    def free_latency(self) -> float:
        return self.gpu.model.pool_free_latency

    @property
    def free_bytes(self) -> int:
        return self.pool.free_bytes

    @property
    def largest_free_bytes(self) -> int:
        return self.pool.largest_free_bytes

    def close(self) -> None:
        """Return the slab to the device (test hygiene)."""
        self.gpu.release(self._slab_seg)
