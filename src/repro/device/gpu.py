"""The simulated GPU: a capacity-limited DRAM byte ledger.

This is deliberately *not* an allocator — placement strategies live in
:mod:`repro.mempool`.  The GPU only enforces the physical invariant
(resident bytes never exceed capacity) and records the high-water mark,
which is exactly the quantity every memory figure in the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.device.model import DeviceModel, K40_MODEL


class OutOfMemoryError(MemoryError):
    """Raised when an allocation would exceed device DRAM.

    Equivalent to cudaErrorMemoryAllocation; the going-deeper/wider
    experiments (Tables 4/5) probe exactly where each framework first
    raises this.  ``step`` is the route step in flight when an
    executor's iteration raised it (None outside an iteration, at
    parameter allocation say).
    """

    def __init__(self, requested: int, free: int, capacity: int):
        self.requested = requested
        self.free = free
        self.capacity = capacity
        self.step = None
        super().__init__(
            f"device OOM: requested {requested} bytes, "
            f"free {free} of {capacity}"
        )


@dataclass
class _Segment:
    """One resident byte range (bookkeeping only, no real memory)."""

    seg_id: int
    nbytes: int
    tag: str


class SimulatedGPU:
    """Byte ledger + peak tracker for one device.

    ``reserve``/``release`` are the raw physical operations used both by
    the heap pool (one giant reserve at startup) and by the
    cudaMalloc-style baseline (one reserve per tensor).
    """

    def __init__(self, model: DeviceModel = K40_MODEL):
        self.model = model
        self.capacity = model.dram_bytes
        self._used = 0
        self._peak = 0
        self._next_id = 0
        self._segments: Dict[int, _Segment] = {}

    # -- raw reserve / release ---------------------------------------------
    def reserve(self, nbytes: int, tag: str = "") -> int:
        if nbytes < 0:
            raise ValueError(f"negative reservation: {nbytes}")
        if self._used + nbytes > self.capacity:
            raise OutOfMemoryError(nbytes, self.free_bytes, self.capacity)
        seg = _Segment(self._next_id, nbytes, tag)
        self._next_id += 1
        self._segments[seg.seg_id] = seg
        self._used += nbytes
        self._peak = max(self._peak, self._used)
        return seg.seg_id

    def release(self, seg_id: int) -> None:
        seg = self._segments.pop(seg_id, None)
        if seg is None:
            raise KeyError(f"unknown segment id {seg_id}")
        self._used -= seg.nbytes
        assert self._used >= 0, "ledger underflow"

    # -- introspection --------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.capacity - self._used

    @property
    def peak_bytes(self) -> int:
        return self._peak

    def reset_peak(self) -> None:
        self._peak = self._used
