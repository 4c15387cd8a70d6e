"""Unit + property tests for the heap pool and allocators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device import DeviceModel, SimulatedGPU, Timeline, OutOfMemoryError
from repro.device.timeline import Stream
from repro.mempool import CudaAllocator, HeapPool, PoolAllocator, PoolExhaustedError
from repro.mempool.heap_pool import BLOCK

KB = 1024
MB = 1024 * 1024


class TestHeapPool:
    def test_alloc_free_roundtrip(self):
        pool = HeapPool(64 * KB)
        h = pool.alloc(10 * KB)
        assert pool.used_bytes == 10 * KB
        pool.free(h)
        assert pool.used_bytes == 0
        assert pool.free_bytes == 64 * KB

    def test_block_rounding(self):
        pool = HeapPool(64 * KB)
        h = pool.alloc(1)  # rounds up to one block
        assert pool.size_of(h) == BLOCK
        pool.free(h)

    def test_zero_byte_alloc_takes_one_block(self):
        pool = HeapPool(4 * KB)
        h = pool.alloc(0)
        assert pool.size_of(h) == BLOCK

    def test_first_fit_addresses_ascend(self):
        pool = HeapPool(64 * KB)
        h1 = pool.alloc(8 * KB)
        h2 = pool.alloc(8 * KB)
        assert pool.addr_of(h2) == pool.addr_of(h1) + 8 * KB

    def test_free_reuses_hole(self):
        pool = HeapPool(64 * KB)
        h1 = pool.alloc(8 * KB)
        _h2 = pool.alloc(8 * KB)
        a1 = pool.addr_of(h1)
        pool.free(h1)
        h3 = pool.alloc(4 * KB)  # fits in the hole -> first fit reuses it
        assert pool.addr_of(h3) == a1

    def test_exhaustion_raises(self):
        pool = HeapPool(16 * KB)
        pool.alloc(16 * KB)
        with pytest.raises(PoolExhaustedError):
            pool.alloc(1 * KB)

    def test_double_free_raises(self):
        pool = HeapPool(16 * KB)
        h = pool.alloc(KB)
        pool.free(h)
        with pytest.raises(KeyError):
            pool.free(h)

    def test_coalescing_restores_full_block(self):
        pool = HeapPool(64 * KB)
        handles = [pool.alloc(8 * KB) for _ in range(8)]
        for h in handles:
            pool.free(h)
        pool.check_invariants()
        # after freeing everything, one max-size alloc must succeed
        big = pool.alloc(64 * KB)
        pool.free(big)

    def test_fragmentation_metric(self):
        pool = HeapPool(64 * KB)
        hs = [pool.alloc(8 * KB) for _ in range(8)]
        for h in hs[::2]:
            pool.free(h)
        assert pool.fragmentation > 0.0
        pool.check_invariants()

    @given(st.lists(st.tuples(st.booleans(), st.integers(1, 64)), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_random_workload_invariants(self, ops):
        """Property: arbitrary interleavings never corrupt the pool."""
        pool = HeapPool(256 * KB)
        live = []
        for is_alloc, size_kb in ops:
            if is_alloc or not live:
                try:
                    live.append(pool.alloc(size_kb * KB))
                except PoolExhaustedError:
                    pass
            else:
                pool.free(live.pop(0))
            pool.check_invariants()
        used = sum(pool.size_of(h) for h in live)
        assert pool.used_bytes == used


class TestAllocators:
    def _mk(self, capacity=64 * MB):
        gpu = SimulatedGPU(DeviceModel(dram_bytes=capacity))
        tl = Timeline()
        return gpu, tl

    def test_cuda_allocator_charges_latency(self):
        gpu, tl = self._mk()
        alloc = CudaAllocator(gpu, tl)
        a = alloc.alloc(MB)
        alloc.free(a)
        assert tl.now(Stream.COMPUTE) == pytest.approx(
            gpu.model.cuda_malloc_latency + gpu.model.cuda_free_latency
        )
        assert alloc.stats.calls == 2

    def test_pool_allocator_much_cheaper(self):
        gpu, tl = self._mk()
        alloc = PoolAllocator(gpu, tl, slab_bytes=32 * MB)
        a = alloc.alloc(MB)
        alloc.free(a)
        assert tl.now(Stream.COMPUTE) < gpu.model.cuda_malloc_latency

    def test_capacity_enforced_cuda(self):
        gpu, tl = self._mk(capacity=4 * MB)
        alloc = CudaAllocator(gpu, tl)
        with pytest.raises(OutOfMemoryError):
            alloc.alloc(8 * MB)

    def test_capacity_enforced_pool(self):
        gpu, tl = self._mk(capacity=4 * MB)
        alloc = PoolAllocator(gpu, tl)  # slab = all free DRAM
        with pytest.raises(OutOfMemoryError):
            alloc.alloc(8 * MB)

    def test_peak_tracking(self):
        gpu, tl = self._mk()
        alloc = PoolAllocator(gpu, tl, slab_bytes=32 * MB)
        a = alloc.alloc(4 * MB)
        b = alloc.alloc(4 * MB)
        alloc.free(a)
        alloc.free(b)
        assert alloc.peak_bytes == 8 * MB
        assert alloc.used_bytes == 0

    def test_pool_free_bytes_reflects_slab(self):
        gpu, tl = self._mk()
        alloc = PoolAllocator(gpu, tl, slab_bytes=16 * MB)
        assert alloc.free_bytes == 16 * MB
        alloc.alloc(MB)
        assert alloc.free_bytes == 15 * MB


class TestSimulatedGPU:
    def test_reserve_release_ledger(self):
        gpu = SimulatedGPU(DeviceModel(dram_bytes=10 * MB))
        s = gpu.reserve(4 * MB)
        assert gpu.used_bytes == 4 * MB
        gpu.release(s)
        assert gpu.used_bytes == 0
        assert gpu.peak_bytes == 4 * MB

    def test_oom_reports_sizes(self):
        gpu = SimulatedGPU(DeviceModel(dram_bytes=MB))
        with pytest.raises(OutOfMemoryError) as ei:
            gpu.reserve(2 * MB)
        assert ei.value.requested == 2 * MB
        assert ei.value.capacity == MB

    def test_release_unknown_raises(self):
        gpu = SimulatedGPU()
        with pytest.raises(KeyError):
            gpu.release(123)


class _Pair:
    """One call stream into two pools: ``planned`` is told where epochs
    begin, ``plain`` never is — it is the live first-fit reference.
    Every call's outcome is compared on the spot."""

    def __init__(self, capacity):
        self.planned = HeapPool(capacity)
        self.plain = HeapPool(capacity)
        self.live = []           # handles, oldest first (ids agree)

    def alloc(self, nbytes):
        got = []
        for pool in (self.planned, self.plain):
            try:
                got.append(pool.alloc(nbytes))
            except PoolExhaustedError as exc:
                got.append((exc.requested_blocks, exc.free_blocks, str(exc)))
        assert got[0] == got[1]
        if isinstance(got[0], int):
            self.live.append(got[0])
        self.cheap_check()

    def free(self, index):
        if self.live:
            handle = self.live.pop(index % len(self.live))
            self.planned.free(handle)
            self.plain.free(handle)
            self.cheap_check()

    def cheap_check(self):
        """What can be asked without leaving the plan."""
        assert self.planned.free_bytes == self.plain.free_bytes
        assert self.planned.used_bytes == self.plain.used_bytes

    def audit(self):
        """The structural questions (these make ``planned`` rebuild)."""
        a, b = self.planned, self.plain
        assert [a.addr_of(h) for h in self.live] == \
            [b.addr_of(h) for h in self.live]
        assert [a.size_of(h) for h in self.live] == \
            [b.size_of(h) for h in self.live]
        assert a.fragmentation == b.fragmentation
        assert a.largest_free_bytes == b.largest_free_bytes
        assert a.allocation_count == b.allocation_count == len(self.live)
        assert not a.replaying
        a.check_invariants()
        b.check_invariants()
        self.cheap_check()

    def run(self, ops):
        for kind, arg in ops:
            if kind == "alloc":
                self.alloc(arg * KB)
            elif kind == "free":
                self.free(arg)
            else:
                self.audit()

    def epoch(self, ops, drain=True):
        """One iteration: the ops, then (unless cut short) release
        everything the epoch still holds so it ends where it began."""
        older = set(self.live)
        self.planned.begin_epoch()
        self.run(ops)
        if drain:
            for h in [h for h in reversed(self.live) if h not in older]:
                self.free(self.live.index(h))


_POOL_OP = st.one_of(
    st.tuples(st.just("alloc"), st.integers(0, 48)),   # KB; 0 -> one block
    st.tuples(st.just("free"), st.integers(0, 1 << 16)),
    st.tuples(st.just("audit"), st.just(0)),
)
_AT = st.integers(0, 1 << 16)
_VARIANT = st.one_of(
    st.tuples(st.just("repeat")),
    st.tuples(st.just("mutate"), _AT, st.integers(0, 48)),
    st.tuples(st.just("truncate"), _AT),
    st.tuples(st.just("extend"), st.lists(_POOL_OP, max_size=6)),
    st.tuples(st.just("free_older"), _AT),
    st.tuples(st.just("audit"), _AT),
    st.tuples(st.just("exhaust"), _AT),
)


def _vary(base, variant, capacity_kb):
    """The epoch's op list and whether it drains at the end."""
    kind, ops = variant[0], list(base)
    if kind == "repeat":
        return ops, True
    if kind == "extend":
        return ops + variant[1], True
    at = variant[1] % (len(ops) + 1)
    if kind == "truncate":
        return ops[:at], False     # leftovers become pre-epoch nodes
    if kind == "mutate":
        ops[at:at + 1] = [("alloc", variant[2])]
    else:
        ops.insert(at, {"free_older": ("free", 0),   # 0: the oldest node
                        "audit": ("audit", 0),
                        "exhaust": ("alloc", capacity_kb + 1)}[kind])
    return ops, True


class TestAddressPlan:
    """The epoch-scoped address plan answers from a record; a pool that
    never hears of epochs is the reference it must be indistinguishable
    from."""

    CAP_KB = 256

    @given(st.lists(_POOL_OP, max_size=30),
           st.lists(_VARIANT, min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_planned_pool_matches_never_planned(self, base, variants):
        pair = _Pair(self.CAP_KB * KB)
        pair.alloc(20 * KB)            # "parameters": older than any epoch
        pair.alloc(3 * KB)
        for variant in [("repeat",), ("repeat",)] + variants:
            ops, drain = _vary(base, variant, self.CAP_KB)
            pair.epoch(ops, drain)
        pair.planned.begin_epoch()
        pair.audit()

    def _steady(self, sizes=(8, 2, 16)):
        """A pair that has recorded one epoch and replayed another."""
        pair = _Pair(self.CAP_KB * KB)
        pair.alloc(4 * KB)
        ops = [("alloc", s) for s in sizes] + [("free", 1)]
        pair.epoch(ops)
        assert not pair.planned.replaying      # recording
        pair.epoch(ops)
        assert pair.planned.replaying          # answered to the end
        return pair, ops

    def test_repeated_epochs_stay_on_the_plan(self):
        pair, ops = self._steady()
        for _ in range(3):
            pair.epoch(ops)
            assert pair.planned.replaying
        pair.audit()

    def test_a_different_request_falls_off_and_is_relearned(self):
        pair, ops = self._steady()
        other = [("alloc", 8), ("alloc", 3)] + ops[2:]
        pair.epoch(other)
        assert not pair.planned.replaying
        pair.epoch(other)                      # the new record is the plan
        assert pair.planned.replaying
        pair.audit()

    def test_shorter_and_longer_epochs(self):
        pair, ops = self._steady()
        pair.epoch(ops + [("alloc", 1)])
        assert not pair.planned.replaying      # ran past the record's end
        pair.epoch(ops)                        # (which is now the plan)
        assert not pair.planned.replaying      # stopped short of its end
        pair.epoch(ops)
        assert pair.planned.replaying
        pair.planned.begin_epoch()
        pair.run(ops[:2])
        assert pair.planned.replaying          # a prefix is still on it
        pair.epoch(ops)       # the two left behind moved the free list
        assert not pair.planned.replaying
        pair.audit()

    def test_structural_questions_leave_the_plan_mid_epoch(self):
        pair, ops = self._steady()
        pair.planned.begin_epoch()
        pair.run(ops[:2])
        assert pair.planned.replaying
        pair.audit()                           # asserts it rebuilt
        pair.run(ops[2:])
        pair.audit()

    def test_exhaustion_is_recorded_and_replayed(self):
        pair, _ = self._steady()
        ops = [("alloc", 100), ("alloc", 200), ("alloc", 100)]
        pair.epoch(ops)
        pair.epoch(ops)
        assert pair.planned.replaying          # the failed probe too
        pair.audit()

    def test_freeing_an_older_node_is_never_planned(self):
        pair, ops = self._steady()
        held = [("alloc", 5)]
        pair.epoch(held, drain=False)          # leaves a node behind
        swap = [("free", 1), ("alloc", 5)]     # same free list at both ends
        for _ in range(3):
            pair.planned.begin_epoch()
            pair.run(swap)
            assert not pair.planned.replaying
        pair.audit()

    def test_unknown_free_raises_like_the_live_pool(self):
        pair, ops = self._steady()
        pair.planned.begin_epoch()
        for pool in (pair.planned, pair.plain):
            with pytest.raises(KeyError):
                pool.free(10_000)
        pair.run(ops)
        pair.audit()
