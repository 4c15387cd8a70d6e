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

    @pytest.mark.parametrize("kind", [CudaAllocator, PoolAllocator])
    def test_forget_accounts_a_free_and_releases_nothing(self, kind):
        """What a residency table does with a free: the allocator's
        books move exactly as ``free`` moves them, the store not at all."""
        books = []
        for give_back in ("free", "forget"):
            gpu, tl = self._mk()
            alloc = kind(gpu, tl)
            a = alloc.alloc(MB)
            placed = alloc.free_bytes
            getattr(alloc, give_back)(a)
            books.append((alloc.used_bytes, alloc.stats,
                          tl.now(Stream.COMPUTE), tl.busy_time(Stream.COMPUTE)))
            assert alloc.free_bytes == (placed if give_back == "forget"
                                        else placed + MB)
        assert books[0] == books[1]

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
