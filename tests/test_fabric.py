"""Tests for the multi-pool memory fabric and cache eviction policies."""

import pytest

from repro import RuntimeConfig, SGD, Session
from repro.core.cache import TensorCache
from repro.core.config import WorkspacePolicy
from repro.device.fabric import (
    ExternalPool,
    LOCAL_CPU,
    MemoryFabric,
    PEER_GPU,
    REMOTE_RDMA,
)
from repro.tensors.tensor import Tensor
from repro.zoo import lenet, resnet_from_units

MiB = 1024 * 1024


class TestFabricPlacement:
    def test_first_fit_priority(self):
        fast = ExternalPool("fast", 10 * MiB, 1.25, 1.25)
        slow = ExternalPool("slow", 100 * MiB, 0.75, 0.75)
        fab = MemoryFabric([fast, slow])
        p1 = fab.stash(1, 6 * MiB)
        assert p1.name == "fast"
        p2 = fab.stash(2, 6 * MiB)      # fast is full -> spill to slow
        assert p2.name == "slow"
        assert fab.used_bytes("fast") == 6 * MiB
        assert fab.used_bytes("slow") == 6 * MiB

    def test_restash_is_idempotent(self):
        fab = MemoryFabric([LOCAL_CPU])
        fab.stash(1, MiB)
        fab.stash(1, MiB)
        assert fab.contains(1)
        assert fab.used_bytes() == MiB

    def test_evict_frees_the_right_pool(self):
        a = ExternalPool("a", 2 * MiB)
        b = ExternalPool("b", 100 * MiB)
        fab = MemoryFabric([a, b])
        fab.stash(1, 2 * MiB)
        fab.stash(2, 2 * MiB)
        fab.evict(1)
        assert fab.used_bytes("a") == 0
        assert fab.used_bytes("b") == 2 * MiB
        assert not fab.contains(1)

    def test_all_full_raises(self):
        fab = MemoryFabric([ExternalPool("tiny", MiB)])
        with pytest.raises(MemoryError):
            fab.stash(1, 2 * MiB)

    def test_paper_bandwidth_archetypes(self):
        assert PEER_GPU.h2d_scale == 1.25       # 10 GB/s over 8 GB/s base
        assert REMOTE_RDMA.h2d_scale == 0.75    # 6 GB/s
        assert LOCAL_CPU.h2d_scale == 1.0

    def test_peak_tracking(self):
        fab = MemoryFabric([LOCAL_CPU])
        fab.stash(1, 4 * MiB)
        fab.evict(1)
        assert fab.used_bytes() == 0
        assert fab.peak_bytes() == 4 * MiB


class TestFabricInExecutor:
    def test_spill_across_pools(self):
        tiny = ExternalPool("tiny", 256 * 1024)
        net = resnet_from_units((1, 1, 1, 1), batch=2, image=32,
                                num_classes=4)
        cfg = RuntimeConfig.superneurons(
            use_tensor_cache=False,
            external_pools=(tiny, LOCAL_CPU),
            workspace_policy=WorkspacePolicy.NONE)
        ex = Session(net, cfg).executor
        ex.run_iteration(0)
        peak_tiny = ex.fabric.peak_bytes("tiny")
        peak_cpu = ex.fabric.peak_bytes("cpu_dram")
        ex.close()
        assert peak_tiny > 0
        assert peak_cpu > 0  # overflow spilled to the second pool

    def test_slower_pool_slower_iteration(self):
        net1 = lenet(batch=64, image=28)
        net2 = lenet(batch=64, image=28)
        mkcfg = lambda pools: RuntimeConfig.liveness_offload(
            concrete=False, external_pools=pools,
            workspace_policy=WorkspacePolicy.NONE)
        e1 = Session(net1, mkcfg((PEER_GPU,))).executor
        t_fast = e1.run_iteration(0).sim_time
        e1.close()
        e2 = Session(net2, mkcfg((REMOTE_RDMA,))).executor
        t_slow = e2.run_iteration(0).sim_time
        e2.close()
        assert t_slow >= t_fast


class TestCachePolicies:
    def _fill(self, policy):
        from repro.core.tensor_state import SessionTensorState
        c = TensorCache(policy=policy, state=SessionTensorState())
        ts = [Tensor((1, 1, 1, 256), name=f"t{i}") for i in range(4)]
        for t in ts:
            c.insert(t)
        return c, ts

    def test_fifo_ignores_touches(self):
        c, ts = self._fill("fifo")
        c.touch(ts[0])  # would rescue t0 under LRU
        victims = []
        c.evict_for(1, lambda t: victims.append(t.name) or t.nbytes)
        assert victims == ["t0"]

    def test_lru_respects_touches(self):
        c, ts = self._fill("lru")
        c.touch(ts[0])
        victims = []
        c.evict_for(1, lambda t: victims.append(t.name) or t.nbytes)
        assert victims == ["t1"]

    def test_lfu_prefers_cold(self):
        c, ts = self._fill("lfu")
        for _ in range(3):
            c.touch(ts[0])
        c.touch(ts[1])
        victims = []
        c.evict_for(1, lambda t: victims.append(t.name) or t.nbytes)
        assert victims == "t2 t3".split()[0:1] or victims == ["t2"]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            TensorCache(policy="random")

    def test_policy_does_not_change_training(self):
        def losses(policy):
            net = lenet(batch=8, image=16)
            cap = net.total_param_bytes() + 3 * MiB
            cfg = RuntimeConfig.liveness_offload(
                use_tensor_cache=True, cache_policy=policy,
                gpu_capacity=cap, workspace_policy=WorkspacePolicy.NONE)
            ex = Session(net, cfg).executor
            opt = SGD(lr=0.05)
            out = [ex.run_iteration(i, optimizer=opt).loss
                   for i in range(2)]
            ex.close()
            return out

        ref = losses("lru")
        assert losses("fifo") == ref
        assert losses("lfu") == ref
