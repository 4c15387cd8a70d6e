"""Edge-case tests for the executor: pressure paths, multi-iteration
state, forced reaps, and error reporting."""

import pytest

from repro import RuntimeConfig, SGD, Session
from repro.core.config import RecomputeStrategy, WorkspacePolicy
from repro.device.gpu import OutOfMemoryError
from repro.device.timeline import Stream
from repro.zoo import alexnet, lenet, resnet_from_units

MiB = 1024 * 1024


class TestMultiIteration:
    def test_ten_iterations_no_leak(self):
        """The ledger must return to params-only after every iteration."""
        net = lenet(batch=8, image=16)
        ex = Session(net, RuntimeConfig.superneurons()).executor
        for i in range(10):
            ex.run_iteration(i, optimizer=SGD(0.05))
            assert ex.allocator.used_bytes == ex.param_bytes
        ex.close()
        assert ex.allocator.used_bytes == 0

    def test_dma_stats_accumulate_across_iterations(self):
        net = alexnet(batch=2, image=67, num_classes=10)
        ex = Session(net, RuntimeConfig.liveness_offload(
            concrete=False)).executor
        r1 = ex.run_iteration(0)
        r2 = ex.run_iteration(1)
        assert r1.d2h_bytes == r2.d2h_bytes > 0  # per-iteration deltas
        assert ex.dma.stats.d2h_bytes == r1.d2h_bytes + r2.d2h_bytes
        ex.close()

    def test_timeline_monotone(self):
        net = lenet(batch=4, image=12)
        ex = Session(net, RuntimeConfig.superneurons(concrete=False)).executor
        t1 = ex.run_iteration(0).sim_time
        before = ex.timeline.elapsed
        ex.run_iteration(1)
        assert ex.timeline.elapsed > before
        assert t1 > 0
        ex.close()


class TestPressurePaths:
    def test_forced_reap_blocks_on_inflight_offload(self):
        """When the device is full but an offload is in flight, the
        allocator must block on the copy event (forced reap) and then
        succeed — the stall is charged to compute."""
        from repro.tensors.tensor import Tensor

        net = lenet(batch=8, image=16)
        cap = net.total_param_bytes() + 8 * MiB
        ex = Session(net, RuntimeConfig.liveness_offload(
            concrete=False, gpu_capacity=cap,
            workspace_policy=WorkspacePolicy.NONE)).executor
        # occupy most of the free space with a tensor, offload it async
        big = Tensor((1, 1, 1, 6 * MiB // 4), name="big")
        ex._gpu_alloc_tensor(big)
        ex._offload_async(big)
        assert ex._pending, "offload should be in flight"
        stall_before = ex._stall
        # this allocation cannot fit until the in-flight copy is reaped
        other = Tensor((1, 1, 1, 4 * MiB // 4), name="other")
        ex._gpu_alloc_tensor(other)          # must not raise
        assert not ex._pending               # forced reap drained it
        assert ex._stall >= stall_before     # compute waited on the copy
        assert ex.state.on_host(big)
        ex._discard(other)
        ex._discard(big)
        ex.close()

    def test_an_eviction_waits_out_a_prefetch_still_landing(self):
        """Pressure may take a line whose prefetch is still writing it.
        The line is clean, but its bytes are not free until the H2D copy
        lands: the eviction waits the copy out (a ``prefetch`` stall,
        so the stall kinds still sum to the stall), retires the arrival,
        and the line's next prefetch copies it again instead of
        answering "already pending" with no copy."""
        from repro.core.plan import WAIT, MoveLog
        from repro.tensors.tensor import Tensor

        net = lenet(batch=8, image=16)
        ex = Session(net, RuntimeConfig.superneurons(concrete=False)).executor
        log = ex._log = MoveLog(ex.timeline)   # record the moves below
        ex._rec = log.moves
        line = Tensor((1, 1, 1, 64 * MiB // 4), name="line")
        ex._gpu_alloc_tensor(line)
        ex._evict_to_host(line)              # dirty: copied out
        assert ex._prefetch_async(line)
        landing = ex.state.arrivals[line.tensor_id]
        assert ex.timeline.now(Stream.COMPUTE) < landing.time
        stall, clean = ex._stall, ex._clean_evictions
        assert ex._evict_to_host(line) == line.nbytes
        # (the free itself then ticks the allocator's overhead)
        assert ex.timeline.now(Stream.COMPUTE) >= landing.time
        assert ex._stall > stall
        assert ex._clean_evictions == clean + 1
        assert line.tensor_id not in ex.state.arrivals
        n = max(n for n, move in enumerate(log.moves) if move[0] == WAIT)
        assert log.moves[n][2][0] == "prefetch"
        assert log.facts[n] == pytest.approx(ex._stall - stall)
        h2d = ex.dma.stats.h2d_bytes
        assert ex._prefetch_async(line)
        assert ex.dma.stats.h2d_bytes == h2d + line.nbytes
        assert ex.state.arrivals[line.tensor_id] is not landing
        ex._discard(line)
        ex.close()

    def test_oom_error_carries_numbers(self):
        net = lenet(batch=64, image=28)
        tiny = net.total_param_bytes() + 256 * 1024
        ex = Session(net, RuntimeConfig.baseline(
            concrete=False, gpu_capacity=tiny,
            workspace_policy=WorkspacePolicy.NONE)).executor
        with pytest.raises(OutOfMemoryError) as ei:
            ex.run_iteration(0)
        assert ei.value.requested > 0
        assert ei.value.capacity == tiny

    def test_missing_tensor_without_recompute_is_loud(self):
        """A freed tensor needed by backward without recomputation armed
        must raise a scheduling-bug error, not compute garbage."""
        with Session(lenet(batch=2, image=12),
                     RuntimeConfig.liveness_only()) as warm:
            warm.run_iteration(0)  # proves the net itself is fine

        net = lenet(batch=2, image=12)
        ex = Session(net, RuntimeConfig.liveness_only()).executor
        # sabotage, before the executor links its plan: a hostile
        # planning tweak frees a tensor the backward needs
        pool1 = net.layer_by_name("pool1")
        ex.plan.free_after.setdefault(
            ex.route.fstep_of[pool1.layer_id], []
        ).append(pool1.output)
        with pytest.raises(RuntimeError, match="recomputation is off|freed"):
            ex.run_iteration(0)
        ex.close()


class TestWorkspaceFallback:
    def test_fragmented_pool_falls_back_to_zero_ws(self):
        """When the chosen workspace cannot be carved out of a
        fragmented pool, the conv must fall back, not crash."""
        net = alexnet(batch=16, image=227)
        cap = net.total_param_bytes() + 600 * MiB
        ex = Session(net, RuntimeConfig.superneurons(
            concrete=False, gpu_capacity=cap)).executor
        r = ex.run_iteration(0)
        ex.close()
        assert r.workspace_choices  # ran; some choice was made everywhere

    def test_max_speed_policy_falls_back_when_squeezed(self):
        """Even the greedy MAX_SPEED policy degrades gracefully: when
        the workspace cannot be allocated it falls back to the
        zero-workspace algorithm instead of failing the iteration."""
        net = alexnet(batch=64, image=227)
        cap = net.total_param_bytes() + net.baseline_peak_bytes() + 50 * MiB
        ex = Session(net, RuntimeConfig.baseline(
            concrete=False, gpu_capacity=cap,
            workspace_policy=WorkspacePolicy.MAX_SPEED)).executor
        r = ex.run_iteration(0)
        ex.close()
        assert any(not w.got_max_speed for w in r.workspace_choices)


class TestRecomputeEngineEdges:
    def test_speed_centric_materializes_once(self):
        net = alexnet(batch=2, image=67, num_classes=10)
        ex = Session(net, RuntimeConfig.liveness_only(
            recompute=RecomputeStrategy.SPEED_CENTRIC)).executor
        r0 = ex.run_iteration(0)
        r1 = ex.run_iteration(1)
        ex.close()
        assert r0.extra_forwards == r1.extra_forwards == 14

    def test_memory_centric_peak_stays_low_in_segments(self):
        mk = lambda: alexnet(batch=8, image=131, num_classes=10)
        peaks = {}
        for strat in (RecomputeStrategy.SPEED_CENTRIC,
                      RecomputeStrategy.MEMORY_CENTRIC):
            ex = Session(mk(), RuntimeConfig.superneurons(
                use_tensor_cache=False, recompute=strat, concrete=False,
                workspace_policy=WorkspacePolicy.NONE)).executor
            peaks[strat] = ex.run_iteration(0).activation_peak_bytes
            ex.close()
        assert peaks[RecomputeStrategy.MEMORY_CENTRIC] <= \
            peaks[RecomputeStrategy.SPEED_CENTRIC]

    def test_recompute_engine_counts_reset_per_run(self):
        net = lenet(batch=2, image=12)
        ex = Session(net, RuntimeConfig.superneurons()).executor
        a = ex.run_iteration(0).extra_forwards
        b = ex.run_iteration(1).extra_forwards
        ex.close()
        assert a == b


class TestCloseBehaviour:
    def test_close_releases_everything(self):
        net = lenet(batch=4, image=12)
        ex = Session(net, RuntimeConfig.superneurons()).executor
        ex.run_iteration(0)
        ex.close()
        assert ex.gpu.used_bytes == 0

    @pytest.mark.parametrize("use_pool", [True, False])
    def test_close_twice_is_harmless(self, use_pool):
        """``with session:`` plus an explicit ``close()`` used to release
        the slab twice (KeyError: unknown segment id 0)."""
        cfg = RuntimeConfig.superneurons(use_pool_allocator=use_pool)
        with Session(lenet(batch=4, image=12), cfg).executor as ex:
            ex.run_iteration(0)
            ex.close()
        assert ex.gpu.used_bytes == 0
        with Session(lenet(batch=4, image=12), cfg) as sess:
            sess.run_iteration(0)
            sess.close()
        sess.close()
        assert sess.executor.gpu.used_bytes == 0

    def test_run_after_close_says_closed(self):
        """Used to report 'iteration leaked -N bytes beyond parameters'."""
        ex = Session(lenet(batch=4, image=12),
                     RuntimeConfig.superneurons()).executor
        ex.run_iteration(0)
        ex.close()
        with pytest.raises(RuntimeError, match="executor is closed"):
            ex.run_iteration(1)
        sess = Session(lenet(batch=4, image=12))
        sess.run_iteration(0)
        sess.close()
        with pytest.raises(RuntimeError, match="executor is closed"):
            sess.run_iteration(1)

    def test_two_executors_share_nothing(self):
        n1, n2 = lenet(batch=4, image=12), lenet(batch=4, image=12)
        e1 = Session(n1, RuntimeConfig.superneurons()).executor
        e2 = Session(n2, RuntimeConfig.baseline()).executor
        l1 = e1.run_iteration(0, optimizer=SGD(0.05)).loss
        l2 = e2.run_iteration(0, optimizer=SGD(0.05)).loss
        e1.close(), e2.close()
        assert l1 == l2  # same seeds, independent state


class TestResultSerialization:
    def test_to_dict_is_json_round_trippable(self):
        import json

        net = lenet(batch=4, image=12)
        ex = Session(net, RuntimeConfig.superneurons()).executor
        r = ex.run_iteration(0, optimizer=SGD(0.05))
        ex.close()
        d = r.to_dict()
        blob = json.dumps(d)
        back = json.loads(blob)
        assert back["loss"] == r.loss
        assert len(back["traces"]) == 2 * len(net)
        conv_traces = [t for t in back["traces"] if t["workspace"]]
        assert conv_traces and all("algo" in t["workspace"]
                                   for t in conv_traces)
