"""Integration tests for the executor: the heart of the reproduction.

That training under any combination of memory optimizations is
numerically identical to the unoptimized baseline is
``tests/test_equivalence_matrix.py``; here are the peaks, the recompute
counts, the offload traffic and the capacity edges each rung shows.
"""

import functools

import pytest

from repro import RuntimeConfig, SGD, Session
from repro.core.config import RecomputeStrategy, WorkspacePolicy
from repro.device.gpu import OutOfMemoryError
from repro.zoo import alexnet, lenet, resnet_from_units

MB = 1024 * 1024

def run_losses(net_fn, config, iters=3, lr=0.05):
    with Session(net_fn(), config) as sess:
        return [r.loss for r in sess.run(iters, optimizer=SGD(lr=lr))]


class TestNumericalEquivalence:
    """That optimizations change no value is test_equivalence_matrix's."""

    def test_loss_decreases_with_training(self):
        losses = run_losses(lambda: lenet(batch=8, image=12),
                            RuntimeConfig.superneurons(), iters=10, lr=0.1)
        assert losses[-1] < losses[0]


#: alexnet b2 configurations the peak and recompute tests run
ALEXNET_RUNGS = {
    "baseline": lambda: RuntimeConfig.baseline(
        workspace_policy=WorkspacePolicy.NONE),
    "liveness": lambda: RuntimeConfig.liveness_only(
        workspace_policy=WorkspacePolicy.NONE),
    "offload": lambda: RuntimeConfig.liveness_offload(
        workspace_policy=WorkspacePolicy.NONE),
    "recompute": lambda: RuntimeConfig.superneurons(
        use_tensor_cache=False, workspace_policy=WorkspacePolicy.NONE),
    "speed": lambda: RuntimeConfig.liveness_only(
        recompute=RecomputeStrategy.SPEED_CENTRIC),
    "memory": lambda: RuntimeConfig.liveness_only(
        recompute=RecomputeStrategy.MEMORY_CENTRIC),
    "cost": lambda: RuntimeConfig.liveness_only(
        recompute=RecomputeStrategy.COST_AWARE),
}


@functools.lru_cache(maxsize=None)
def alexnet_iteration(rung):
    """Iteration 0 of alexnet b2 under one of :data:`ALEXNET_RUNGS`, as
    ``(activation peak bytes, extra forwards)`` (run once)."""
    with Session(alexnet(batch=2, image=67, num_classes=10),
                 ALEXNET_RUNGS[rung]()).executor as ex:
        r = ex.run_iteration(0)
    return r.activation_peak_bytes, r.extra_forwards


class TestPeakMemoryOrdering:
    """The paper's §3 peak chain on a real execution."""

    @staticmethod
    def _peak(rung):
        return alexnet_iteration(rung)[0]

    def test_liveness_below_baseline(self):
        assert self._peak("liveness") < self._peak("baseline")

    def test_offload_below_liveness(self):
        assert self._peak("offload") < self._peak("liveness")

    def test_recompute_below_offload(self):
        assert self._peak("recompute") < self._peak("offload")

    def test_baseline_matches_formula(self):
        """Baseline peak == Σ l_f + Σ l_b exactly (no ws, no opts)."""
        net = lenet(batch=2, image=12)
        ex = Session(net, RuntimeConfig.baseline(
            workspace_policy=WorkspacePolicy.NONE)).executor
        r = ex.run_iteration(0)
        ex.close()
        assert r.activation_peak_bytes == net.baseline_peak_bytes()


class TestRecomputeCounts:
    def test_alexnet_speed_centric_matches_paper(self):
        """Paper Table 1: AlexNet speed-centric does 14 extra forwards."""
        assert alexnet_iteration("speed")[1] == 14

    def test_alexnet_segment_structure(self):
        """Paper's segment sizes for AlexNet: 3,3,1,1,2,2,2."""
        from repro.core.recompute import plan_segments
        from repro.graph import ExecutionRoute
        net = alexnet(batch=2, image=67, num_classes=10)
        route = ExecutionRoute(net)
        plan = plan_segments(route, RecomputeStrategy.SPEED_CENTRIC)
        assert [s.size for s in plan.segments] == [3, 3, 1, 1, 2, 2, 2]
        assert plan.total_extra_forwards() == 14

    def test_memory_centric_closed_form(self):
        from repro.core.recompute import plan_segments
        from repro.graph import ExecutionRoute
        net = alexnet(batch=2, image=67, num_classes=10)
        route = ExecutionRoute(net)
        plan = plan_segments(route, RecomputeStrategy.MEMORY_CENTRIC)
        assert plan.total_extra_forwards() == 6 + 6 + 1 + 1 + 3 + 3 + 3  # 23

    def test_memory_centric_does_more_work_than_speed(self):
        assert alexnet_iteration("memory")[1] > alexnet_iteration("speed")[1]

    def test_cost_aware_extra_close_to_speed_centric(self):
        """Table 1's headline: cost-aware ≈ speed-centric extras."""
        extra = {rung: alexnet_iteration(rung)[1]
                 for rung in ("speed", "memory", "cost")}
        assert extra["speed"] <= extra["cost"] <= extra["memory"]


class TestOffloadMechanics:
    def test_eager_offload_generates_traffic(self):
        net = alexnet(batch=2, image=67, num_classes=10)
        ex = Session(net, RuntimeConfig.liveness_offload()).executor
        r = ex.run_iteration(0)
        ex.close()
        assert r.d2h_bytes > 0
        assert r.h2d_bytes > 0

    def test_cache_avoids_traffic_when_memory_ample(self):
        """Table 3: with the tensor cache and a roomy GPU, traffic is zero."""
        net = alexnet(batch=2, image=67, num_classes=10)
        ex = Session(net, RuntimeConfig.liveness_offload(
            use_tensor_cache=True)).executor
        r = ex.run_iteration(0)
        ex.close()
        assert r.d2h_bytes == 0
        assert r.h2d_bytes == 0

    def test_cache_evicts_under_pressure(self):
        mk = lambda: resnet_from_units((1, 1, 1, 1), batch=4, image=64,
                                       num_classes=10)
        # probe the roomy-GPU activation peak, then rerun with capacity
        # squeezed to 60% of it: the cache must start evicting
        probe = Session(mk(), RuntimeConfig.liveness_offload(
            use_tensor_cache=True,
            workspace_policy=WorkspacePolicy.NONE)).executor
        roomy = probe.run_iteration(0)
        probe.close()
        assert roomy.cache_evictions == 0
        cap = probe.param_bytes + int(roomy.activation_peak_bytes * 0.6)
        ex = Session(mk(), RuntimeConfig.liveness_offload(
            use_tensor_cache=True, gpu_capacity=cap,
            workspace_policy=WorkspacePolicy.NONE)).executor
        r = ex.run_iteration(0)
        ex.close()
        assert r.cache_evictions > 0
        assert r.d2h_bytes > 0

    def test_offload_preserves_values(self):
        """Concrete mode: a tensor that round-trips through host RAM comes
        back bit-identical (the equivalence matrix also covers this; here
        on a capped device, though lenet b4 never fills the cap)."""
        net = lenet(batch=4, image=12)
        cap = net.baseline_peak_bytes() // 2 + net.total_param_bytes() + MB
        ref = run_losses(lambda: lenet(batch=4, image=12),
                         RuntimeConfig.baseline(), iters=2)
        got = run_losses(
            lambda: lenet(batch=4, image=12),
            RuntimeConfig.liveness_offload(
                use_tensor_cache=True, gpu_capacity=cap,
                workspace_policy=WorkspacePolicy.NONE),
            iters=2)
        assert got == ref


class TestCapacityProbing:
    def test_oom_raised_when_too_small(self):
        net = lenet(batch=4, image=12)
        tiny = net.total_param_bytes() + 64 * 1024
        ex = Session(net, RuntimeConfig.baseline(gpu_capacity=tiny,
                     workspace_policy=WorkspacePolicy.NONE)).executor
        with pytest.raises(OutOfMemoryError):
            ex.run_iteration(0)

    def test_superneurons_fits_where_baseline_cannot(self):
        """The headline claim at micro scale: a capacity that OOMs the
        baseline trains fine under the full runtime."""
        mk = lambda: resnet_from_units((1, 1, 1, 1), batch=4, image=64,
                                       num_classes=10)
        peaks = {}
        for name, cfg in [("base", RuntimeConfig.baseline(
                              workspace_policy=WorkspacePolicy.NONE)),
                          ("sn", RuntimeConfig.superneurons(
                              workspace_policy=WorkspacePolicy.NONE))]:
            ex = Session(mk(), cfg).executor
            peaks[name] = ex.run_iteration(0).peak_bytes
            ex.close()
        assert peaks["sn"] < peaks["base"]
        cap = (peaks["sn"] + peaks["base"]) // 2
        ex = Session(mk(), RuntimeConfig.baseline(
            gpu_capacity=cap, workspace_policy=WorkspacePolicy.NONE)).executor
        with pytest.raises(OutOfMemoryError):
            ex.run_iteration(0)
        ex2 = Session(mk(), RuntimeConfig.superneurons(
            gpu_capacity=cap, workspace_policy=WorkspacePolicy.NONE)).executor
        r = ex2.run_iteration(0)
        ex2.close()
        assert r.loss is not None


class TestSimulatedMode:
    def test_simulated_mode_is_fast_for_big_nets(self):
        net = resnet_from_units((2, 2, 2, 2), batch=4, image=64,
                                num_classes=10)
        ex = Session(net, RuntimeConfig.superneurons(concrete=False)).executor
        r = ex.run_iteration(0)
        ex.close()
        assert r.loss is None           # no payloads -> no loss
        assert r.sim_time > 0

    def test_multiple_iterations_stable(self):
        net = lenet(batch=2, image=12)
        ex = Session(net, RuntimeConfig.superneurons(concrete=False)).executor
        peaks = [ex.run_iteration(i).activation_peak_bytes for i in range(3)]
        ex.close()
        assert peaks[0] == peaks[1] == peaks[2]


class TestStepTraces:
    def test_trace_covers_all_steps(self):
        net = lenet(batch=2, image=12)
        ex = Session(net, RuntimeConfig.liveness_only()).executor
        r = ex.run_iteration(0)
        ex.close()
        assert len(r.traces) == 2 * len(net)

    def test_forward_memory_monotone_under_liveness_lenet(self):
        """For a linear net with backward deps, forward memory climbs."""
        net = lenet(batch=2, image=12)
        ex = Session(net, RuntimeConfig.liveness_only(
            workspace_policy=WorkspacePolicy.NONE)).executor
        r = ex.run_iteration(0)
        ex.close()
        n = len(net)
        settled = [t.activation_settled for t in r.traces[:n]]
        assert settled == sorted(settled)

    def test_memory_returns_to_zero(self):
        net = lenet(batch=2, image=12)
        ex = Session(net, RuntimeConfig.liveness_only()).executor
        r = ex.run_iteration(0)
        ex.close()
        assert r.traces[-1].activation_settled == 0

    def test_workspace_choices_recorded(self):
        net = lenet(batch=2, image=12)
        ex = Session(net, RuntimeConfig.superneurons()).executor
        r = ex.run_iteration(0)
        ex.close()
        conv_execs = [w for w in r.workspace_choices]
        assert len(conv_execs) == 4  # 2 convs x (fw + bw)
