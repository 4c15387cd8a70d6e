"""Tests for liveness analysis: in/out sets, last-use, peak formulas."""

import pytest

from repro import Engine
from repro.check.cost_model import predict_compiled_mode
from repro.core import LivenessAnalysis, RuntimeConfig
from repro.core.config import RecomputeStrategy
from repro.graph import ExecutionRoute
from repro.layers.base import LayerType
from repro.zoo import alexnet, lenet, resnet_from_units
from tests.test_graph import fan_net, join_net


def _route(net):
    return ExecutionRoute(net)


class TestInOutSets:
    def test_out_subset_of_in(self):
        route = _route(lenet(batch=1, image=12))
        la = LivenessAnalysis(route)
        for s in la.in_out_sets():
            assert s["out"] <= s["in"]

    def test_final_out_empty(self):
        """Paper Fig. 5: after the last backward step nothing is live."""
        route = _route(lenet(batch=1, image=12))
        la = LivenessAnalysis(route)
        assert la.in_out_sets()[-1]["out"] == set()

    def test_fan_net_final_out_empty(self):
        route = _route(fan_net())
        la = LivenessAnalysis(route)
        assert la.in_out_sets()[-1]["out"] == set()

    def test_live_set_grows_through_forward(self):
        route = _route(lenet(batch=1, image=12))
        la = LivenessAnalysis(route)
        sets = la.in_out_sets()
        n = route.num_layers
        # forward keeps accumulating data tensors (no frees until bwd
        # for a linear net where everything has a backward use)
        sizes = [len(s["out"]) for s in sets[: n]]
        assert sizes[-1] >= sizes[0]

    def test_join_extends_lifetime(self):
        """Fig. 3b: the data tensor must stay live until the join."""
        net = join_net()
        route = _route(net)
        la = LivenessAnalysis(route)
        last = la.last_use_map()
        data_out = net.data_layer.output
        join_fstep = route.fstep_of[net.layer_by_name("join").layer_id]
        assert last[data_out.tensor_id] >= join_fstep


class TestLastUse:
    def test_relu_input_lives_to_relu_backward(self):
        """ReLU backward reads x (paper's cuDNN dependency model), so a
        conv output consumed by ReLU lives until the ReLU's backward."""
        net = lenet(batch=1, image=12)
        route = _route(net)
        la = LivenessAnalysis(route)
        last = la.last_use_map()
        fc1 = net.layer_by_name("fc1")
        relu3 = net.layer_by_name("relu3")
        assert last[fc1.output.tensor_id] == route.bstep_of[relu3.layer_id]

    def test_conv_input_lives_to_conv_backward(self):
        net = lenet(batch=1, image=12)
        route = _route(net)
        la = LivenessAnalysis(route)
        last = la.last_use_map()
        conv2 = net.layer_by_name("conv2")
        pool1 = net.layer_by_name("pool1")
        # pool1.out is read by conv2's backward (wgrad) and by pool1's
        # own backward (cudnnPoolingBackward reads y); pool1's backward
        # is the later step
        assert last[pool1.output.tensor_id] == route.bstep_of[pool1.layer_id]


class TestPlan:
    def test_baseline_plan_frees_nothing(self):
        route = _route(lenet(batch=1, image=12))
        la = LivenessAnalysis(route, RuntimeConfig.baseline())
        plan = la.compile()
        assert not plan.free_after

    def test_liveness_plan_frees_everything_by_end(self):
        net = lenet(batch=1, image=12)
        route = _route(net)
        la = LivenessAnalysis(route, RuntimeConfig.liveness_only())
        plan = la.compile()
        freed = {t.tensor_id for ts in plan.free_after.values() for t in ts}
        # every data tensor must eventually be freed
        for l in net.layers:
            assert l.output.tensor_id in freed, l.name

    def test_recompute_shrinks_lifetimes(self):
        net = alexnet(batch=2, image=67, num_classes=10)
        route = _route(net)
        plain = LivenessAnalysis(route, RuntimeConfig.liveness_only())
        recomp = LivenessAnalysis(
            route,
            RuntimeConfig.liveness_only(
                recompute=RecomputeStrategy.COST_AWARE
            ),
        )
        lrn1 = net.layer_by_name("lrn1")
        assert recomp.last_use_map()[lrn1.output.tensor_id] < \
            plain.last_use_map()[lrn1.output.tensor_id]

    def test_eager_offload_releases_gpu_early(self):
        """An eager run copies every conv output to the host and frees
        its GPU bytes once the copy has landed."""
        net = alexnet(batch=2, image=67, num_classes=10)
        engine = Engine(net, RuntimeConfig.liveness_offload(concrete=False))
        pred = predict_compiled_mode(engine.net, engine.compiled("train"),
                                     engine.config.for_mode("train"))
        released = {off.tensor for off in pred.offloads
                    if off.release_time is not None}
        for l in net.layers:
            if l.ltype is LayerType.CONV:
                assert l.output.name in released, l.name

    def test_recompute_serves_the_dropped_layers_backward_reads(self):
        net = lenet(batch=1, image=12)
        route = _route(net)
        la = LivenessAnalysis(
            route,
            RuntimeConfig(recompute=RecomputeStrategy.SPEED_CENTRIC),
        )
        dropped = {l.output.tensor_id for l in net.layers
                   if l.layer_id in la.recompute_plan.dropped_layers}
        read = {t.tensor_id for step in route.steps[route.num_layers:]
                for t in la.reads_at(step.index)}
        pool1 = net.layer_by_name("pool1")
        conv1 = net.layer_by_name("conv1")
        assert pool1.output.tensor_id in dropped
        assert not dropped & read
        assert conv1.output.tensor_id in read


class TestPeakFormulas:
    def test_liveness_peak_formula(self):
        net = alexnet(batch=2, image=67, num_classes=10)
        route = _route(net)
        la = LivenessAnalysis(route, RuntimeConfig.liveness_only())
        peak = la.predicted_peak_liveness()
        assert peak == net.total_forward_bytes() + \
            route.forward_layers[-1].l_b()
        assert peak < net.baseline_peak_bytes()

    def test_offload_peak_strictly_smaller(self):
        net = alexnet(batch=2, image=67, num_classes=10)
        route = _route(net)
        la = LivenessAnalysis(route, RuntimeConfig.liveness_offload())
        assert la.predicted_peak_offload() < la.predicted_peak_liveness()

    def test_paper_ordering_baseline_liveness_offload_lpeak(self):
        """The paper's §3 chain: baseline > liveness > offload >= l_peak."""
        net = resnet_from_units((1, 1, 1, 1), batch=2, image=32,
                                num_classes=4)
        route = _route(net)
        la = LivenessAnalysis(route, RuntimeConfig.liveness_offload())
        assert net.baseline_peak_bytes() > la.predicted_peak_liveness()
        assert la.predicted_peak_liveness() > la.predicted_peak_offload()
