"""Spot checks against concrete numbers printed in the paper.

Where the paper states an exact quantity that our byte-accurate model
should reproduce (shapes, tensor sizes, segment counts, the l_peak
arithmetic), we assert it here — these are the strongest fidelity
anchors the reproduction has.
"""

import pytest

from repro.core.config import RecomputeStrategy, RuntimeConfig, WorkspacePolicy
from repro.core.recompute import plan_segments
from repro.core.session import Session
from repro.graph.route import ExecutionRoute
from repro.zoo import alexnet, inception_v4, resnet_from_units

MiB = 1024 * 1024


class TestAlexNetPaperNumbers:
    """Fig. 10's AlexNet b=200 arithmetic, reproduced to the megabyte."""

    def setup_method(self):
        self.net = alexnet(batch=200, image=227)

    def test_conv1_output_is_221_mib(self):
        """The paper's Fig. 10b analysis: CONV1 consumes 221.56 MB."""
        conv1 = self.net.layer_by_name("conv1")
        assert conv1.output.nbytes / MiB == pytest.approx(221.56, abs=0.1)

    def test_conv2_output_is_142_mib(self):
        """...and CONV2 consumes 142.38 MB."""
        conv2 = self.net.layer_by_name("conv2")
        assert conv2.output.nbytes / MiB == pytest.approx(142.38, abs=0.1)

    def test_conv3_conv4_outputs_are_49_mib(self):
        """...and CONV3/CONV4 consume 49.51 MB each."""
        for name in ("conv3", "conv4"):
            t = self.net.layer_by_name(name).output
            assert t.nbytes / MiB == pytest.approx(49.51, abs=0.1)

    def test_l_peak_is_886_mib_at_lrn1(self):
        """Fig. 10c: max(l_i) = 886.385 MB, the LRN1 backward working
        set of four 221.56 MiB tensors (x, y, dy, dx)."""
        assert self.net.max_layer_bytes() / MiB == pytest.approx(886.2,
                                                                 abs=1.0)
        lrn1 = self.net.layer_by_name("lrn1")
        assert lrn1.working_set_bytes() == self.net.max_layer_bytes()

    def test_executed_peak_equals_l_peak(self):
        ex = Session(self.net, RuntimeConfig.superneurons(
            use_tensor_cache=False, concrete=False,
            workspace_policy=WorkspacePolicy.NONE)).executor
        r = ex.run_iteration(0)
        ex.close()
        assert r.activation_peak_bytes == self.net.max_layer_bytes()
        peak_step = max(r.traces, key=lambda t: t.activation_high)
        assert peak_step.label == "lrn1:b"

    def test_46_paper_steps(self):
        """The paper counts 46 steps (23 layers x fwd+bwd, no DATA)."""
        route = ExecutionRoute(self.net)
        non_data_steps = [s for s in route.steps
                          if s.layer.ltype.value != "DATA"]
        assert len(non_data_steps) == 46


class TestTable1ClosedForms:
    def test_alexnet_14_and_23(self):
        net = alexnet(batch=128, image=227)
        route = ExecutionRoute(net)
        sp = plan_segments(route, RecomputeStrategy.SPEED_CENTRIC)
        me = plan_segments(route, RecomputeStrategy.MEMORY_CENTRIC)
        assert sp.total_extra_forwards() == 14
        assert me.total_extra_forwards() == 23


class TestResNetDepthFormula:
    @pytest.mark.parametrize("units,depth", [
        ((3, 4, 6, 3), 50),
        ((3, 4, 23, 3), 101),
        ((3, 8, 36, 3), 152),
        ((6, 32, 6, 6), 152),  # the Table-4 parameterization at n3=6
    ])
    def test_formula(self, units, depth):
        assert 3 * sum(units) + 2 == depth

    def test_table4_1920_sits_on_the_lattice_gap(self):
        """The paper's deepest SuperNeurons ResNet is quoted as 1920,
        which falls between the two nearest depths the formula can
        actually produce (1919 at n3=595 and 1922 at n3=596)."""
        assert 3 * (6 + 32 + 595 + 6) + 2 == 1919
        assert 3 * (6 + 32 + 596 + 6) + 2 == 1922


class TestInceptionScale:
    def test_layer_count_near_paper(self):
        """Paper: 'the latest Inception v4 has 515 basic layers'."""
        net = inception_v4(batch=1, image=299)
        assert 430 <= len(net) <= 540

    def test_memory_demand_exceeds_12gb_at_b32(self):
        """Paper Fig. 2: Inception v4 at batch 32 cannot fit 12 GB."""
        net = inception_v4(batch=32, image=299)
        demand = net.baseline_peak_bytes() + net.total_param_bytes()
        assert demand > 12 * 1024**3


class TestCombinedPressure:
    def test_all_optimizations_with_fabric_and_squeeze(self):
        """Everything at once: squeezed GPU, tiny first pool with spill,
        cost-aware recompute, LRU cache — training must still match the
        baseline bit for bit."""
        from repro import SGD
        from repro.device.fabric import ExternalPool, LOCAL_CPU

        def run(config):
            net = resnet_from_units((1, 1, 1, 1), batch=2, image=32,
                                    num_classes=4)
            ex = Session(net, config).executor
            opt = SGD(lr=0.05)
            out = [ex.run_iteration(i, optimizer=opt).loss
                   for i in range(3)]
            ex.close()
            return out, ex

        ref, _ = run(RuntimeConfig.baseline(
            workspace_policy=WorkspacePolicy.NONE))
        probe, ex0 = run(RuntimeConfig.superneurons(
            workspace_policy=WorkspacePolicy.NONE))
        assert probe == ref
        cap = ex0.allocator.peak_bytes + 2 * MiB
        squeezed, _ = run(RuntimeConfig.superneurons(
            gpu_capacity=cap,
            external_pools=(ExternalPool("tiny", 512 * 1024), LOCAL_CPU),
            workspace_policy=WorkspacePolicy.NONE))
        assert squeezed == ref
