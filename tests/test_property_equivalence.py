"""Property-based tests on randomly generated networks.

Hypothesis grows random fan/join networks with :func:`build_net`.
``tests/test_equivalence_matrix.py`` trains them under every stack
against the unoptimized baseline — the central invariant.  Here: the
full stack's peak is never above the baseline's, and liveness and the
route keep their invariants on any topology.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RuntimeConfig, Session
from repro.core.config import WorkspacePolicy
from repro.core.liveness import LivenessAnalysis
from repro.graph import ExecutionRoute, Net
from repro.layers import (
    BatchNorm,
    Concat,
    Conv2D,
    DataLayer,
    Dropout,
    FullyConnected,
    Join,
    LRN,
    Pool2D,
    ReLU,
    SoftmaxLoss,
)

# -- random net construction -------------------------------------------------

BLOCKS = ["conv", "conv_relu", "conv_bn_relu", "pool", "lrn", "dropout",
          "residual", "fan"]


def block_ids(max_size):
    return st.lists(st.integers(0, len(BLOCKS) - 1), min_size=1,
                    max_size=max_size)


def build_net(block_ids, seed: int, batch: int = 2) -> Net:
    """Deterministically grow a small net from a block id list."""
    net = Net(f"rand{seed}")
    x = net.add(DataLayer("data", (batch, 3, 16, 16), num_classes=4))
    idx = 0
    for b in block_ids:
        kind = BLOCKS[b % len(BLOCKS)]
        idx += 1
        ch = x.out_shape[1]
        hw = x.out_shape[2]
        if kind == "conv":
            x = net.add(Conv2D(f"c{idx}", min(ch + 2, 12), 3, pad=1), [x])
        elif kind == "conv_relu":
            x = net.add(Conv2D(f"c{idx}", min(ch + 2, 12), 3, pad=1), [x])
            x = net.add(ReLU(f"r{idx}"), [x])
        elif kind == "conv_bn_relu":
            x = net.add(Conv2D(f"c{idx}", min(ch + 2, 12), 3, pad=1,
                               bias=False), [x])
            x = net.add(BatchNorm(f"b{idx}"), [x])
            x = net.add(ReLU(f"r{idx}"), [x])
        elif kind == "pool" and hw >= 4:
            x = net.add(Pool2D(f"p{idx}", 2, 2), [x])
        elif kind == "lrn" and ch >= 3:
            x = net.add(LRN(f"n{idx}", size=3), [x])
        elif kind == "dropout":
            x = net.add(Dropout(f"d{idx}", 0.3), [x])
        elif kind == "residual":
            y = net.add(Conv2D(f"c{idx}a", ch, 3, pad=1), [x])
            y = net.add(ReLU(f"r{idx}a"), [y])
            y = net.add(Conv2D(f"c{idx}b", ch, 3, pad=1), [y])
            x = net.add(Join(f"j{idx}"), [y, x])
        elif kind == "fan":
            a = net.add(Conv2D(f"c{idx}a", 4, 1), [x])
            b = net.add(Conv2D(f"c{idx}b", 4, 3, pad=1), [x])
            x = net.add(Concat(f"cat{idx}"), [a, b])
    x = net.add(FullyConnected("fc", 4), [x])
    net.add(SoftmaxLoss("softmax"), [x])
    return net.build()


class TestRandomNetEquivalence:
    @given(
        blocks=block_ids(6),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=15, deadline=None)
    def test_superneurons_peak_never_higher_than_baseline(self, blocks, seed):
        def peak(config):
            net = build_net(blocks, seed)
            ex = Session(net, config).executor
            p = ex.run_iteration(0).activation_peak_bytes
            ex.close()
            return p

        base = peak(RuntimeConfig.baseline(
            workspace_policy=WorkspacePolicy.NONE))
        sn = peak(RuntimeConfig.superneurons(
            use_tensor_cache=False, workspace_policy=WorkspacePolicy.NONE))
        assert sn <= base


class TestRandomNetLiveness:
    @given(
        blocks=block_ids(8),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_in_out_set_invariants(self, blocks, seed):
        net = build_net(blocks, seed)
        route = ExecutionRoute(net)
        la = LivenessAnalysis(route, RuntimeConfig.liveness_only())
        sets = la.in_out_sets()
        # out ⊆ in at every step; the final out set is empty; the live
        # set shrinks exactly at last-use steps
        for s in sets:
            assert s["out"] <= s["in"]
        assert sets[-1]["out"] == set()

    @given(
        blocks=block_ids(8),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_route_is_topological(self, blocks, seed):
        net = build_net(blocks, seed)
        route = ExecutionRoute(net)
        pos = {l.layer_id: i for i, l in enumerate(route.forward_layers)}
        for l in net.layers:
            for p in l.prev:
                assert pos[p.layer_id] < pos[l.layer_id]
