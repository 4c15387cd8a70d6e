"""The write-back tensor cache's clean bit (DESIGN.md "Clean and dirty
lines"): *between two uses, an evicted tensor crosses PCIe at most once
per direction.*

A GPU-resident tensor whose host copy is valid is a clean line — an
eviction drops it with no copy — and under an armed cache a recompute
anchor stays resident as one instead of being released after every
chain.  Both halves are held here on the unhappy path: under pressure,
down to the smallest capacity that runs at all.
"""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Engine, MemoryPolicy, RuntimeConfig, SGD, Session
from repro.core.policy import (
    LivenessPolicy,
    OffloadCachePolicy,
    RecomputePolicy,
    WorkspacePolicy,
    resolve_policies,
)
from repro.device.gpu import OutOfMemoryError
from repro.zoo import lenet, resnet50
from repro.zoo.resnet import resnet_from_units

from tests.conftest import hand_stacked_executor

GiB = 1 << 30
H2D = ("fetch", "prefetch")


def watch(ex):
    """Log ``(kind, tensor name)`` for every eviction (``"drop"``, clean
    or not) and every DMA copy of ``ex``, wrapping from the test as
    ``benchmarks/ledger`` wraps the allocator."""
    log = []
    copy, evict = ex._copy, ex._evict_to_host

    def logged_copy(t, kind, after=None):
        log.append((kind, t.name))
        return copy(t, kind, after=after)

    def logged_evict(t):
        log.append(("drop", t.name))
        return evict(t)

    ex._copy, ex._evict_to_host = logged_copy, logged_evict
    return log


def assert_once_per_direction(log, res):
    """No tensor comes back twice between two of its evictions, and the
    bytes reconcile: D2H copies == evictions - clean drops."""
    fetched = set()                      # back on the GPU since its drop
    for kind, name in log:
        if kind == "drop":
            fetched.discard(name)
        elif kind in H2D:
            assert name not in fetched, \
                f"{name} crossed H2D twice between two evictions"
            fetched.add(name)
    kinds = [kind for kind, _ in log]
    assert kinds.count("drop") == res.cache_evictions
    assert kinds.count("evict") \
        == res.cache_evictions - res.cache_clean_evictions


class TestPressuredResnet50:
    """The ledger's ``train_pressured`` workload, pinned."""

    @pytest.mark.parametrize("replay", [True, False],
                             ids=["replay", "fresh"])
    def test_an_evicted_tensor_crosses_pcie_once_each_way(self, replay):
        cfg = RuntimeConfig.superneurons(
            concrete=False, gpu_capacity=GiB, steady_state_replay=replay)
        with Engine(resnet50(batch=32), cfg).session("train") as sess:
            log = watch(sess.executor)
            sess.run_iteration(0)
            for i in (1, 2):
                del log[:]
                res = sess.run_iteration(i)
                # parent: 2,723,610,624 back for 1,534,902,272 out —
                # anchors released after every chain, re-fetched five times
                assert res.h2d_bytes == res.d2h_bytes == 1_534_902_272
                assert res.peak_bytes == 1_048_305_824
                assert res.cache_evictions == 28
                assert_once_per_direction(log, res)
            assert sess.executor.replayed_iterations == (3 if replay else 0)

    def test_deep_pressure_re_evicts_clean_lines_for_free(self):
        """At 0.3x of the roomy peak pressure reaches into backward:
        fetched tensors are evicted a second time, and that second
        eviction moves no bytes."""
        cfg = RuntimeConfig.superneurons(concrete=False)
        with Engine(resnet50(batch=32), cfg).session("train") as roomy:
            peak = roomy.run_iteration(0).peak_bytes
        cfg = RuntimeConfig.superneurons(concrete=False,
                                         gpu_capacity=int(0.3 * peak))
        with Engine(resnet50(batch=32), cfg).session("train") as sess:
            log = watch(sess.executor)
            res = sess.run_iteration(0)
            assert (res.cache_evictions, res.cache_clean_evictions) == (46, 5)
            assert_once_per_direction(log, res)
            assert res.to_dict()["cache"]["clean_evictions"] == 5


# -- the small concrete net: every capacity that runs -------------------------

def small_resnet():
    return resnet_from_units((1, 1, 0, 0), batch=4, image=32, num_classes=10)


#: capacity range of :func:`small_resnet` under the superneurons stack:
#: the roomy peak, and the smallest capacity that runs (one byte less
#: is OOM) — where 3 of each iteration's 17 evictions are clean
ROOMY_PEAK = 6_441_256
SMALLEST = 4_269_056
ITERS = 3


def train_small(capacity):
    """``ITERS`` SGD iterations; returns losses, updated parameters and
    per-iteration results, holding the settled-state invariants after
    every iteration."""
    net = small_resnet()
    params = {p.tensor_id for l in net.layers for p in l.params}
    opt = SGD(0.05)
    results = []
    with Session(net, RuntimeConfig.superneurons(
            gpu_capacity=capacity)).executor as ex:
        assert ex.state.validate, "the suite arms the placement validator"
        log = watch(ex)
        for i in range(ITERS):
            del log[:]
            res = ex.run_iteration(i, optimizer=opt)
            results.append(res)
            assert_once_per_direction(log, res)
            assert ex.allocator.used_bytes == ex.param_bytes
            assert ex.fabric.count == 0 and ex.fabric.used_bytes() == 0
            assert ex.state.locked_ids() == params
    weights = [l.param_values[p.tensor_id]
               for l in net.layers for p in l.params]
    return [r.loss for r in results], weights, results


@functools.lru_cache(maxsize=None)
def roomy_small():
    return train_small(None)


class TestEveryCapacityThatRuns:
    def test_the_range_is_what_it_says(self):
        _, _, results = roomy_small()
        assert results[0].peak_bytes == ROOMY_PEAK
        assert results[0].cache_evictions == 0
        with pytest.raises(OutOfMemoryError):
            train_small(SMALLEST - 1)

    @settings(max_examples=20, deadline=None)
    @given(capacity=st.integers(SMALLEST, ROOMY_PEAK))
    @example(capacity=SMALLEST)
    def test_pressure_changes_traffic_never_values(self, capacity):
        ref_losses, ref_weights, _ = roomy_small()
        losses, weights, results = train_small(capacity)
        assert losses == ref_losses
        assert all(np.array_equal(w, r)
                   for w, r in zip(weights, ref_weights))
        for res in results:
            assert res.peak_bytes <= capacity
        if capacity == SMALLEST:
            # the re-eviction of a host-valid payload, reached
            assert [r.cache_clean_evictions for r in results] == [3] * ITERS
            assert [r.cache_evictions for r in results] == [17] * ITERS


# -- what the clean bit rests on ----------------------------------------------

class TestCleanBitSoundness:
    """A clean line may be dropped without a copy only while nobody
    rewrites an output whose host copy is valid; under the validator a
    payload write over one is an error at both concrete write sites."""

    def test_forward_write_over_a_host_valid_output_is_an_error(self):
        net = lenet(batch=4, image=12)
        with Session(net, RuntimeConfig.superneurons()).executor as ex:
            ex.state.set_host_resident(net.layers[1].output, True)
            with pytest.raises(AssertionError, match="valid host copy"):
                ex.run_iteration(0)

    def test_recompute_write_over_a_host_valid_output_is_an_error(self):
        class Spoiler(MemoryPolicy):
            """Marks what recomputation is about to rebuild host-valid."""
            key = "spoiler"

            def on_backward_need(self, ctx, step, missing):
                for t in missing:
                    ctx.state.set_host_resident(t, True)

        cfg = RuntimeConfig.superneurons()
        stack = [Spoiler()] + resolve_policies(cfg)
        with hand_stacked_executor(lenet(batch=4, image=12), cfg,
                                   stack) as ex:
            with pytest.raises(AssertionError, match="valid host copy"):
                ex.run_iteration(0)


class TestAnchorRelease:
    """One predicate, read once at bind from the resolved stack."""

    @staticmethod
    def stack(cache):
        return [OffloadCachePolicy(cache_policy=cache), LivenessPolicy(),
                RecomputePolicy(), WorkspacePolicy()]

    @pytest.mark.parametrize("cache,releases", [("lru", False),
                                                (None, True)])
    def test_explicit_stacks_agree_with_resolved_ones(self, cache, releases):
        # config flags say the opposite of the explicit stack: it is
        # the stack that decides
        cfg = RuntimeConfig.superneurons(
            concrete=False, use_tensor_cache=cache is None)
        net = lenet(batch=4, image=12)
        with hand_stacked_executor(net, cfg, self.stack(cache)) as ex:
            assert ex._recompute_policy._release_anchors is releases
        cfg = RuntimeConfig.superneurons(
            concrete=False, use_tensor_cache=cache is not None)
        with Session(net, cfg).executor as ex:
            assert ex._recompute_policy._release_anchors is releases
