"""The write-back tensor cache's clean bit (DESIGN.md "Clean and dirty
lines"): *between two uses, an evicted tensor crosses PCIe at most once
per direction* — and a dropped one (DESIGN.md "Dropped victims") not at
all.

A GPU-resident tensor whose host copy is valid is a clean line — an
eviction drops it with no copy — and under an armed cache a recompute
anchor stays resident as one instead of being released after every
chain.  A dirty line whose copy started early is *cleaning*:
its eviction waits out the copy instead of issuing another.  All of it
is held here on the unhappy path: under pressure, down to the smallest
capacity that runs at all.
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
    StepContext,
    WorkspacePolicy,
    resolve_policies,
)
from repro.core.tensor_state import ResidencyError
from repro.device.gpu import OutOfMemoryError
from repro.tensors.tensor import Placement
from repro.zoo import alexnet, lenet, resnet50
from repro.zoo.resnet import resnet_from_units

from tests.conftest import hand_stacked_executor
from tests.faults import assert_quiescent, clockless
from tests.reference_policies import turn_only_stack

GiB = 1 << 30
H2D = ("fetch", "prefetch")
COPIES = ("evict", "clean") + H2D


def watch(ex):
    """Log ``(kind, tensor name)`` for every eviction to the host
    (``"drop"``, clean or not), every dropped victim discarded instead
    (``"dropped"``), every DMA copy and every death of a line
    being cleaned (``"dead"``), plus ``("event", bytes
    freed)`` per ``LRU.out`` call — wrapping from the test, before the
    first iteration links its plan, as ``benchmarks/ledger`` wraps the
    allocator."""
    log = []
    copy, evict, discard = ex._copy, ex._evict_to_host, ex._discard
    evict_for = ex.cache.evict_for

    def logged_copy(t, kind, after=None):
        log.append((kind, t.name))
        return copy(t, kind, after=after)

    def logged_evict(t):
        # a stale arrival would make the next prefetch answer "already
        # pending" and skip the copy
        assert t.tensor_id not in ex.state.arrivals, \
            f"{t.name} evicted while its arrival is pending"
        log.append(("drop", t.name))
        return evict(t)

    def logged_discard(t):
        if ex.state.cleaning(t):
            log.append(("dead", t.name))
        return discard(t)

    def logged_evict_for(nbytes, offload_cb, step=-1):
        def out(t):
            freed = offload_cb(t)
            if not ex.state.is_live(t):
                log.append(("dropped", t.name))
            return freed
        freed = evict_for(nbytes, out, step)
        log.append(("event", freed))
        return freed

    ex._copy, ex._evict_to_host, ex._discard = \
        logged_copy, logged_evict, logged_discard
    ex.cache.evict_for = logged_evict_for
    return log


def copies(log):
    """The DMA copies in a :func:`watch` log: all of it an iteration run
    from the residency table passes through (its evictions and
    discards are recorded moves, not calls)."""
    return [entry for entry in log if entry[0] in COPIES]


def assert_once_per_direction(log, res):
    """No tensor comes back twice between two of its evictions or goes
    out twice between two of its materialisations, a dropped victim
    crosses neither way, and the copies reconcile: ``evict`` + ``clean``
    copies == dirty evictions + lines cleaned and kept.  Returns
    ``(lines cleaned and kept, re-evictions of a line that had come
    back)``."""
    fetched = set()                      # back on the GPU since its drop
    cleaning = set()                     # clean copy started
    cleaned_drops = kept = again = 0
    dropped = set()
    for kind, name in log:
        if kind == "dropped":
            assert name not in cleaning, f"{name} copied, then dropped"
            dropped.add(name)
        elif kind == "drop":
            again += name in fetched
            fetched.discard(name)
            dropped.discard(name)  # rebuilt since, and evicted this time
            cleaned_drops += name in cleaning
            cleaning.discard(name)
        elif kind == "dead":
            cleaning.remove(name)
            kept += 1
        elif kind == "clean":
            assert name not in cleaning and name not in fetched, \
                f"{name} crossed D2H twice between two uses"
            cleaning.add(name)
        elif kind == "evict":
            assert name not in cleaning, \
                f"{name} copied again while it was being cleaned"
        elif kind in H2D:
            assert name not in fetched, \
                f"{name} crossed H2D twice between two evictions"
            assert name not in dropped, f"{name} dropped, then fetched"
            fetched.add(name)
    assert not cleaning, "the barrier discards every cleaning line"
    kinds = [kind for kind, _ in log]
    assert kinds.count("dropped") == res.cache_dropped
    assert kinds.count("drop") + res.cache_dropped == res.cache_evictions
    # an eviction either copies then, or finds the line clean or cleaning
    dirty_evictions = kinds.count("evict") + cleaned_drops
    assert kinds.count("evict") == res.cache_evictions \
        - res.cache_clean_evictions - res.cache_dropped
    assert kinds.count("evict") + kinds.count("clean") \
        == dirty_evictions + kept
    return kept, again


class TestPressuredResnet50:
    """The ledger's ``train_pressured`` workload, pinned."""

    @pytest.mark.parametrize("replay", [True, False],
                             ids=["replay", "fresh"])
    def test_an_evicted_tensor_crosses_pcie_once_each_way(self, replay):
        cfg = RuntimeConfig.superneurons(
            concrete=False, gpu_capacity=GiB, steady_state_replay=replay)
        with Engine(resnet50(batch=32), cfg).session("train") as sess:
            ex = sess.executor
            log, live = watch(ex), []
            for i in (0, 1, 2):
                del log[:]
                tabled = ex.table_iterations
                res = sess.run_iteration(i)
                assert res.peak_bytes == 1_048_305_824
                assert res.cache_evictions == 28
                if ex.table_iterations > tabled:
                    # iteration 2 repeats the recorded one's copies
                    assert log == copies(live)
                else:
                    live = log[:]
                    kept, _ = assert_once_per_direction(log, res)
                # from iteration 0, which starts from the scout's
                # record: the recorded victims are exactly what pressure
                # takes, and the 11 dropped ones (640.9 MiB) cross
                # neither way (with no record: 1,534,902,272 B back, and
                # 2,723,610,624 before clean lines)
                assert res.cache_dropped == 11
                assert res.h2d_bytes == 862_912_512
                assert kept == res.d2h_bytes - res.h2d_bytes == 0
            # iteration 0 links the plan; replay reuses it from there,
            # the first iteration that drops included, and iteration 2
            # runs from the table iteration 1 recorded
            assert (ex.replayed_iterations, ex.table_iterations) == \
                ((2, 1) if replay else (0, 0))

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
            # 6 re-evictions of a line that had come back (7 of 48 in
            # a first iteration with no record, 5 of 46 before the
            # return trip brought lines back early); 13 of the 49
            # victims are dropped, and every other one but 3 found its
            # recorded copy started
            assert (res.cache_evictions, res.cache_clean_evictions,
                    res.cache_dropped) == (49, 33, 13)
            _, again = assert_once_per_direction(log, res)
            assert again == 6
            assert res.to_dict()["cache"]["clean_evictions"] == 33


# -- the small concrete net: every capacity that runs -------------------------

def small_resnet():
    return resnet_from_units((1, 1, 0, 0), batch=4, image=32, num_classes=10)


#: capacity range of :func:`small_resnet` under the superneurons stack:
#: the roomy peak, and the smallest capacity that runs (one byte less
#: is OOM) — where 3 of each iteration's 17 evictions are re-evictions
#: of a clean line
ROOMY_PEAK = 6_441_256
SMALLEST = 4_269_056
ITERS = 3


def train_small(capacity):
    """``ITERS`` simulated iterations; returns the per-iteration results
    and re-eviction counts, holding the executor quiescent after every
    iteration.  An iteration run from the residency table must make the
    copies the one it repeats made, and its re-evictions are that
    one's.  Payloads move no byte of it
    (``tests/test_equivalence_matrix.py::test_sim_concrete``), and the
    values they carry at every capacity are ``test_capacity``'s."""
    results, re_evictions = [], []
    with Session(small_resnet(), RuntimeConfig.superneurons(
            concrete=False, gpu_capacity=capacity)).executor as ex:
        assert ex.state.validate, "the suite arms the placement validator"
        log, live = watch(ex), []
        for i in range(ITERS):
            del log[:]
            tabled = ex.table_iterations
            res = ex.run_iteration(i)
            results.append(res)
            if ex.table_iterations > tabled:
                assert log == copies(live)
            else:
                live = log[:]
                _, again = assert_once_per_direction(log, res)
            re_evictions.append(again)
            assert_quiescent(ex)
    return results, re_evictions


class TestEveryCapacityThatRuns:
    def test_the_range_is_what_it_says(self):
        results, _ = train_small(None)
        assert results[0].peak_bytes == ROOMY_PEAK
        assert results[0].cache_evictions == 0
        with pytest.raises(OutOfMemoryError):
            train_small(SMALLEST - 1)

    @settings(max_examples=20, deadline=None)
    @given(capacity=st.integers(SMALLEST, ROOMY_PEAK))
    @example(capacity=SMALLEST)
    def test_pressure_changes_traffic(self, capacity):
        """What pressure moves; that it moves no value is
        ``tests/test_equivalence_matrix.py::test_capacity``."""
        results, re_evictions = train_small(capacity)
        for res in results:
            assert res.peak_bytes <= capacity
        if capacity == SMALLEST:
            # the re-eviction of a host-valid payload, reached; of the
            # other 14 evictions, 7 found a recorded victim's copy and 3
            # dropped a conv output, from iteration 0 on (the first
            # iteration with no record found 9 write-behind copies and
            # dropped none)
            assert re_evictions == [3] * ITERS
            assert [r.cache_clean_evictions for r in results] == [10] * ITERS
            assert [r.cache_dropped for r in results] == [3] * ITERS
            assert [r.cache_evictions for r in results] == [17] * ITERS


# -- dropped victims: rebuilt, bit for bit ---------------------------------------

def train_four(fraction):
    """Four SGD iterations of a one-unit-per-stage resnet at ``fraction``
    of its roomy activation peak (None: roomy); returns the results and
    the updated parameters."""
    net = resnet_from_units((1, 1, 1, 1), batch=4, image=64, num_classes=10)
    capacity = None
    if fraction is not None:
        roomy = roomy_four()[0][0]
        capacity = roomy.param_bytes + int(
            fraction * roomy.activation_peak_bytes)
    opt = SGD(0.05)
    with Session(net, RuntimeConfig.superneurons(
            gpu_capacity=capacity)) as sess:
        results = [sess.run_iteration(i, optimizer=opt) for i in range(4)]
        assert_quiescent(sess)
    weights = [l.param_values[p.tensor_id]
               for l in net.layers for p in l.params]
    return results, weights


@functools.lru_cache(maxsize=None)
def roomy_four():
    return train_four(None)


@pytest.mark.parametrize("fraction", [0.6, 0.7, 0.8])
def test_dropped_victims_rebuild_bit_for_bit(fraction):
    """A dropped conv output comes back by re-running its producer (and
    the chain behind it), not by a copy: the losses and the trained
    parameters are the roomy run's, bit for bit, from iteration 0 (the
    scout's drop set) on."""
    results, weights = train_four(fraction)
    roomy, roomy_weights = roomy_four()
    assert [r.loss for r in results] == [r.loss for r in roomy]
    assert all(np.array_equal(w, r) for w, r in zip(weights, roomy_weights))
    assert all(r.cache_dropped > 0 for r in results)
    assert all(r.peak_bytes <= r.param_bytes + int(
        fraction * roomy[0].activation_peak_bytes) for r in results)


# -- the third state: cleaning -------------------------------------------------

def abort_then_recover(mk_session, at_step, stranded):
    """PR 14's saboteur under pressure: raise from ``before_step`` of
    step ``at_step`` in iteration 1, where ``stranded(executor)`` must
    hold, then run on.  The raise leaves the tables as empty as a
    completed iteration does, and from the recovery iteration on nothing
    differs from an undisturbed twin."""

    class Saboteur(MemoryPolicy):
        key = "saboteur"
        armed = False
        found = None

        def before_step(self, ctx, step):
            if self.armed and step.index == at_step:
                self.found = stranded(ctx._ex)
                raise ValueError("injected")

    with mk_session() as twin:
        expect = [twin.run_iteration(i).to_dict() for i in range(4)]
    saboteur = Saboteur()
    with mk_session().with_policy(saboteur) as sess:
        ex = sess.executor
        assert sess.run_iteration(0).to_dict() == expect[0]
        assert_quiescent(ex)
        saboteur.armed = True
        with pytest.raises(ValueError, match="injected"):
            sess.run_iteration(1)
        assert saboteur.found
        assert_quiescent(ex)
        saboteur.armed = False
        for i in range(1, 4):
            assert sess.run_iteration(i).to_dict() == clockless(expect[i])
            assert_quiescent(ex)


class TestCleaningState:
    def test_a_cleaning_line_that_dies_first_retires_its_copy(self):
        """At 6,000,000 B every line the write-behind twin cleans in its
        first iteration is freed by liveness before pressure comes back
        for it: the copies were moot, and each one's event and fabric
        reservation go at the discard, not at the barrier.  (A recorded
        victim the iteration does not evict would be one too.)"""
        cfg = RuntimeConfig.superneurons(concrete=False,
                                         gpu_capacity=6_000_000)
        with hand_stacked_executor(small_resnet(), cfg,
                                   turn_only_stack(cfg)) as ex:
            log = watch(ex)
            discard, died = ex._discard, []

            def checked_discard(t):
                was_cleaning = ex.state.cleaning(t)
                discard(t)
                if was_cleaning:
                    died.append(t.name)
                    assert not ex.state.cleaning(t)
                    assert not ex.fabric.contains(t.tensor_id)

            ex._discard = checked_discard
            res = ex.run_iteration(0)
            kept, _ = assert_once_per_direction(log, res)
            cleaned = [name for kind, name in log if kind == "clean"]
            assert kept == len(cleaned) == len(died) == 3
            assert sorted(cleaned) == sorted(died)
            assert res.cache_clean_evictions == 0
            assert_quiescent(ex)

    def test_tables_are_empty_after_an_aborted_iteration_and_a_clean_one(
            self):
        """An exception mid-backward finds cleaning lines and their
        reservations in flight; the aborted iteration retires them."""
        cfg = RuntimeConfig.superneurons(concrete=False,
                                         gpu_capacity=5_000_000)
        abort_then_recover(
            lambda: Session(small_resnet(), cfg), at_step=38,
            stranded=lambda ex: ex.state.cleaning_count() > 0
            and ex.fabric.count > 0)


# -- what the clean bit rests on ----------------------------------------------

class TestCleanBitSoundness:
    """A clean line may be dropped without a copy only while nobody
    rewrites an output whose host copy is valid; under the validator a
    payload write over one is an error at both concrete write sites."""

    def test_forward_write_over_a_host_valid_output_is_an_error(self):
        net = lenet(batch=4, image=12)
        with Session(net, RuntimeConfig.superneurons()).executor as ex:
            ex.state.offload_started(net.layers[1].output)
            with pytest.raises(AssertionError, match="valid host copy"):
                ex.run_iteration(0)

    def test_recompute_write_over_a_host_valid_output_is_an_error(self):
        class Spoiler(MemoryPolicy):
            """Marks what recomputation is about to rebuild host-valid."""
            key = "spoiler"

            def on_backward_need(self, ctx, step, missing):
                for t in missing:
                    ctx.state.offload_started(t)

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

    def test_eager_anchors_are_released_after_their_chains(self, monkeypatch):
        """Eager mode releases each segment's offloaded anchor once its
        chain has run: the five conv outputs of alexnet, at the same
        backward steps every iteration."""
        released = []
        release = StepContext.release_gpu

        def spy(ctx, t):
            released.append((ctx.iteration, ctx.step.index, t.name))
            return release(ctx, t)
        monkeypatch.setattr(StepContext, "release_gpu", spy)
        with Session(alexnet(batch=2, image=67, num_classes=10),
                     RuntimeConfig.superneurons(
                         use_tensor_cache=False)) as sess:
            sess.run(iters=2)
            assert_quiescent(sess)
        assert released == [
            (i, step, f"conv{n}:out") for i in range(2)
            for step, n in ((31, 5), (34, 4), (36, 3), (38, 2), (42, 1))]

    def test_a_release_without_a_host_copy_is_refused_at_the_call(self):
        """Dropping the only copy of a tensor is a discard, not a
        release: the call raises, naming the tensor, before its
        placement moves or any hook fires, and the aborted iteration
        leaves the session at rest."""
        class Releaser(MemoryPolicy):
            key = "releaser"

            def __init__(self, t):
                self.t, self.log = t, []

            def after_step(self, ctx, step):
                if step.index == 0:
                    try:
                        ctx.release_gpu(self.t)
                    finally:
                        self.log.append(ctx.state.placement(self.t))

            def on_tensor_released(self, ctx, t):
                self.log.append(f"released {t.name}")

        net = lenet(batch=2, image=12)
        data = net.build().layers[0].output
        releaser = Releaser(data)
        with Session(net, RuntimeConfig.superneurons()
                     ).with_policy(releaser) as sess:
            with pytest.raises(ResidencyError, match="data:out") as exc:
                sess.run_iteration(0)
            assert exc.value.tensor is data
            assert releaser.log == [Placement.GPU]
            assert_quiescent(sess)
