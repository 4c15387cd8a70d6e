"""Executor faults under pressure: after a DMA, an eviction, an allocation,
a rebuild, a segment's recomputation, a layer's forward or backward step
or a policy's hook fails, the next iteration is the one an undisturbed
session runs.

The pressured path holds the most in-flight state when it raises: pinned
tensors, cleaning lines, a half-walked LRU
tail, return-trip entries, fabric stashes, a half-recorded victim list,
a dropped victim's half-built chain and recomputation's half-swept
persistents and transients; a raising hook leaves its policy short of
one event — a cache line never removed, a sweep never run, a record
never committed.  A
:class:`~tests.faults.FaultPlan` makes one seam raise at the *k*-th call
of iteration 1, with *k* drawn by ``hypothesis`` over every call that
iteration makes.  After the raise the session is quiescent, its seed —
the drop set and the victims its engine's scout chose — is intact, the
next iteration starts recomputation's cleanup sweep empty, and
iterations 1 and 2 run again exactly as an undisturbed twin's.  The
aborted iteration's victims are never committed, so the rerun cleans
iteration 0's.  Iteration 0 starts from the scout's record and runs as
iteration 1 does; every call of its ``alloc`` and ``copy`` seams is
failed on the small net (without payloads; ``hypothesis`` draws calls
with them), and iteration 0 then runs again as the undisturbed one.

Two configurations: a one-unit-per-stage resnet with real payloads at
the smallest capacity it runs in, where iteration 1 issues every kind of
copy and drops three conv outputs, and the ledger's ``train_pressured``
(resnet50 b32 at 1 GiB), where every eviction that copies finds its line
clean and no ``evict`` copy is made.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.engine
from repro import Engine, RuntimeConfig, Session
from repro.core.policy import MemoryPolicy
from repro.zoo import alexnet, lenet, resnet50
from repro.zoo.resnet import resnet_from_units

from tests.faults import (
    SEAMS, FaultPlan, InjectedFault, assert_quiescent, clockless)
from tests.test_clean_lines import SMALLEST

#: name -> (net, capacity, concrete)
CONFIGS = {
    "small": lambda: (
        resnet_from_units((1, 1, 0, 0), batch=4, image=32, num_classes=10),
        SMALLEST, True),
    "resnet50": lambda: (resnet50(batch=32), 1 << 30, False),
}


#: the small net without payloads: the concrete run's seam calls at a
#: tenth of the host time, where every call of a seam is failed
SIMULATED = {"small-sim": lambda: CONFIGS["small"]()[:2] + (False,)}


@functools.lru_cache(maxsize=None)
def engine(name):
    net, capacity, concrete = {**CONFIGS, **SIMULATED}[name]()
    return Engine(net, RuntimeConfig.superneurons(
        concrete=concrete, gpu_capacity=capacity))


@functools.lru_cache(maxsize=None)
def twin(name):
    """An undisturbed session's four iterations, the calls each seam
    makes in each of them (``seen[i][seam]``; 2 and 3 run from the
    residency table), its drop set and its victim record."""
    with engine(name).session("train") as sess:
        plans = [FaultPlan(s, 0).install(sess.executor) for s in SEAMS]
        dicts, seen = [], []
        for i in range(4):
            for plan in plans:
                plan.arm()
            dicts.append(sess.run_iteration(i).to_dict())
            seen.append({p.seam: tuple(p.seen) for p in plans})
        cache = sess.executor.cache
        return dicts, seen, dict(cache.drops), victims(cache)


def victims(cache):
    """A tensor cache's victim record, by tensor id."""
    return [(t.tensor_id, at) for t, at in cache.predicted]


def fail_once(name, seam, k, at=1, reruns=2):
    """Iteration ``at`` raises at seam ``seam``'s ``k``-th call; returns
    the name of that call.  The aborted iteration commits nothing, so
    the ``reruns`` iterations from ``at`` on, run again, are the
    undisturbed ones."""
    expect, _, drops, predicted = twin(name)
    with engine(name).session("train") as sess:
        ex = sess.executor
        plan = FaultPlan(seam, k).install(ex)
        # what recomputation's cleanup sweep holds as each iteration
        # starts (wrapped before the plan links the bound method)
        recompute, swept = ex._recompute_policy, []
        start = recompute.on_iteration_start

        def on_iteration_start(ctx):
            start(ctx)
            swept.append((dict(recompute._due), list(recompute._transient)))
        recompute.on_iteration_start = on_iteration_start
        for i in range(at):
            assert sess.run_iteration(i).to_dict() == expect[i]
        plan.arm()
        with pytest.raises(InjectedFault):
            sess.run_iteration(at)
        assert (ex.cache.drops, victims(ex.cache)) == (drops, predicted)
        for i in range(at, at + reruns):
            assert_quiescent(sess)
            assert sess.run_iteration(i).to_dict() == clockless(expect[i])
        assert_quiescent(sess)
        assert ex.cache.drops == drops
        # a fault in the iteration bracket at or before recomputation's
        # position keeps that iteration from asking it to start, and an
        # iteration run from the residency table asks no policy
        keys = [p.key for p in ex.policies]
        key, _, hook = plan.seen[-1].split(" ")[0].partition(".")
        started = at + 1 + reruns - ex.table_iterations - (
            hook == "on_iteration_start"
            and keys.index(key) <= keys.index("recompute"))
    assert swept == [({}, [])] * started
    return plan.seen[-1]


def kinds(calls):
    return {call.rsplit(" ", 1)[0] for call in calls}


def test_iterations_zero_and_one_issue_every_kind_of_copy():
    """From iteration 0, which starts from the scout's record, the
    recorded victims are cleaned at their producers and the dropped
    ones cross neither way, and on the small net the return trip, which
    reserves only the working sets still to come, brings half the lines
    back before their readers ask; the other half are fetched on
    demand."""
    seen = twin("small")[1]
    for i in (0, 1):
        assert kinds(seen[i]["copy"]) == {"recorded clean", "evict",
                                          "prefetch", "fetch"}
    assert len(twin("small")[2]) == 3
    # resnet50 at 1 GiB: 28 evictions, 11 of them dropped
    assert len(twin("resnet50")[1][1]["evict"]) == 28 - 11
    assert len(twin("resnet50")[2]) == 11


#: seam -> name -> the calls it makes in iterations 0 and 1 of an
#: undisturbed session: the fault points the sweeps below explore.  A
#: change that routes a move around a seam shrinks that set silently;
#: here it fails.  Iteration 0 starts from the scout's record, so it
#: makes iteration 1's calls.
SEAM_CALLS = {
    "alloc": {"resnet50": (816, 816), "small": (165, 165)},
    "backward": {"resnet50": (175, 175), "small": (31, 31)},
    "copy": {"resnet50": (34, 34), "small": (24, 24)},
    "evict": {"resnet50": (17, 17), "small": (14, 14)},
    "forward": {"resnet50": (176, 176), "small": (32, 32)},
    "hook": {"resnet50": (2296, 2296), "small": (422, 422)},
    "rebuild": {"resnet50": (26, 26), "small": (7, 7)},
    "recompute": {"resnet50": (111, 111), "small": (18, 18)},
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_every_seam_makes_the_calls_it_always_made(name):
    seen = twin(name)[1]
    assert {seam: (len(seen[0][seam]), len(seen[1][seam]))
            for seam in SEAMS} == {seam: calls[name]
                                   for seam, calls in SEAM_CALLS.items()}


@pytest.mark.parametrize("kind,at", [
    ("recorded clean", 1), ("evict", 1), ("prefetch", 0), ("fetch", 1)])
def test_the_first_copy_of_each_kind_fails(kind, at):
    calls = twin("small")[1][at]["copy"]
    k = 1 + next(i for i, call in enumerate(calls)
                 if call.startswith(kind + " "))
    assert fail_once("small", "copy", k, at).startswith(kind)


@pytest.mark.parametrize("seam", ["alloc", "copy"])
def test_every_call_of_a_seeded_iteration_zero_fails(seam):
    """Iteration 0 runs on the scout's record: whichever of its
    allocations or copies raises, the session is left at rest with the
    seed intact, and iteration 0 runs again as the undisturbed one.
    Every call, on the small net without payloads — the calls the
    concrete run makes."""
    calls = twin("small-sim")[1][0][seam]
    assert calls == twin("small")[1][0][seam]
    for k in range(1, len(calls) + 1):
        assert fail_once("small-sim", seam, k, at=0, reruns=1) \
            == calls[k - 1]


@settings(max_examples=8, deadline=None)
@given(seam=st.sampled_from(["alloc", "copy"]), data=st.data())
def test_a_seeded_iteration_zero_fails_with_payloads(seam, data):
    calls = twin("small")[1][0][seam]
    k = data.draw(st.integers(1, len(calls)), label="k")
    assert fail_once("small", seam, k, at=0, reruns=1) == calls[k - 1]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_a_rebuild_fails_part_way(name):
    """The conv's own re-run, after its chain has run: the chain's
    outputs are live and the conv's is not."""
    calls = twin(name)[1][1]["rebuild"]
    k = 1 + next(i for i, call in enumerate(calls)
                 if len(set(call.split(" for "))) == 1)
    assert fail_once(name, "rebuild", k) == calls[k - 1]


@settings(max_examples=16, deadline=None)
@given(name=st.sampled_from(sorted(CONFIGS)),
       seam=st.sampled_from(sorted(SEAMS)), data=st.data())
def test_any_failing_call_leaves_the_next_iteration_exact(name, seam, data):
    calls = twin(name)[1][1][seam]
    k = data.draw(st.integers(1, len(calls)), label="k")
    assert fail_once(name, seam, k) == calls[k - 1]


@settings(max_examples=6, deadline=None)
@given(name=st.sampled_from(sorted(CONFIGS)), data=st.data())
def test_a_recomputation_fails_outside_a_rebuild(name, data):
    """A segment's re-run raises part-way: speed-centric members already
    kept (due at a later step's sweep) or a memory-centric chain's
    transients still live; none of it survives into the next
    iteration."""
    calls = twin(name)[1][1]["recompute"]
    k = data.draw(st.integers(1, len(calls)), label="k")
    assert fail_once(name, "recompute", k) == calls[k - 1]


@settings(max_examples=4, deadline=None)
@given(name=st.sampled_from(sorted(CONFIGS)),
       seam=st.sampled_from(["backward", "forward"]), data=st.data())
def test_a_layer_fails_in_forward_or_backward(name, seam, data):
    """The raising step holds its operands pinned, its output allocated
    and its workspace scratch; the concrete net has half-written
    gradients when a backward step raises."""
    calls = twin(name)[1][1][seam]
    k = data.draw(st.integers(1, len(calls)), label="k")
    assert fail_once(name, seam, k) == calls[k - 1]


@settings(max_examples=8, deadline=None)
@given(name=st.sampled_from(sorted(CONFIGS)), data=st.data())
def test_a_policy_hook_fails(name, data):
    """A step-site hook, a tensor hook, an iteration bracket, the
    recomputation trigger or a pressure answer raises before its
    policy has seen the call."""
    calls = twin(name)[1][1]["hook"]
    k = data.draw(st.integers(1, len(calls)), label="k")
    assert fail_once(name, "hook", k) == calls[k - 1]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_the_iteration_end_hook_fails(name):
    """Every step has run when the bracket raises: the barrier still
    frees the iteration, and the tensor cache commits no record."""
    calls = twin(name)[1][1]["hook"]
    assert calls[-1] == "offload.on_iteration_end"
    assert fail_once(name, "hook", len(calls)) == calls[-1]


def test_every_allocation_of_a_table_run_iteration_fails():
    """A roomy session runs iteration 2 from its residency table.  An
    allocation failing there, at any of its calls, drops the table and
    leaves the session at rest; iteration 2 then runs live (recording
    again) and iteration 3 from the new table, both exactly as an
    undisturbed twin's."""
    roomy = Engine(alexnet(batch=32),
                   RuntimeConfig.superneurons(concrete=False))
    with roomy.session("train") as sess:
        plan = FaultPlan("alloc", 0).install(sess.executor)
        expect = [sess.run_iteration(i).to_dict() for i in range(2)]
        plan.arm()
        expect += [sess.run_iteration(i).to_dict() for i in (2, 3)]
        assert sess.executor.table_iterations == 2
    calls = plan.seen[:len(plan.seen) // 2]  # iteration 2's
    assert len(calls) == expect[2]["alloc_calls"] // 2
    for k in range(1, len(calls) + 1):
        with roomy.session("train") as sess:
            ex = sess.executor
            plan = FaultPlan("alloc", k).install(ex)
            for i in (0, 1):
                assert sess.run_iteration(i).to_dict() == expect[i]
            assert ex._table is not None
            plan.arm()
            with pytest.raises(InjectedFault):
                sess.run_iteration(2)
            assert plan.seen[-1] == calls[k - 1]
            assert_quiescent(sess)
            assert ex._table is None and ex.table_iterations == 0
            for i in (2, 3):
                assert sess.run_iteration(i).to_dict() == clockless(expect[i])
            assert_quiescent(sess)
            assert ex.table_iterations == 1


@pytest.mark.parametrize("seam", ["alloc", "copy"])
def test_every_call_of_a_pressured_table_run_fails(seam):
    """Seeded by its scout, the small net's tensor cache is at a fixed
    point from iteration 0, so iteration 1 records and iteration 2 runs
    from the table, making iteration 1's calls.  Whichever of its
    allocations (the exhausted ones included) or copies raises, the
    table goes and the session is left at rest with its seed intact;
    iteration 2 then runs live (recording again) and iteration 3 from
    the new table, both exactly as the undisturbed twin's."""
    expect, seen, drops, predicted = twin("small-sim")
    calls = seen[2][seam]
    assert calls == seen[1][seam]
    for k in range(1, len(calls) + 1):
        with engine("small-sim").session("train") as sess:
            ex = sess.executor
            plan = FaultPlan(seam, k).install(ex)
            for i in (0, 1):
                assert sess.run_iteration(i).to_dict() == expect[i]
            assert ex._table is not None
            plan.arm()
            with pytest.raises(InjectedFault):
                sess.run_iteration(2)
            assert plan.seen[-1] == calls[k - 1]
            assert_quiescent(sess)
            assert ex._table is None and ex.table_iterations == 0
            assert (ex.cache.drops, victims(ex.cache)) == (drops, predicted)
            for i in (2, 3):
                assert sess.run_iteration(i).to_dict() == clockless(expect[i])
            assert_quiescent(sess)
            assert ex.table_iterations == 1


class RaiseAtIterationEnd(MemoryPolicy):
    """Last in the stack: raises once, in ``on_iteration_end``."""

    key = "raise_at_end"
    armed = False

    def on_iteration_end(self, ctx):
        if self.armed:
            self.armed = False
            raise InjectedFault("on_iteration_end")


@pytest.mark.parametrize("rung", ["baseline", "liveness_offload",
                                  "superneurons"])
def test_a_raising_iteration_end_still_meets_the_barrier(rung):
    """The barrier runs whatever the last policy's bracket does: copies
    in flight are retired and every activation goes, so the session is
    at rest and its next iteration is an undisturbed one's."""
    cfg = getattr(RuntimeConfig, rung)(concrete=False)
    with Session(resnet50(batch=32), cfg) as sess:
        expect = [sess.run_iteration(i).to_dict() for i in range(2)]
    policy = RaiseAtIterationEnd()
    with Session(resnet50(batch=32), cfg).with_policy(policy) as sess:
        assert sess.run_iteration(0).to_dict() == expect[0]
        policy.armed = True
        with pytest.raises(InjectedFault, match="on_iteration_end"):
            sess.run_iteration(1)
        assert_quiescent(sess)
        assert sess.run_iteration(1).to_dict() == clockless(expect[1])
        assert_quiescent(sess)


def test_a_fault_in_a_verified_scout_is_not_a_finding(monkeypatch):
    """The plan verifier judges refusals, not faults: a layer raising in
    the scout propagates as itself and the mode stays uncompiled."""
    build = repro.core.engine.Executor

    def faulty(*args):
        ex = build(*args)
        FaultPlan("forward", 3).install(ex).arm()
        return ex
    eng = Engine(lenet(batch=8), RuntimeConfig.superneurons(concrete=False),
                 verify=True)
    monkeypatch.setattr(repro.core.engine, "Executor", faulty)
    with pytest.raises(InjectedFault, match="forward #3"):
        eng.compiled("train")
    assert eng.compiled_modes == ()
    monkeypatch.undo()
    eng.compiled("train")
    assert eng.compiled_modes == ("train",)
