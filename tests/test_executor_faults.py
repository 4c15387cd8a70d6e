"""Executor faults under pressure: after a DMA or an eviction fails, the
next iteration is the one an undisturbed session runs.

The pressured path holds the most in-flight state when it raises: pinned
tensors, cleaning lines (recorded and write-behind), a half-walked LRU
tail, return-trip entries, fabric stashes and a half-recorded victim
list.  A :class:`~tests.faults.FaultPlan` makes one seam raise at the
*k*-th call of iteration 1, with *k* drawn by ``hypothesis`` over every
call that iteration makes.  After the raise the session is quiescent,
and iteration 2's ``to_dict()`` equals an undisturbed twin's.  The
aborted iteration's victims are never committed, so iteration 2 cleans
iteration 0's.  Write-behind runs only in an iteration with no victim
record, so its copy is failed in iteration 0; the iteration after that
is a first iteration again.

Two configurations: a one-unit-per-stage resnet at the smallest capacity
it runs in, where iteration 1 issues every kind of copy, and the
ledger's ``train_pressured`` (resnet50 b32 at 1 GiB), where every
eviction is clean and no ``evict`` copy is made.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine, RuntimeConfig
from repro.zoo import resnet50
from repro.zoo.resnet import resnet_from_units

from tests.faults import FaultPlan, InjectedFault, assert_quiescent, clockless
from tests.test_clean_lines import SMALLEST

CONFIGS = {
    "small": lambda: (
        resnet_from_units((1, 1, 0, 0), batch=4, image=32, num_classes=10),
        SMALLEST),
    "resnet50": lambda: (resnet50(batch=32), 1 << 30),
}


@functools.lru_cache(maxsize=None)
def engine(name):
    net, capacity = CONFIGS[name]()
    return Engine(net, RuntimeConfig.superneurons(
        concrete=False, gpu_capacity=capacity))


@functools.lru_cache(maxsize=None)
def twin(name):
    """An undisturbed session's four iterations, and the calls each seam
    makes in iterations 0 and 1: ``seen[i][seam]``."""
    with engine(name).session("train") as sess:
        plans = [FaultPlan(s, 0).install(sess.executor)
                 for s in ("copy", "evict")]
        dicts, seen = [], []
        for i in range(4):
            for plan in plans:
                plan.arm()
            dicts.append(sess.run_iteration(i).to_dict())
            seen.append({p.seam: tuple(p.seen) for p in plans})
    return dicts, seen[:2]


def fail_once(name, seam, k, at=1):
    """Iteration ``at`` raises at seam ``seam``'s ``k``-th call; returns
    the name of that call.  The aborted iteration commits nothing, so the
    two iterations after it are the undisturbed ``at`` and ``at + 1``,
    one index on."""
    expect, _ = twin(name)
    with engine(name).session("train") as sess:
        plan = FaultPlan(seam, k).install(sess.executor)
        for i in range(at):
            assert sess.run_iteration(i).to_dict() == expect[i]
        plan.arm()
        with pytest.raises(InjectedFault):
            sess.run_iteration(at)
        for i in (at, at + 1):
            assert_quiescent(sess)
            again = sess.run_iteration(i + 1).to_dict()
            assert again == clockless({**expect[i], "iteration": i + 1})
        assert_quiescent(sess)
    return plan.seen[-1]


def kinds(calls):
    return {call.rsplit(" ", 1)[0] for call in calls}


def test_iterations_zero_and_one_issue_every_kind_of_copy():
    """Write-behind cleans only while the cache has no victim record:
    in iteration 0."""
    seen = twin("small")[1]
    assert kinds(seen[0]["copy"]) == {"write-behind clean", "evict",
                                      "prefetch", "fetch"}
    assert kinds(seen[1]["copy"]) == {"recorded clean", "evict",
                                      "prefetch", "fetch"}
    assert len(twin("resnet50")[1][1]["evict"]) == 28


@pytest.mark.parametrize("kind,at", [
    ("recorded clean", 1), ("write-behind clean", 0), ("evict", 1),
    ("prefetch", 1)])
def test_the_first_copy_of_each_kind_fails(kind, at):
    calls = twin("small")[1][at]["copy"]
    k = 1 + next(i for i, call in enumerate(calls)
                 if call.startswith(kind + " "))
    assert fail_once("small", "copy", k, at).startswith(kind)


@settings(max_examples=12, deadline=None)
@given(name=st.sampled_from(sorted(CONFIGS)), seam=st.sampled_from(
    ["copy", "evict"]), data=st.data())
def test_any_failing_call_leaves_the_next_iteration_exact(name, seam, data):
    calls = twin(name)[1][1][seam]
    k = data.draw(st.integers(1, len(calls)), label="k")
    assert fail_once(name, seam, k) == calls[k - 1]
