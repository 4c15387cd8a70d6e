"""Overlap under pressure, pinned across capacities (DESIGN.md "Clean and
dirty lines", "Recorded victims", "Dropped victims", "Return trip").

Recorded victims, write-behind cleaning and the just-in-time return trip
hide the tensor cache's DMA under compute; they may move *when* bytes
cross PCIe, never how many come back, how high the peak goes, or what a
roomy run does.  Dropped victims cross PCIe neither way and are rebuilt
instead; they may move how many bytes cross and how many lines go out,
never the peak past the capacity, never the first iteration, and never
a point of the sweep slower.  Pinned here: simulated img/s at least
on-demand eviction's (every copy exposed) at four pressured capacities,
peaks and eviction counts as measured, the mechanisms' tables empty
after every iteration, and the whole 5 x 5 capacity sweep of
EXPERIMENTS.md against the three cache-mode twins in
``tests/reference_policies.py``: the return trip planned at the turn
only, write-behind only, and recorded victims copied every one (the
last two on the turn-only trip too).
"""

from collections import Counter

import pytest

from repro import Engine, RuntimeConfig, Session
from repro.check.cost_model import fold
from repro.core.config import RecomputeStrategy
from repro.core.plan import head_room
from repro.core.policy import resolve_policies
from repro.device.gpu import OutOfMemoryError
from repro.zoo import NETWORK_BUILDERS, inception_v4, resnet50

from tests.conftest import compiled_executor, hand_stacked_executor
from tests.reference_policies import (
    copy_every_victim_stack, turn_only_stack, write_behind_stack)
from tests.faults import assert_quiescent, clockless
from tests.test_clean_lines import abort_then_recover

GiB = 1 << 30
MiB = 1 << 20

#: (net, GiB) -> (on-demand simulated img/s, peak bytes, evictions, of
#: them dropped) in iteration 1; b32, full stack.  img/s is on-demand
#: eviction and fetch's, every copy exposed; peak is on-demand's too,
#: bit for bit, except at 0.75 GiB (783,132,832 B with 44 evictions,
#: none dropped), where dropping lowers it.
SWEEP = {
    ("resnet50", 0.75): (34.963, 766_091_424, 49, 15),
    ("resnet50", 1.0): (39.435, 1_048_305_824, 28, 11),
    ("resnet50", 2.0): (58.510, 2_134_253_728, 7, 0),
    ("inception_v4", 1.0): (20.494, 1_042_176_032, 85, 4),
}
NETS = {"resnet50": resnet50, "inception_v4": inception_v4}
BATCH = 32


def pressured(net="resnet50", gib=1.0, **kw):
    cfg = RuntimeConfig.superneurons(
        concrete=False, gpu_capacity=int(gib * GiB), **kw)
    return NETS[net](batch=BATCH), cfg


@pytest.mark.parametrize("net,gib", list(SWEEP),
                         ids=[f"{n}@{g}GiB" for n, g in SWEEP])
def test_no_capacity_is_slower_than_on_demand(net, gib):
    parent_ips, peak, evictions, dropped = SWEEP[net, gib]
    with Engine(*pressured(net, gib)).session("train") as sess:
        for i in range(2):
            res = sess.run_iteration(i)
            assert_quiescent(sess)
    assert BATCH / res.sim_time > parent_ips
    assert res.peak_bytes == peak
    assert (res.cache_evictions, res.cache_dropped) == (evictions, dropped)
    # most evictions find their recorded victim's copy started, or copy
    # nothing at all
    assert res.cache_clean_evictions + dropped >= evictions - 8


def test_train_pressured_claim():
    """The ledger workload's figures: what moved and what must not.
    Iteration 0 starts from the scout's record, so it is iteration 1:
    56.05 img/s, 1,534,902,272 B back and 26 fewer extra forwards while
    it had no record."""
    for res in sweep_iterations("resnet50", 1.0)[:2]:
        # 39.435 before the overlap, 60.065 without drops, 69.213 with
        # them before the return trip planned again after later
        # evictions and rebuilt convs got a workspace, 70.282 while
        # every copy back reserved l_peak
        assert BATCH / res.sim_time >= 70.7
        # 0.1056 without drops, 0.0104 at the l_peak reserve
        assert res.stall_seconds <= 0.0077
        # every eviction finds its recorded victim's copy started, or
        # is one of the 11 dropped conv outputs, which copy nothing
        assert res.cache_clean_evictions + res.cache_dropped \
            == res.cache_evictions == 28
        assert res.cache_dropped == 11
        # the dropped victims' 640.9 MiB cross neither way; each is
        # rebuilt with its chain instead
        assert res.d2h_bytes == res.h2d_bytes == 862_912_512
        assert res.extra_forwards == 137
        assert (res.peak_bytes, res.cache_evictions) == (1_048_305_824, 28)


def rebuild_picks(sess, res):
    """Iteration ``res``'s workspace picks for the dropped victims'
    re-runs: each dropped conv's second forward pick."""
    ex = sess.executor
    convs = {l.name for l in ex.net.layers
             if l.output is not None and l.output.tensor_id in ex.cache.drops}
    seen, picks = set(), []
    for w in res.workspace_choices:
        if w.layer_name in convs and w.phase == "forward":
            if w.layer_name in seen:
                picks.append(w)
            seen.add(w.layer_name)
    return picks


def test_a_rebuilt_conv_runs_at_a_workspace_algorithm():
    """A dropped victim's conv re-runs at the algorithm the workspace
    selector picks for the bytes free below the iteration's high-water
    mark: logged with the steps' picks, never at a higher peak."""
    with Engine(*pressured()).session("train") as sess:
        first = sess.run_iteration(0)
        res = sess.run_iteration(1)
        picks = rebuild_picks(sess, res)
        assert len(rebuild_picks(sess, first)) == 11
    assert len(picks) == res.cache_dropped == 11
    assert len(res.workspace_choices) == len(first.workspace_choices)
    assert all(w.algo.workspace_bytes > 0 for w in picks)
    assert all(w.assigned_ws <= w.budget_bytes for w in picks)
    assert res.peak_bytes == first.peak_bytes


def test_a_rebuild_whose_scratch_is_refused_runs_at_zero_workspace():
    """The fragmentation fallback of a workspace op, for a rebuild: the
    log keeps the pick's max-speed algorithm and records the one that
    ran."""
    with Engine(*pressured()).session("train") as sess:
        sess.run_iteration(0)
        allocator = sess.executor.allocator
        alloc = allocator.alloc

        def no_scratch(nbytes, tag=""):
            if tag.startswith("ws:"):
                raise OutOfMemoryError(nbytes, 0, 0)
            return alloc(nbytes, tag)
        allocator.alloc = no_scratch
        res = sess.run_iteration(1)
        picks = rebuild_picks(sess, res)
    assert len(picks) == 11
    assert {w.algo.name for w in picks} == {"implicit_gemm"}
    assert all(w.max_speed_ws > 0 for w in picks)


def test_the_ledger_equality_check_holds_under_the_record():
    """The ledger's in-command gate at ``train_pressured``: an engine
    lane, a standalone session and a session that re-links before every
    iteration report the same iterations.  Each starts from its
    engine's scout — the standalone ones from a private engine's — with
    the victims, the drop set and the deadlines the scout chose, and the
    recorded-clean op is linked before iteration 0, so the three agree
    from the first iteration on."""
    lane, live = (
        [r.to_dict() for r in sweep_iterations("resnet50", 1.0, **kw)]
        for kw in ({}, {"steady_state_replay": False}))
    with Session(*pressured()) as sess:
        solo = [sess.run_iteration(i).to_dict() for i in range(3)]
    assert lane == solo == live
    for d in lane:
        cache = d["cache"]
        assert cache["clean_evictions"] + cache["dropped"] \
            == cache["evictions"] == 28
        assert d["stall_seconds"] <= 0.0135
        assert d["d2h_bytes"] <= 823 * MiB


def test_a_roomy_run_never_cleans_and_never_comes_back():
    net, cfg = pressured(gib=12)
    with Engine(net, cfg).session("train") as sess:
        ex = sess.executor
        ex._clean_async = lambda t, after=None: pytest.fail(
            f"cleaned {t.name}")
        for i in range(2):
            res = sess.run_iteration(i)
            assert res.d2h_bytes == res.h2d_bytes == 0
            assert res.stall_seconds == 0
            assert_quiescent(ex)


def test_engine_lane_equals_standalone_session_from_iteration_zero():
    """A lane of a compiled engine and a standalone session each link
    their own plan at iteration 0 and reuse it from iteration 1 — the
    first to drop victims — on: the same return trip, the same
    iterations."""
    with Engine(*pressured()).session("train") as lane:
        shared = [lane.run_iteration(i).to_dict() for i in range(3)]
        assert lane.executor.replayed_iterations == 2
    with Session(*pressured()) as solo:
        own = [solo.run_iteration(i).to_dict() for i in range(3)]
        assert solo.executor.replayed_iterations == 2
    assert shared == own
    assert shared[0]["cache"]["evictions"] == 28


def test_an_aborted_return_trip_leaves_no_queue_behind():
    """Mid-backward at 1 GiB: copies are due, lines are being cleaned.
    The abort empties the queue, so the next iteration's turn starts
    from an empty one."""
    abort_then_recover(lambda: Session(*pressured()), at_step=280,
                       stranded=lambda ex: len(ex._due_back) > 0)


#: the 5 x 5 capacity sweep (EXPERIMENTS.md): net -> batch, by capacity
SWEEP_NETS = {"resnet50": 32, "resnet101": 32, "resnet152": 32,
              "inception_v4": 32, "alexnet": 128}
SWEEP_GIB = (0.75, 1.0, 1.5, 2.0, 12)
#: the two points that run out of memory under either cache mode
SWEEP_OOM = {("inception_v4", 0.75), ("alexnet", 0.75)}


#: the sweep's points that run
SWEEP_RUNS = [(n, g) for n in SWEEP_NETS for g in SWEEP_GIB
              if (n, g) not in SWEEP_OOM]

#: the config override of the lane that never replays
LIVE = (("steady_state_replay", False),)
#: (net, GiB, config overrides) -> how many tests read the shipped
#: stack's three iterations there: both twin tests at every point that
#: runs, and on top the claims read off the ledger's and CI's points;
#: the write-behind twin test reads the never-replaying lane too
READS = Counter({(n, g, ()): 2 for n, g in SWEEP_RUNS})
READS.update({(n, g, LIVE): 1 for n, g in SWEEP_RUNS})
READS["resnet50", 1.0, ()] += 2
READS["resnet50", 1.0, LIVE] += 1
READS["resnet50", 2.0, ()] += 1
READS["resnet50", 12, ()] += 1

#: the shipped runs read by more than one test, with the reads left
_KEPT = {}
#: (net, GiB) -> the iterations of the shipped run there that ran from
#: the residency table
TABLED = {}
#: the points where the scout's victims, recorded with no drop set,
#: are not the ones the seeded iteration 0 evicts: its tensor cache
#: reaches its fixed point one iteration later, so iteration 2 records
#: and the sweep's three iterations all run live.  Everywhere else
#: iteration 1 records (calm at 12 GiB and alexnet from 1.5 GiB; at a
#: fixed point from iteration 0 under pressure) and iteration 2 runs
#: from the table.
SETTLES_LATE = {("resnet50", 0.75), ("resnet101", 0.75), ("resnet101", 1.0),
                ("resnet152", 0.75), ("resnet152", 1.0),
                ("inception_v4", 1.0)}


def sweep_iterations(net, gib, stack_of=resolve_policies, iters=3, **kw):
    """The iterations of one sweep point under one stack, a pure
    function of the arguments.  The shipped stack runs as an engine
    lane, from its scout's record; a twin runs hand-stacked, from none.
    A shipped run that tests read (:data:`READS`) is kept until its
    last reader takes it (kept any longer, every later cycle collection
    of the session would walk it); the never-replaying lane is run
    with it, from the same compiled mode."""
    key = (net, gib, tuple(sorted(kw.items())))
    shipped = stack_of is resolve_policies
    if shipped and iters == 3 and key in _KEPT:
        runs, left = _KEPT.pop(key)
        if left > 1:
            _KEPT[key] = runs, left - 1
        return runs
    cfg = RuntimeConfig.superneurons(concrete=False,
                                     gpu_capacity=int(gib * GiB), **kw)
    mk = NETWORK_BUILDERS[net](batch=SWEEP_NETS[net])
    if shipped:
        with Engine(mk, cfg).session("train") as sess:
            runs = tuple(sess.run_iteration(i) for i in range(iters))
            if not kw and iters == 3:
                TABLED[net, gib] = sess.executor.table_iterations
        live = (net, gib, LIVE)
        if not kw and iters == 3 and READS[live]:
            with compiled_executor(sess.engine,
                                   steady_state_replay=False) as ex:
                _KEPT[live] = (tuple(ex.run_iteration(i)
                                     for i in range(iters)), READS[live])
    else:
        with hand_stacked_executor(mk, cfg,
                                   stack_of(cfg.for_mode("train"))) as ex:
            runs = tuple(ex.run_iteration(i) for i in range(iters))
    if shipped and iters == 3 and READS[key] > 1:
        _KEPT[key] = runs, READS[key] - 1
    return runs


@pytest.mark.parametrize("net,gib", [(n, g) for n in SWEEP_NETS
                                     for g in SWEEP_GIB],
                         ids=[f"{n}@{g}GiB" for n in SWEEP_NETS
                              for g in SWEEP_GIB])
def test_recorded_victims_against_the_write_behind_twin(net, gib):
    """Cleaning the last iteration's victims at their producers moves no
    eviction, no peak byte and no H2D byte; it adds no D2H byte and
    costs no time, on every iteration.  Dropping the victims whose
    rebuild is cheaper than their exposed copies adds no D2H byte and
    costs no time either; the peak stays within the capacity, and a
    session that never replays runs the same iterations, iteration 2
    run from the residency table included.  The twins
    start with no record; the shipped stack starts from its scout's, so
    its iteration 0 is its iteration 1."""
    stacks = (resolve_policies, copy_every_victim_stack, write_behind_stack)
    if (net, gib) in SWEEP_OOM:
        for stack_of in stacks:
            with pytest.raises(OutOfMemoryError):
                sweep_iterations(net, gib, stack_of, iters=1)
        return
    shipped = sweep_iterations(net, gib)
    recorded, twin = (sweep_iterations(net, gib, stack_of, iters=2)
                      for stack_of in stacks[1:])
    for new, old in zip(recorded, twin):
        assert (new.cache_evictions, new.peak_bytes, new.h2d_bytes) == \
            (old.cache_evictions, old.peak_bytes, old.h2d_bytes)
        assert new.d2h_bytes <= old.d2h_bytes
        assert new.sim_time <= old.sim_time
    for new, old in zip(shipped, recorded):
        assert new.peak_bytes <= int(gib * GiB)
        assert new.d2h_bytes <= old.d2h_bytes
        assert new.sim_time <= old.sim_time
    # the twins' iteration 0 has no record: the two are the same there
    assert recorded[0].to_dict() == twin[0].to_dict()
    assert dict(shipped[0].to_dict(), iteration=1) \
        == clockless(shipped[1].to_dict())
    live = sweep_iterations(net, gib, steady_state_replay=False)
    assert [r.to_dict() for r in live] == [r.to_dict() for r in shipped]
    assert TABLED[net, gib] == (0 if (net, gib) in SETTLES_LATE else 1)


@pytest.mark.parametrize("net,gib", SWEEP_RUNS,
                         ids=[f"{n}@{g}GiB" for n, g in SWEEP_RUNS])
def test_every_eviction_against_the_turn_only_twin(net, gib):
    """Planning the return trip again after each later eviction moves
    no byte of peak; from iteration 1 it adds no eviction and no H2D
    byte and costs no time.  (The drop choice reads the trip of the
    scout's iteration, which plans it at the turn only.)"""
    assert_no_worse_than_the_turn_only_twin(net, gib)


def test_the_turn_only_twin_with_no_drop_set():
    """Recomputation off: nothing is dropped, so every eviction after
    the turn is a line the trip can bring back; at 1 GiB none of them
    makes pressure take one back again."""
    assert_no_worse_than_the_turn_only_twin(
        "resnet50", 1.0, recompute=RecomputeStrategy.NONE)


def assert_no_worse_than_the_turn_only_twin(net, gib, **kw):
    shipped = sweep_iterations(net, gib, **kw)
    twin = sweep_iterations(net, gib, turn_only_stack, **kw)
    # the twin's iteration 0 has no record, and the shipped stack's
    # starts from its scout's: it may drop, and evict to rebuild
    new, old = shipped[0], twin[0]
    assert new.peak_bytes <= old.peak_bytes
    assert new.sim_time <= old.sim_time
    for new, old in zip(shipped[1:], twin[1:]):
        assert new.peak_bytes == old.peak_bytes
        assert new.cache_evictions <= old.cache_evictions
        assert new.h2d_bytes <= old.h2d_bytes
        assert new.sim_time <= old.sim_time


def test_resnet50_at_2gib_trains_at_the_roomy_speed():
    """At 2 GiB every line evicted in iteration 1 comes back on the
    return trip before its reader: no stall is left (25.1 ms of
    on-demand fetches when the turn was the only plan)."""
    roomy = sweep_iterations("resnet50", 12)[1]
    res = sweep_iterations("resnet50", 2.0)[1]
    assert res.cache_evictions == 7
    assert res.stall_seconds == 0
    assert BATCH / res.sim_time >= 75.6
    assert res.sim_time == pytest.approx(roomy.sim_time, rel=1e-4)


def test_the_copy_reserve_is_never_above_l_peak():
    """The return trip's per-copy reserve over every zoo net's train
    route: for each drain step ``i``, line and reader ``u``, the largest
    working set still to come with the line's own counted in its
    reader's, ``max(l_j for i < j != u, l_u - nbytes)``, looked up in
    :func:`head_room` as the drain does — and never above ``l_peak``.
    The table is checked against its definition first, and at the turn
    every lookup against the rule written term by term; past a reader
    that did not read it, a line is held to the rule at that reader."""
    for name in sorted(NETWORK_BUILDERS):
        with Engine(NETWORK_BUILDERS[name](batch=8),
                    RuntimeConfig.superneurons(concrete=False)
                    ).executor() as ex:
            trip = ex._offload_policy.compile_plan(ex._ctx)
            steps, l_peak = ex.route.steps, ex.net.max_layer_bytes()
            turn = ex.route.num_layers - 1
        sizes, top, only, rest = head_room([s.layer for s in steps])
        for s in range(turn + 1, len(steps)):
            after = sizes[s:]
            assert top[s] == max(after)
            if after.count(top[s]) > 1:
                assert only[s] == -1 and rest[s] == top[s]
            else:
                assert sizes[only[s]] == top[s]
                assert rest[s] == max(after[:only[s] - s]
                                      + after[only[s] - s + 1:], default=0)

        def reserve(s, u, nbytes):
            """The drain's lookup as step ``s - 1`` settles."""
            if u < s:
                return max(top[u + 1], sizes[u] - nbytes)
            if only[s] == u:
                return max(rest[s], sizes[u] - nbytes)
            return top[s]

        drains = range(turn + 1, len(steps) + 1)
        for u, nbytes in {(u, t.nbytes) for _, t in trip.return_trip
                          for u in trip.readers[t.tensor_id]}:
            assert max(reserve(s, u, nbytes) for s in drains) <= l_peak
            # at the turn, the rule as written, term by term
            assert reserve(turn + 1, u, nbytes) == max(
                max(sizes[turn + 1:u], default=0), sizes[u] - nbytes,
                max(sizes[u + 1:], default=0))


def test_the_cost_recorder_reads_a_steady_iteration():
    """A costed lane tables like any other: iterations 0 and 1 of a
    seeded pressured lane are recorded and folded, iteration 2 runs from
    the table iteration 1's move log became, and that log folds to
    iteration 1's prediction — which is iteration 2's, run from it.
    Recording changes none of them: iterations 0-2 equal an unrecorded
    lane's.  A dropped victim's rebuild is a record of its own, priced
    at the algorithm its workspace pick ran.  Iteration 1's stall, by
    copy kind, is the per-copy reserve's: 5.36 ms of late prefetches
    (8.09 ms at the l_peak reserve) and 2.33 ms of forward clean
    waits."""
    engine = Engine(*pressured())
    engine.compiled("train")
    with engine.executor() as ex:
        unrecorded = [ex.run_iteration(i).to_dict() for i in range(3)]
    with engine.executor() as ex:
        logs = [ex._run_recorded(i) for i in range(2)]
        preds = [fold(ex, log) for log in logs]
        res = ex.run_iteration(2)
        assert ex.table_iterations == 1 and ex._table.log is logs[1]
        assert fold(ex, ex._table.log) == preds[1]
        assert [log.result.to_dict() for log in logs] + [res.to_dict()] \
            == unrecorded
        model, layers = ex.model, {l.name: l for l in ex.net.layers}
    # (the clock moves, so durations differ in the last bits)
    assert (preds[1].sim_time, preds[1].stall_seconds) \
        == pytest.approx((res.sim_time, res.stall_seconds), rel=1e-12)
    # iteration 0 starts from the scout's record: it is iteration 1
    by_kind = preds[1].stall_seconds_by_kind
    assert preds[0].stall_seconds_by_kind == pytest.approx(by_kind)
    assert [len(p.steps) for p in preds] == [len(ex.route.steps)] * 2
    assert (len(preds[0].stalls), len(preds[0].recomputes),
            len(preds[0].prefetches)) == (len(preds[1].stalls),
                                          len(preds[1].recomputes),
                                          len(preds[1].prefetches))
    assert sum(by_kind.values()) == pytest.approx(preds[1].stall_seconds)
    assert by_kind["prefetch"] == pytest.approx(5.359e-3, abs=1e-6)
    assert by_kind["clean"] == pytest.approx(2.329e-3, abs=1e-6)
    assert by_kind["fetch"] == by_kind["evict"] == by_kind["reap"] == 0
    dropped = [r for r in preds[1].recomputes if r.strategy == "dropped"]
    assert len(dropped) == res.cache_dropped == 11
    # a conv rebuilt with no chain: its record is its kernel at its pick
    picks = {w.layer_name: w.algo for w in res.workspace_choices
             if w.layer_name in {r.anchor for r in dropped}}
    alone = [r for r in dropped if r.members == 1]
    assert alone
    for r in alone:
        conv = layers[r.anchor]
        assert r.rebuild_seconds == conv.sim_time_forward(model,
                                                          picks[r.anchor])
        assert r.rebuild_seconds != conv.sim_time_forward(model)
