"""Steady-state iteration replay: equivalence, determinism, and the
per-run accumulator regressions (ISSUE 2).

The contract under test: after the first iteration of a fixed topology
the executor replays a compiled :class:`~repro.core.plan.IterationPlan`
instead of dispatching policy hooks — and the replayed iterations are
**bit-identical** to the fresh planning path in every observable
(``tests/test_equivalence_matrix.py::test_replay``).  Here: links,
dispatch, the residency table's off switches and recorded allocator
answers, and the state-hygiene fixes that only matter in exactly this
long-running regime: per-iteration accumulators must not grow without
bound across ``run_iteration`` calls on one executor.
"""

import dataclasses
import functools

import pytest

import repro.core.runtime as runtime
from repro import Engine, RuntimeConfig, SGD, Session, Trainer
from repro.check.cost_model import fold
from repro.core.plan import COPY, PolicyPlan
from repro.core.policy import MemoryPolicy
from repro.mempool import Allocator, HeapPool
from repro.zoo import NETWORK_BUILDERS, alexnet, lenet, resnet50
from repro.zoo.resnet import resnet_from_units
from tests.faults import FaultPlan, InjectedFault, assert_quiescent
from tests.test_clean_lines import SMALLEST, small_resnet

ITERS = 5

# the PR-1 ablation ladder plus the eager-offload full stack
ABLATION = {
    "baseline": RuntimeConfig.baseline,
    "liveness": RuntimeConfig.liveness_only,
    "liveness+utp": RuntimeConfig.liveness_offload,
    "superneurons": RuntimeConfig.superneurons,
    "superneurons-eager":
        lambda **kw: RuntimeConfig.superneurons(use_tensor_cache=False, **kw),
}


def run_dicts(mk_net, config, iters=ITERS, lr=0.05):
    with Session(mk_net(), config).executor as ex:
        opt = SGD(lr=lr)
        out = [ex.run_iteration(i, optimizer=opt).to_dict()
               for i in range(iters)]
        replayed = ex.replayed_iterations
    return out, replayed


class TestReplayEquivalence:
    """Where the residency table must not run, and what custom policies
    see (replay == fresh is ``test_equivalence_matrix::test_replay``)."""

    def test_a_shrunk_device_drops_the_table(self):
        """The table runs only from the allocator state it was recorded
        at: shrink the device under a cudaMalloc-allocated session after
        iteration 2 ran from the table, and iteration 3 evicts, live,
        exactly as a session that never replays does."""
        def run(replay):
            cfg = RuntimeConfig.superneurons(
                concrete=False, use_pool_allocator=False,
                steady_state_replay=replay)
            with Session(alexnet(batch=32), cfg) as sess:
                ex = sess.executor
                res = sess.run(iters=3)[-1]
                ex.gpu.capacity = res.param_bytes \
                    + int(0.7 * res.activation_peak_bytes)
                out = [sess.run_iteration(i).to_dict() for i in (3, 4)]
                return out, ex.table_iterations

        (replay, tabled), (fresh, _) = run(True), run(False)
        assert replay == fresh and tabled == 1
        assert replay[0]["cache"]["evictions"] > 0

    @pytest.mark.parametrize("case", [
        "pressured", "concrete", "custom policy"])
    def test_the_table_stays_off(self, case):
        """A concrete session and a stack with a custom policy run every
        iteration live.  A pressured session starts from its scout's
        record, so its tensor cache is at a fixed point from iteration
        0: iteration 1 records and every later one runs from the
        table."""
        if case == "pressured":
            session = Session(resnet50(batch=32), RuntimeConfig.superneurons(
                concrete=False, gpu_capacity=1 << 30))
        else:
            session = Session(lenet(batch=8), RuntimeConfig.superneurons(
                concrete=case == "concrete"))
        if case == "custom policy":
            session = session.with_policy(type(
                "Idle", (MemoryPolicy,), {"key": "idle"})())
        with session:
            ex = session.executor
            session.run(iters=ITERS)
            assert ex.replayed_iterations == ITERS - 1
            assert ex.table_iterations == (
                ITERS - 2 if case == "pressured" else 0)

    def test_a_costed_executor_tables(self):
        """Costing an iteration records its moves into the log a table
        is built from, so a costed session tables like any other: its
        costed iteration 1 becomes the table, the later iterations run
        from it, and the table folds to iteration 1's prediction with no
        run of its own.  (The session clock moves, so durations differ
        in the last bits.)"""
        with Session(lenet(batch=8),
                     RuntimeConfig.superneurons(concrete=False)) as session:
            ex = session.executor
            costed = [fold(ex, ex._run_recorded(i)) for i in range(2)]
            for i in range(2, ITERS):
                assert ex.run_iteration(i).sim_time \
                    == pytest.approx(costed[1].sim_time, rel=1e-12)
            assert ex.table_iterations == ITERS - 2
            assert fold(ex, ex._table.log) == costed[1]

    def test_custom_dynamic_policy_keeps_full_dispatch(self):
        """A policy that does not opt into plan stability must observe
        the identical hook stream on fresh and replayed iterations."""

        class Probe(MemoryPolicy):
            key = "probe"

            def __init__(self):
                self.per_iteration = []
                self._log = None

            def on_iteration_start(self, ctx):
                self._log = []

            def before_step(self, ctx, step):
                self._log.append(("b", step.index))

            def after_step(self, ctx, step):
                self._log.append(("a", step.index))

            def on_step_settled(self, ctx, step):
                self._log.append(("s", step.index))

            def on_tensor_dead(self, ctx, t):
                self._log.append(("dead", t.name))

            def on_iteration_end(self, ctx):
                self.per_iteration.append(self._log)

        probe = Probe()
        with Session(lenet(batch=2, image=12),
                     RuntimeConfig.superneurons()) \
                .with_policy(probe) as sess:
            for i in range(3):
                sess.run_iteration(i, optimizer=SGD(0.05))
            assert sess.executor.replayed_iterations == 2
        # replayed iterations show the probe the same stream the
        # recording iteration did
        assert probe.per_iteration[1] == probe.per_iteration[0]
        assert probe.per_iteration[2] == probe.per_iteration[0]

    def test_custom_policy_with_a_plan_receives_every_hook_it_overrides(
            self):
        """The one dispatch rule from a custom policy's side:
        ``compile_plan`` is asked once per link — once in a replaying
        executor's life, before every iteration of one that never
        replays — and a ``PolicyPlan`` answer only adds ops.  Every hook
        the policy overrides still fires from iteration 0, in its stack
        position, after its plan's ops at the same site."""
        log, asked = [], []
        plan_of_observer = PolicyPlan(reap_before_step=True)

        class Observer(MemoryPolicy):
            key = "observer"

            def compile_plan(self, ctx):
                asked.append(ctx.iteration)
                return plan_of_observer

            def on_iteration_start(self, ctx):
                log.append([])

            def before_step(self, ctx, step):
                log[-1].append(("before", step.index))

            def on_step_settled(self, ctx, step):
                log[-1].append(("settled", step.index))

            def on_tensor_resident(self, ctx, t, source):
                log[-1].append(("resident", t.name))

            def on_tensor_dead(self, ctx, t):
                log[-1].append(("dead", self.key, t.name))

        class Trailing(MemoryPolicy):
            key = "trailing"

            def on_tensor_dead(self, ctx, t):
                log[-1].append(("dead", self.key, t.name))

        for replay, links in ((True, 1), (False, 3)):
            del log[:], asked[:]
            cfg = RuntimeConfig.superneurons(steady_state_replay=replay)
            with Session(lenet(batch=2, image=12), cfg) \
                    .with_policy(Observer()).with_policy(Trailing()) \
                    as sess:
                for i in range(3):
                    sess.run_iteration(i, optimizer=SGD(0.05))
                ex = sess.executor
                plan = ex.iteration_plan
            assert len(asked) == links
            assert plan.plans["observer"] is plan_of_observer
            assert plan.plans["trailing"] == PolicyPlan()
            observer = ex.policies[-2]
            for cs in plan.steps:
                # the plan's reap op, then the observer's own hook
                assert cs.before_ops[-1] == observer.before_step
                assert not hasattr(cs.before_ops[-2], "__self__")
                assert cs.settled_ops[-1] == observer.on_step_settled
            steps = [e for e in log[0] if e[0] in ("before", "settled")]
            assert steps == [(site, cs.step.index) for cs in plan.steps
                             for site in ("before", "settled")]
            assert any(e[0] == "resident" for e in log[0])
            deaths = [e for e in log[0] if e[0] == "dead"]
            assert deaths
            # each death reaches the observer first, then the policy
            # stacked behind it
            assert deaths[0::2] == [("dead", "observer", name)
                                    for _, _, name in deaths[1::2]]
            assert deaths[1::2] == [("dead", "trailing", name)
                                    for _, _, name in deaths[0::2]]
            assert log == [log[0]] * 3  # the same stream every iteration

    def test_plan_reports_stable_policies(self):
        with Session(lenet(batch=2, image=12),
                     RuntimeConfig.superneurons()).executor as ex:
            assert ex.iteration_plan is None
            ex.run_iteration(0)
            ex.run_iteration(1)
            plan = ex.iteration_plan
            assert plan is not None
            assert set(plan.plans) == \
                {"offload", "liveness", "recompute", "workspace"}
            # recomputation answers the empty plan: its work is its hooks
            assert plan.plans["recompute"] == PolicyPlan()
            assert len(plan.steps) == len(ex.route.steps)


#: hook -> the policy methods it dispatches, in stack order
_BRACKETS = {
    "on_iteration_start": ("workspace",),
}
_OFFLOAD = {
    "on_iteration_start": ("offload", "workspace"),
    "on_iteration_end": ("offload",),
    "on_tensor_access": ("offload",),
    "on_tensor_dead": ("offload",),
    "on_tensor_released": ("offload",),
    "on_tensor_resident": ("offload",),
}
_SUPERNEURONS = {
    **_OFFLOAD,
    "on_iteration_start": ("offload", "recompute", "workspace"),
    "on_backward_need": ("recompute",),
}
#: rung -> (listener table, step-site hooks).  Every hook a stack
#: position overrides is dispatched; the eager rungs dispatch the
#: offload policy's four tensor hooks too, which return at once there.
DISPATCH = {
    "baseline": (_BRACKETS, {}),
    "liveness": (_BRACKETS, {}),
    "liveness+utp": (_OFFLOAD, {}),
    "superneurons": (_SUPERNEURONS, {"after": ("recompute.after_step",)}),
    "superneurons-eager": (_SUPERNEURONS,
                           {"after": ("recompute.after_step",)}),
}


class TestDispatch:
    """The bound policy methods each rung's executor dispatches."""

    @staticmethod
    def name(fn):
        return f"{fn.__self__.key}.{fn.__name__}"

    @pytest.mark.parametrize("rung", list(ABLATION))
    def test_rung_dispatches_every_overridden_hook(self, rung):
        table, sites = DISPATCH[rung]
        with Session(lenet(batch=2, image=12), ABLATION[rung]()) as sess:
            sess.run_iteration(0)
            ex = sess.executor
            got_table = {hook: tuple(self.name(fn) for fn in fns)
                         for hook, fns in ex._listeners.items() if fns}
            # a bound method is a policy's hook; everything else an op
            got_sites = {
                site: tuple(sorted({
                    self.name(fn) for cs in ex.iteration_plan.steps
                    for fn in getattr(cs, f"{site}_ops")
                    if hasattr(fn, "__self__")}))
                for site in ("before", "compute", "after", "settled")}
        assert got_table == {hook: tuple(f"{key}.{hook}" for key in keys)
                             for hook, keys in table.items()}
        assert {site: hooks for site, hooks in got_sites.items()
                if hooks} == sites


class TestValidatorIsAnObserver:
    """Every residency transition has an armed branch (the placement
    validator, which the suite turns on everywhere) and a disarmed one
    (every ledger figure and every user run).  Both must make the same
    moves: same results, and after each iteration the same placements,
    pins and host copies."""

    @staticmethod
    def runs(net, config, validate, iters=3):
        with Session(net, config) as sess:
            state = sess.executor.state
            state.validate = validate
            tensors = [t for layer in sess.executor.net.layers
                       for t in (layer.output, layer.grad_output,
                                 *layer.params, *layer.param_grads)
                       if t is not None]
            return [(sess.run_iteration(i).to_dict(),
                     state.snapshot(tensors), state.locked_ids(),
                     frozenset(state.host_ids()))
                    for i in range(iters)]

    @pytest.mark.parametrize("rung", list(ABLATION))
    def test_small_concrete_residual_net(self, rung):
        net = resnet_from_units((1, 1, 0, 0), batch=4, image=32,
                                num_classes=10)
        cfg = ABLATION[rung]()
        assert self.runs(net, cfg, True) == self.runs(net, cfg, False)

    def test_resnet50_at_one_gib(self):
        net = resnet50(batch=32)
        cfg = RuntimeConfig.superneurons(concrete=False,
                                         gpu_capacity=1 << 30)
        armed = self.runs(net, cfg, True)
        assert armed == self.runs(net, cfg, False)
        assert all(res["cache"]["evictions"] > 0 for res, *_ in armed)


def signature(res):
    """What a steady iteration repeats (``sim_time`` to the
    nanosecond: it is a difference of two readings of a running clock)."""
    return (round(res.sim_time, 9), res.peak_bytes, res.d2h_bytes,
            res.h2d_bytes, res.alloc_calls, res.cache_evictions)


class TestAbortedIteration:
    """An iteration that raises leaves the session as a completed one
    would."""

    def test_aborted_iteration_leaves_the_next_one_correct(self):
        """An exception mid-iteration would strand tensors — and,
        raised between a conv's workspace reservation and its kernel,
        the step's scratch; the aborted iteration cleans up, and the
        following ones report exactly what an undisturbed run does."""

        class Saboteur(MemoryPolicy):
            key = "saboteur"
            armed = False

            def __init__(self, hook, at_step):
                self.hook, self.at_step = hook, at_step

            def trip(self, hook, step):
                if self.armed and hook == self.hook \
                        and step.index == self.at_step:
                    raise ValueError("injected")

            def before_step(self, ctx, step):
                self.trip("before_step", step)

            def before_compute(self, ctx, step):
                # appended, so it rides after ``workspace``
                self.trip("before_compute", step)

        def mk():
            return alexnet(batch=4, image=67, num_classes=10)

        cfg = RuntimeConfig.superneurons(concrete=False)
        with Session(mk(), cfg) as clean:
            expect = [signature(clean.run_iteration(i))
                      for i in range(5)]
            settled = clean.executor.allocator.pool.used_bytes
        # step 30 is mid-backward; step 46 is conv1's backward, whose
        # 1,306,800-byte workspace is reserved when the hook raises
        for hook, at_step in (("before_step", 30), ("before_compute", 46)):
            saboteur = Saboteur(hook, at_step)
            with Session(mk(), cfg).with_policy(saboteur) as sess:
                ex = sess.executor
                pool = ex.allocator.pool
                got = [signature(sess.run_iteration(i))
                       for i in range(2)]
                saboteur.armed = True
                with pytest.raises(ValueError, match="injected"):
                    sess.run_iteration(2)
                assert ex.allocator.used_bytes == ex.param_bytes
                saboteur.armed = False
                got += [signature(sess.run_iteration(i))
                        for i in range(2, 5)]
                assert ex.allocator.used_bytes == ex.param_bytes
                assert pool.used_bytes == settled
                pool.check_invariants()
            assert got[:2] == expect[:2]
            # nothing was stranded: from the recovery iteration on
            # nothing differs
            assert got[2:] == expect[2:]


class TestTableAnswers:
    """A table iteration gives each allocation the answer the record
    got and accounts it, and each free, as the allocator would: it
    enters neither the allocator nor its store.  An allocator replaced
    on the instance gets every recorded call instead, and nothing the
    executor reports tells the two apart."""

    CAPACITIES = pytest.mark.parametrize(
        "capacity", [None, SMALLEST], ids=["roomy", "pressured"])

    @staticmethod
    def session(capacity):
        return Session(small_resnet(), RuntimeConfig.superneurons(
            concrete=False, gpu_capacity=capacity))

    @CAPACITIES
    def test_a_table_iteration_calls_no_allocator(self, monkeypatch,
                                                  capacity):
        calls = []
        for cls, name in ((Allocator, "alloc"), (Allocator, "free"),
                          (HeapPool, "alloc"), (HeapPool, "free")):
            def counted(*args, call=getattr(cls, name),
                        what=f"{cls.__name__}.{name}", **kw):
                calls.append(what)
                return call(*args, **kw)
            monkeypatch.setattr(cls, name, counted)
        with self.session(capacity) as sess:
            ex = sess.executor
            steady = [sess.run_iteration(i) for i in range(2)][-1]
            assert calls and ex._table is not None
            if capacity is not None:
                assert steady.cache_evictions > 0
            for i in range(2, 4):
                del calls[:]
                res = sess.run_iteration(i)
                assert calls == [], "a table iteration called the allocator"
                assert ex.table_iterations == i - 1
                assert signature(res) == signature(steady)
            assert ex.allocator.used_bytes == ex.param_bytes
            ex.allocator.pool.check_invariants()

    @CAPACITIES
    def test_a_wrapped_allocator_gets_the_recorded_calls(self, capacity):
        def run(wrap):
            with self.session(capacity) as sess:
                ex = sess.executor
                allocator = ex.allocator
                calls = []
                if wrap:
                    alloc, free = allocator.alloc, allocator.free

                    def passed_alloc(nbytes, tag=""):
                        calls.append((nbytes, tag))
                        return alloc(nbytes, tag)

                    def passed_free(a):
                        calls.append(a.nbytes)
                        return free(a)
                    allocator.alloc, allocator.free = passed_alloc, \
                        passed_free
                seen = []
                for i in range(4):
                    del calls[:]
                    res = sess.run_iteration(i)
                    seen.append((calls[:], res.to_dict(),
                                 ex.timeline.elapsed,
                                 dataclasses.astuple(allocator.stats),
                                 allocator.signature()))
                assert ex.table_iterations == 2
            return seen

        wrapped, answered = run(True), run(False)
        for i in (2, 3):  # the table's: the recording iteration's calls
            assert wrapped[i][0] == wrapped[1][0]
        assert [w[1:] for w in wrapped] == [a[1:] for a in answered]

    def test_a_copy_fault_mid_table_leaves_the_store_at_rest(self):
        with self.session(SMALLEST) as sess:
            ex = sess.executor
            plan = FaultPlan("copy", 0).install(ex)
            for i in range(2):
                sess.run_iteration(i)
            table = ex._table
            copies = sum(1 for op, _a, _b in table.ops if op == COPY)
            assert copies > 1
            plan.k = copies // 2
            plan.arm()
            with pytest.raises(InjectedFault):
                sess.run_iteration(2)
            assert ex._table is None
            ex.allocator.pool.check_invariants()
            assert ex.allocator.used_bytes == ex.param_bytes
            assert ex.allocator.signature() == table.start
            assert_quiescent(sess)


class TestReplayOptOut:
    def test_session_with_replay_false(self):
        with Session(lenet(batch=2, image=12)).with_config(
                steady_state_replay=False) as sess:
            plans = []
            for i in range(3):
                sess.run_iteration(i)
                plans.append(sess.executor.iteration_plan)
            assert sess.executor.replayed_iterations == 0
            # each iteration linked a plan of its own
            assert len({id(plan) for plan in plans}) == 3
            assert set(plans[-1].plans) == {"liveness", "workspace"}

    def test_replay_is_the_default(self):
        with Session(lenet(batch=2, image=12)) as sess:
            for i in range(3):
                sess.run_iteration(i)
            assert sess.executor.replayed_iterations == 2

    def test_knob_rejected_after_build(self):
        sess = Session(lenet(batch=2, image=12))
        sess.run_iteration(0)
        with pytest.raises(RuntimeError, match="already built"):
            sess.with_config(steady_state_replay=False)
        sess.close()


class TestFiveIterationDeterminism:
    """Same seed ⇒ identical loss sequence; allocator back at
    params-only after every iteration; replay ≡ fresh byte-for-byte."""

    def test_loss_sequence_and_ledger(self):
        def losses(replay):
            cfg = RuntimeConfig.superneurons(steady_state_replay=replay)
            out = []
            with Session(lenet(batch=4, image=12), cfg).executor as ex:
                opt = SGD(0.05)
                for i in range(ITERS):
                    out.append(ex.run_iteration(i, optimizer=opt).loss)
                    assert ex.allocator.used_bytes == ex.param_bytes
            return out

        a, b, c = losses(True), losses(True), losses(False)
        assert a == b  # same seed, same sequence — run to run
        assert a == c  # replay path ≡ fresh path
        assert len(set(a)) > 1  # training actually moves

    def test_dropout_net_replays_fresh_rng_per_iteration(self):
        """Seeded per-(iteration, layer) RNG means dropout masks and
        data batches vary per iteration yet replay stays exact."""
        from repro.graph import Net
        from repro.layers import (DataLayer, Dropout, FullyConnected,
                                  SoftmaxLoss)

        def build():
            net = Net("drop")
            x = net.add(DataLayer("data", (4, 3, 8, 8), num_classes=4))
            x = net.add(Dropout("drop1", 0.4), [x])
            x = net.add(FullyConnected("fc", 4), [x])
            net.add(SoftmaxLoss("softmax"), [x])
            return net.build()

        fresh, _ = run_dicts(
            build, RuntimeConfig.superneurons(steady_state_replay=False))
        replay, r = run_dicts(build, RuntimeConfig.superneurons())
        assert r == ITERS - 1
        assert replay == fresh
        losses = [d["loss"] for d in replay]
        assert len(set(losses)) > 1  # per-iteration masks/batches differ


class TestAccumulatorHygiene:
    """Counters and logs are per-iteration deltas, not lifetime piles."""

    def test_workspace_choice_log_is_per_iteration(self):
        with Session(lenet(batch=4, image=12),
                     RuntimeConfig.superneurons()).executor as ex:
            r1 = ex.run_iteration(0)
            n1 = len(ex.selector.choices)
            r2 = ex.run_iteration(1)
            n2 = len(ex.selector.choices)
        assert n1 == n2  # reset each iteration, no unbounded growth
        assert len(r1.workspace_choices) == len(r2.workspace_choices) == n1

    def test_timeline_op_log_does_not_grow(self):
        with Session(lenet(batch=4, image=12),
                     RuntimeConfig.superneurons()).executor as ex:
            ex.run_iteration(0)
            ex.run_iteration(1)
            assert ex.timeline.ops() == []  # executor records no op log

    def test_executor_state_drained_between_iterations(self):
        with Session(alexnet(batch=2, image=67, num_classes=10),
                     RuntimeConfig.liveness_offload(concrete=False)
                     ).executor as ex:
            for i in range(3):
                ex.run_iteration(i)
                assert ex._pending == []
                assert not ex.state.arrivals
                assert ex.state.live_count() == 0

    def test_eager_mode_cache_counters_stay_silent(self):
        """Eager offload has no cache; its counters must not tick (they
        previously counted a miss per tensor access, forever)."""
        with Session(alexnet(batch=2, image=67, num_classes=10),
                     RuntimeConfig.liveness_offload(concrete=False)
                     ).executor as ex:
            r1 = ex.run_iteration(0)
            r2 = ex.run_iteration(1)
        for r in (r1, r2):
            assert (r.cache_hits, r.cache_misses, r.cache_evictions) \
                == (0, 0, 0)

    def test_per_iteration_deltas_are_stable(self):
        """Back-to-back iterations report identical deltas — nothing
        double-counts across the iteration boundary."""
        with Session(alexnet(batch=2, image=67, num_classes=10),
                     RuntimeConfig.superneurons(concrete=False)
                     ).executor as ex:
            r1 = ex.run_iteration(0)
            r2 = ex.run_iteration(1)
        for field in ("d2h_bytes", "h2d_bytes", "alloc_calls",
                      "extra_forwards", "cache_hits", "cache_misses",
                      "cache_evictions"):
            assert getattr(r1, field) == getattr(r2, field), field

    def test_session_history_cap(self):
        with Session(lenet(batch=2, image=12)).with_history(2) as sess:
            for i in range(5):
                sess.run_iteration(i)
            assert len(sess.results) == 2
            assert [r.iteration for r in sess.results] == [3, 4]

    def test_trainer_can_drop_results(self):
        sess = Session(lenet(batch=4, image=12),
                       RuntimeConfig.superneurons())
        with Trainer(session=sess, optimizer=SGD(0.1)) as tr:
            stats = tr.train(4, keep_results=False)
        assert len(stats.losses) == 4
        assert stats.results == []

    def test_traces_can_be_disabled(self):
        cfg = RuntimeConfig.superneurons(collect_traces=False)
        with Session(lenet(batch=4, image=12), cfg).executor as ex:
            r = ex.run_iteration(0)
        assert r.traces == []
        assert r.loss is not None


class TestLinkOnce:
    """An executor links its plan once in its life — at its first
    iteration, before anything a later iteration could change (an
    unseeded tensor cache's drop set lands at the end of iteration 0) —
    and one that never replays links before every iteration."""

    GiB = 1 << 30

    @staticmethod
    def links(monkeypatch, mk_net, cfg, iters=5):
        linked = []
        real = runtime.link_iteration_plan

        def spy(ex):
            linked.append(ex)
            return real(ex)
        monkeypatch.setattr(runtime, "link_iteration_plan", spy)
        with Session(mk_net(), cfg) as sess:
            results = sess.run(iters)
            mine = [ex for ex in linked if ex is sess.executor]
            # the private engine's scout links its own plan, once
            assert len(set(linked)) == len(linked) - len(mine) + 1 == 2
        return len(mine), results

    @pytest.mark.parametrize("net", ["lenet", "resnet50", "inception_v4"])
    def test_a_replaying_executor_links_once(self, monkeypatch, net):
        if net == "lenet":
            mk, cfg = (lambda: lenet(batch=4, image=12),
                       RuntimeConfig.superneurons())
        else:
            mk = functools.partial(NETWORK_BUILDERS[net], batch=32)
            cfg = RuntimeConfig.superneurons(concrete=False,
                                             gpu_capacity=self.GiB)
        links, results = self.links(monkeypatch, mk, cfg)
        assert links == 1
        if net == "resnet50":  # the scout's drop set, from iteration 0
            assert [r.cache_dropped for r in results[:2]] == [11, 11]

    def test_a_never_replaying_executor_links_every_iteration(
            self, monkeypatch):
        cfg = RuntimeConfig.superneurons(steady_state_replay=False)
        links, _ = self.links(monkeypatch,
                              lambda: lenet(batch=4, image=12), cfg)
        assert links == 5
