"""Truly concurrent sessions over per-session tensor state (ISSUE 4).

The pre-refactor runtime mutated ``placement``/``locked``/host-residency
directly on the shared ``Tensor`` descriptors, which restricted engine
sessions to iteration-granularity interleave.  These tests prove the
:class:`~repro.core.tensor_state.SessionTensorState` refactor lifted
that restriction:

* **isolation** — two sessions stepping in lockstep at *op* granularity
  never observe each other's placement/lock writes (these tests fail by
  construction on the shared-``Tensor`` design: session A freeing a
  tensor mid-iteration would corrupt session B's view of it);
* **determinism** — randomized (seeded) two-session schedules produce
  per-session results bit-identical to solo runs, placements obey the
  FREED→GPU→HOST state machine, and every lock taken during an
  iteration is released by its end;
* **replay** — a compiled IterationPlan replays the exact per-session
  placement trace the fresh path records;
* **true parallelism** — ``engine.parallel_run`` drives thread-per-
  session execution (that it equals sequential execution is
  ``tests/test_equivalence_matrix.py::test_drive``), including an
  N-session × M-iteration stress smoke with a hard timeout.
"""

import random
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

import repro
from repro import MemoryPolicy, RuntimeConfig, Session
from repro.core.tensor_state import ALLOWED_TRANSITIONS, SessionTensorState
from repro.tensors.tensor import Placement
from repro.zoo import alexnet, lenet, resnet_from_units

HARD_TIMEOUT = 180  # seconds: a hung session must fail loudly, not stall CI


def _outputs(net):
    return [l.output for l in net.layers if l.output is not None]


def _param_ids(net):
    return frozenset(p.tensor_id for l in net.layers for p in l.params)


# --------------------------------------------------------------------------- #
# instrumentation policies (dynamic: never compiled away by replay)
# --------------------------------------------------------------------------- #

class _PlacementRecorder(MemoryPolicy):
    """Snapshot every layer output's placement after each step."""

    key = "placement-recorder"

    def __init__(self, outputs):
        self.outputs = outputs
        self.trace = []

    def after_step(self, ctx, step):
        self.trace.append((step.index, ctx.state.snapshot(self.outputs)))


class _LockBalanceProbe(MemoryPolicy):
    """Every lock taken during an iteration is released by its end
    (parameters stay locked for the executor's lifetime)."""

    key = "lock-balance"

    def __init__(self, param_ids):
        self.param_ids = param_ids
        self.violations = []

    def on_iteration_end(self, ctx):
        held = ctx.state.locked_ids()
        if held != self.param_ids:
            self.violations.append(held - self.param_ids)


class _StepBarrier(MemoryPolicy):
    """Force two executors into op-granularity lockstep."""

    key = "step-barrier"

    def __init__(self, barrier):
        self.barrier = barrier

    def before_step(self, ctx, step):
        self.barrier.wait(timeout=HARD_TIMEOUT)

    def on_step_settled(self, ctx, step):
        self.barrier.wait(timeout=HARD_TIMEOUT)


class _CrossSessionProbe(MemoryPolicy):
    """Assert this session's view of a sentinel tensor is untouched by
    the sibling session (which locks it for its whole iteration)."""

    key = "cross-probe"

    def __init__(self, sentinel, hold: bool):
        self.sentinel = sentinel
        self.hold = hold        # True: lock it; False: assert unlocked
        self.violations = 0

    def on_iteration_start(self, ctx):
        if self.hold:
            ctx.state.lock(self.sentinel)

    def before_step(self, ctx, step):
        if not self.hold and ctx.state.locked(self.sentinel):
            self.violations += 1

    def on_iteration_end(self, ctx):
        if self.hold:
            ctx.state.unlock(self.sentinel)


class _TokenScheduler:
    """Serialize N sessions' steps in a seeded-random total order."""

    def __init__(self, n: int, seed: int):
        self._rng = random.Random(seed)
        self._cond = threading.Condition()
        self._waiting = set()
        self._done = set()
        self._n = n
        self._holder = None

    def _pick(self):
        ready = sorted(self._waiting)
        if self._holder is None and ready:
            self._holder = self._rng.choice(ready)

    def acquire(self, sid: int):
        with self._cond:
            self._waiting.add(sid)
            self._pick()
            while self._holder != sid:
                if not self._cond.wait(timeout=HARD_TIMEOUT):
                    raise RuntimeError(f"session {sid} starved")
            self._waiting.discard(sid)

    def release(self, sid: int):
        with self._cond:
            if self._holder == sid:
                self._holder = None
            self._pick()
            self._cond.notify_all()

    def finish(self, sid: int):
        with self._cond:
            self._done.add(sid)
            self._waiting.discard(sid)
            if self._holder == sid:
                self._holder = None
            self._pick()
            self._cond.notify_all()


class _TokenGate(MemoryPolicy):
    """One session's hook into the scheduler's total order."""

    key = "token-gate"

    def __init__(self, sched: _TokenScheduler, sid: int):
        self.sched = sched
        self.sid = sid

    def before_step(self, ctx, step):
        self.sched.acquire(self.sid)

    def on_step_settled(self, ctx, step):
        self.sched.release(self.sid)


def _run_threads(fns):
    """Run thunks concurrently; re-raise the first failure."""
    with ThreadPoolExecutor(max_workers=len(fns)) as pool:
        futures = [pool.submit(fn) for fn in fns]
        return [f.result(timeout=HARD_TIMEOUT) for f in futures]


def _executor_with(net, cfg, mode, extra):
    """The resolved stack with ``extra`` probe policies riding at its
    end — what ``Session.with_policy(instance)`` builds."""
    sess = Session(net, cfg, mode=mode)
    for policy in extra:
        sess.with_policy(policy)
    return sess.executor


# --------------------------------------------------------------------------- #
# isolation: per-session state tables
# --------------------------------------------------------------------------- #

class TestStateIsolation:
    def test_state_tables_are_disjoint(self):
        """Placement/lock writes in one executor are invisible to a
        sibling executor over the SAME net — impossible when the bits
        lived on the shared descriptors."""
        net = lenet(batch=2, image=12).build()
        cfg = RuntimeConfig.superneurons(concrete=False)
        with Session(net, cfg, mode="infer").executor as a, \
                Session(net, cfg, mode="infer").executor as b:
            t = net.layers[1].output
            a.state.to_gpu(t)
            a.state.lock(t)
            a.state.offload_started(t)
            assert b.state.placement(t) is Placement.UNALLOCATED
            assert not b.state.locked(t)
            assert not b.state.host_resident(t)

    def test_tensor_descriptor_has_no_mutable_scheduler_state(self):
        """The acceptance grep, as a test: descriptors expose no
        executor-mutated attributes at all."""
        net = lenet(batch=2, image=12).build()
        for l in net.layers:
            for t in [l.output, l.grad_output] + l.params + l.param_grads:
                if t is None:
                    continue
                for attr in ("placement", "locked", "host_resident",
                             "gpu_addr", "lock", "unlock", "is_live",
                             "on_gpu", "on_host"):
                    assert not hasattr(t, attr), (t.name, attr)

    def test_lockstep_sessions_never_observe_each_others_writes(self):
        """Two sessions over ONE net stepping in op-granularity
        lockstep: each one's results and placement trace match its solo
        run exactly, and session B never sees the sentinel lock session
        A holds across every one of its iterations."""
        net = lenet(batch=2, image=12).build()
        cfg = RuntimeConfig.superneurons()
        outputs = _outputs(net)
        sentinel = net.layers[1].output
        iters = 3

        # solo baseline: same stack shape (recorder riding along)
        solo_rec = _PlacementRecorder(outputs)
        with _executor_with(net, cfg, "infer", [solo_rec]) as ex:
            solo = [ex.run_iteration(i).to_dict() for i in range(iters)]
        solo_trace = list(solo_rec.trace)

        barrier = threading.Barrier(2)
        rec_a = _PlacementRecorder(outputs)
        rec_b = _PlacementRecorder(outputs)
        probe_a = _CrossSessionProbe(sentinel, hold=True)
        probe_b = _CrossSessionProbe(sentinel, hold=False)
        ex_a = _executor_with(
            net, cfg, "infer", [rec_a, probe_a, _StepBarrier(barrier)])
        ex_b = _executor_with(
            net, cfg, "infer", [rec_b, probe_b, _StepBarrier(barrier)])

        def drive(ex):
            try:
                return [ex.run_iteration(i).to_dict() for i in range(iters)]
            except BaseException:
                barrier.abort()  # do not leave the sibling hanging
                raise

        try:
            got_a, got_b = _run_threads([lambda: drive(ex_a),
                                         lambda: drive(ex_b)])
        finally:
            ex_a.close()
            ex_b.close()

        assert got_a == solo
        assert got_b == solo
        assert rec_a.trace == solo_trace
        assert rec_b.trace == solo_trace
        assert probe_b.violations == 0  # A's sentinel lock never leaked


# --------------------------------------------------------------------------- #
# property-based: seeded random two-session schedules
# --------------------------------------------------------------------------- #

class TestScheduleProperties:
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_randomized_schedules_are_solo_equivalent(self, seed):
        """Any serialized op-granularity interleave of two sessions
        (drawn from a seeded rng) leaves each session bit-identical to
        its solo run, with the placement state machine validated on
        every transition and all locks balanced per iteration."""
        net = lenet(batch=2, image=12).build()
        cfg = RuntimeConfig.superneurons()
        outputs = _outputs(net)
        param_ids = _param_ids(net)
        iters = 3

        solo_rec = _PlacementRecorder(outputs)
        with _executor_with(net, cfg, "infer", [solo_rec]) as ex:
            solo = [ex.run_iteration(i).to_dict() for i in range(iters)]

        sched = _TokenScheduler(2, seed)
        recs, probes, exs = [], [], []
        for sid in range(2):
            rec = _PlacementRecorder(outputs)
            probe = _LockBalanceProbe(param_ids)
            exs.append(_executor_with(
                net, cfg, "infer", [rec, probe, _TokenGate(sched, sid)]))
            exs[-1].state.validate = True  # arm the state machine
            recs.append(rec)
            probes.append(probe)

        def drive(sid):
            try:
                return [exs[sid].run_iteration(i).to_dict()
                        for i in range(iters)]
            finally:
                sched.finish(sid)

        try:
            results = _run_threads([lambda: drive(0), lambda: drive(1)])
        finally:
            for ex in exs:
                ex.close()

        for got, rec, probe in zip(results, recs, probes):
            assert got == solo
            assert rec.trace == solo_rec.trace
            assert probe.violations == []

    def test_state_machine_validates_across_the_ablation_ladder(self):
        """Every placement write of every policy combination follows
        FREED→GPU→HOST legal edges (train mode exercises offload,
        prefetch, recomputation, and eviction paths)."""
        ladder = [
            RuntimeConfig.baseline(concrete=False),
            RuntimeConfig.liveness_only(concrete=False),
            RuntimeConfig.liveness_offload(concrete=False),
            RuntimeConfig.superneurons(concrete=False),
        ]
        for cfg in ladder:
            with Session(alexnet(batch=2, image=67, num_classes=10),
                         cfg).executor as ex:
                ex.state.validate = True
                for i in range(2):
                    ex.run_iteration(i)  # IllegalPlacementTransition raises

    def test_transition_table_matches_docstring(self):
        legal = {(a.value, b.value) for a, b in ALLOWED_TRANSITIONS}
        assert legal == {
            ("unallocated", "gpu"), ("unallocated", "freed"),
            ("gpu", "host"), ("gpu", "freed"),
            ("host", "gpu"), ("host", "freed"), ("freed", "gpu"),
        }

    def test_lock_balance_under_training_stack(self):
        net = lenet(batch=2, image=12).build()
        cfg = RuntimeConfig.superneurons(concrete=False)
        probe = _LockBalanceProbe(_param_ids(net))
        with _executor_with(net, cfg, "train", [probe]) as ex:
            for i in range(3):
                ex.run_iteration(i)
        assert probe.violations == []

    def test_replayed_plan_reproduces_fresh_placement_trace(self):
        """A session replaying the compiled IterationPlan walks the
        exact same per-session placement trace the fresh planning path
        records for the same iterations."""
        net = lenet(batch=2, image=12).build()
        cfg = RuntimeConfig.superneurons()
        outputs = _outputs(net)

        def run(with_replay):
            rec = _PlacementRecorder(outputs)
            c = replace(cfg, steady_state_replay=with_replay)
            with _executor_with(net, c, "train", [rec]) as ex:
                results = [ex.run_iteration(i).to_dict() for i in range(3)]
                replayed = ex.replayed_iterations
            return results, rec.trace, replayed

        fresh_results, fresh_trace, fresh_replays = run(False)
        replay_results, replay_trace, replays = run(True)
        assert fresh_replays == 0 and replays == 2  # modes actually differ
        assert replay_results == fresh_results
        assert replay_trace == fresh_trace


# --------------------------------------------------------------------------- #
# engine.parallel_run: thread-per-session serving (acceptance criterion)
# --------------------------------------------------------------------------- #

class TestParallelRun:
    def test_rejects_concrete_train_sessions(self):
        engine = repro.compile(lenet(batch=2, image=12),
                               RuntimeConfig.superneurons())
        sess = engine.session(mode="train")
        with pytest.raises(TypeError, match="concrete train-mode"):
            engine.parallel_run([sess], iters=1)
        sess.close()

    def test_rejects_foreign_sessions(self):
        e1 = repro.compile(lenet(batch=2, image=12))
        e2 = repro.compile(lenet(batch=2, image=12))
        sess = e2.session(mode="infer")
        with pytest.raises(ValueError, match="THIS engine"):
            e1.parallel_run([sess], iters=1)
        sess.close()

    def test_empty_session_list_is_a_noop(self):
        engine = repro.compile(lenet(batch=2, image=12))
        assert engine.parallel_run([], iters=3) == []

    def test_racing_lazy_compiles_run_one_planning_pass(self):
        """Sessions spawned and run from user threads race the lazy
        compile; the engine's lock must keep 'plans compiled 1x' true
        instead of letting two threads plan in parallel."""
        engine = repro.compile(lenet(batch=2, image=12),
                               RuntimeConfig.superneurons(concrete=False))

        def spawn_and_run():
            with engine.session(mode="infer") as s:
                s.run_iteration(0)

        _run_threads([spawn_and_run] * 4)
        assert engine.compile_count == 1
        assert engine.mode_compile_count == 1

    def test_rejects_duplicate_sessions(self):
        """One session on two threads would share its executor's
        session-local state — exactly the corruption this PR removes."""
        engine = repro.compile(lenet(batch=2, image=12))
        sess = engine.session(mode="infer")
        with pytest.raises(ValueError, match="distinct sessions"):
            engine.parallel_run([sess, sess], iters=1)
        sess.close()

    def test_crashed_session_error_surfaces_promptly(self):
        """A session that raises must propagate its real error, not be
        hidden behind siblings still running (or a later timeout)."""
        engine = repro.compile(lenet(batch=2, image=12),
                               RuntimeConfig.superneurons(concrete=False))
        good = engine.session(mode="infer")
        bad = engine.session(mode="infer")
        bad.executor  # build before swapping the run loop

        def explode(i, optimizer=None):
            raise RuntimeError("session exploded")

        bad.run_iteration = explode
        try:
            with pytest.raises(RuntimeError, match="session exploded"):
                engine.parallel_run([good, bad], iters=2,
                                    timeout=HARD_TIMEOUT)
        finally:
            good.close()
            bad.close()

    def test_timeout_raises_instead_of_hanging(self):
        """A hung session must surface as TimeoutError promptly — the
        pool shutdown must not block joining the hung worker thread."""
        import concurrent.futures
        import time

        engine = repro.compile(lenet(batch=2, image=12),
                               RuntimeConfig.superneurons(concrete=False))
        sess = engine.session(mode="infer")
        release = threading.Event()

        def hang(i, optimizer=None):
            release.wait(timeout=HARD_TIMEOUT)  # simulated deadlock

        sess.executor  # build before swapping the run loop
        sess.run_iteration = hang
        t0 = time.monotonic()
        try:
            with pytest.raises(concurrent.futures.TimeoutError,
                               match="still running"):
                engine.parallel_run([sess], iters=1, timeout=0.2)
            assert time.monotonic() - t0 < 30  # raised, did not hang
        finally:
            release.set()  # let the abandoned thread exit cleanly
            time.sleep(0.05)
            sess.close()


class TestThreadedStressSmoke:
    """The CI stress gate: N sessions × M iterations per small zoo net
    under a hard timeout, gating on bit-identical losses/peaks vs the
    sequential baseline (the happens-before analysis of the same drive
    is ``repro check race --scenario parallel``)."""

    @pytest.mark.parametrize("mk,cfg", [
        (lambda: lenet(batch=4, image=12),
         RuntimeConfig.superneurons()),
        (lambda: alexnet(batch=2, image=67, num_classes=10),
         RuntimeConfig.superneurons(concrete=False)),
        (lambda: resnet_from_units((1, 1, 1, 1), batch=2, image=32,
                                   num_classes=10),
         RuntimeConfig.superneurons(concrete=False)),
    ], ids=["lenet-concrete", "alexnet-sim", "resnet-sim"])
    def test_stress_n_sessions_m_iterations(self, mk, cfg):
        n_sessions, iters = 4, 3
        engine = repro.compile(mk(), cfg)
        sessions = [engine.session(mode="infer")
                    for _ in range(n_sessions)]
        par = engine.parallel_run(sessions, iters=iters,
                                  timeout=HARD_TIMEOUT)
        with engine.session(mode="infer") as solo:
            want = [solo.run_iteration(i).to_dict() for i in range(iters)]
        for s in sessions:
            s.close()
        assert len(par) == n_sessions
        for rs in par:
            got = [r.to_dict() for r in rs]
            assert [g["loss"] for g in got] == [w["loss"] for w in want]
            assert [g["peak_bytes"] for g in got] \
                == [w["peak_bytes"] for w in want]
            assert got == want
        assert engine.compile_count == 1
