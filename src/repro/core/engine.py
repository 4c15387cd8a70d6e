"""Compile-once Engine: one planning pass, many lightweight sessions.

The paper's central observation — memory-management decisions are
deterministic per topology (§3) — already powers the steady-state
replay of :mod:`repro.core.plan`.  This module lifts the same idea to
the top-level API: *compiling* a network (route construction, liveness
analysis, recompute segmentation, one scout iteration) and *running*
it are different lifecycles with different sharing.

:func:`compile` (also ``Engine(net, config)``) produces an immutable
compiled artifact.  Per execution mode it owns:

* the :class:`~repro.graph.route.ExecutionRoute` (2N steps for train,
  N forward-only steps for infer);
* the compiled :class:`~repro.core.liveness.LivenessPlan` and
  :class:`~repro.core.recompute.RecomputePlan`;
* the verdict of one *scout* iteration run over them in simulated mode
  (descriptor-only, so compiling a concrete engine never touches
  payloads, parameter values, or BN running statistics): a mode that
  cannot run fails at compile time, and the scout is what
  ``verify=True`` judges;
* the scout's tensor cache record where pressure evicted (victims, drop
  set, deadlines): the one residency decision the graph does not fix,
  made once per mode, which every executor of the mode starts from.

``engine.session(mode=...)`` then spawns cheap workers: each gets its
own device substrate — GPU ledger, timeline/clock, DMA engine,
allocator, tensor store — and an executor over the shared planning
that links its policies' plans once, at its first iteration.  N
serving sessions pay the planning cost exactly once
(``engine.compile_count`` proves it), and
the mode-independent groundwork — the Alg. 1 topological order, the
expensive graph walk of route construction — is shared even *across*
modes: compiling ``train`` and ``infer`` runs one base planning pass
plus one cheap per-mode scout each (``mode_compile_count``).

What is shared vs per-session
-----------------------------
Shared (read-only after compile): the built net topology, its tensor
*descriptors* (immutable identity: shape, bytes, name), parameter
*values* (serving replicas share weights), routes, liveness/recompute
plans.  Per-session: the entire device
substrate, every piece of mutable tensor state — placement, locks,
host residency, prefetch arrivals — which lives in the executor's
:class:`~repro.core.tensor_state.SessionTensorState` table, policy
instances (LRU cache state, workspace selectors), the linked iteration
plan, iteration results,
activation payloads, and the per-iteration label/loss flow (threaded
through each session's own ``LayerContext``).

Because no executor ever mutates a descriptor, sessions are free to
run **concurrently at op granularity**: :meth:`Engine.parallel_run`
drives one thread per session and produces results bit-identical to
running the same sessions sequentially (``tests/test_parallel_sessions.py``
proves both the isolation and the equivalence).  The remaining
shared-mutable surfaces are the parameter values themselves and any
*stateful* data provider: concurrent *training* sessions with
optimizers would race on the shared weights (and concrete train
sessions on BN running statistics) — use separate engines for that;
``parallel_run`` rejects the concrete-train case.  The bundled
``synthetic_provider`` is a pure function of the iteration number and
therefore parallel-safe; custom providers must be too.
"""

from __future__ import annotations

import gc
from concurrent.futures import (
    FIRST_EXCEPTION,
    ThreadPoolExecutor,
    TimeoutError as FuturesTimeoutError,
    wait as futures_wait,
)
from dataclasses import dataclass, replace
from time import monotonic
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.check import instrument as _ins
from repro.check.instrument import (
    TracedLock,
    channel_recv,
    channel_send,
    trace_read,
    trace_write,
)
from repro.core.cache import CacheSeed
from repro.core.config import RuntimeConfig
from repro.core.liveness import LivenessAnalysis, LivenessPlan
from repro.core.policy import MemoryPolicy, resolve_policies
from repro.core.recompute import RecomputePlan, plan_segments
from repro.core.runtime import Executor, IterationResult
from repro.graph.network import Net
from repro.graph.route import ExecutionRoute, forward_order
from repro.obs import recorder as obs_recorder
from repro.obs import trace as obs_trace

#: The execution modes an engine can compile.
MODES = ("train", "infer")


def _collector_paused(compile_mode: Callable[[str], ModePlanning],
                      mode: str) -> ModePlanning:
    """Compile ``mode`` with CPython's cyclic garbage collector paused.

    A compile allocates hundreds of thousands of objects (steps, plans,
    closures, the scout's moves), and each allocation burst would set
    the collector walking every object the process retains.  None of
    them needs it: a built net is acyclic (a layer holds its consumers
    weakly) and a closed executor cuts its own cycles, so what a compile
    drops is freed by reference counting alone
    (``tests/test_engine.py::TestClosedExecutors`` pins that).  The
    caller's setting is restored however the compile ends; when compiles
    overlap, only the outermost one paused the collector, and it is the
    one that turns it back on.  This is the one place ``src/`` touches
    the collector (``tests/test_options_census.py``)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return compile_mode(mode)
    finally:
        if enabled:
            gc.enable()


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown execution mode {mode!r}; "
                         f"expected one of {MODES}")


@dataclass(frozen=True)
class PlanningBase:
    """The mode-independent planning groundwork, derived once per engine.

    Both execution modes walk the same forward topology, so the Alg. 1
    DFS order — the expensive, graph-walking part of route
    construction — runs in ONE shared pass and feeds both mode
    compiles (the ROADMAP's "batched compile" item).  Per-step
    dependency lists stay derived per route from this order, so there
    is exactly one derivation path for them.
    """

    forward_layers: List  # read-only; shared by both routes


@dataclass(frozen=True)
class ModePlanning:
    """One mode's immutable planning artifacts (route + analyses),
    shared by every executor of the mode — the scout, every engine
    session and every standalone ``Session``."""

    mode: str
    route: ExecutionRoute
    recompute_plan: RecomputePlan
    liveness: LivenessAnalysis
    liveness_plan: LivenessPlan
    #: the scout's tensor cache record (:meth:`Engine.compiled`)
    cache_seed: Optional[CacheSeed] = None


class Engine:
    """The compiled artifact: net + resolved config + per-mode plans.

    Construction builds the net and freezes the config; the per-mode
    plans are compiled lazily on first use (or eagerly via
    :func:`compile`'s ``modes`` argument) and cached —
    :attr:`compile_count` counts the planning passes actually run.
    """

    def __init__(self, net: Net, config: Optional[RuntimeConfig] = None,
                 verify: bool = False, cost_report: bool = False):
        self.net = net.build()
        # private copy: compiled plans are derived from the config, so
        # later caller-side mutation must not desync them from workers
        self.config = replace(config) if config is not None \
            else RuntimeConfig()
        #: judge every mode's scout iteration with the plan verifier
        #: (repro.check) before caching it; a finding raises
        #: PlanVerificationError
        self.verify_plans = verify
        #: build a cost-model report (repro.check.cost_model) per
        #: compiled mode — purely advisory, never raises
        self.cost_report = cost_report
        #: mode -> CheckReport from the static cost model, filled as
        #: modes compile when cost reporting is armed
        self.cost_reports: Dict[str, "object"] = {}
        #: shared base planning passes (the Alg. 1 topological order).
        #: At most 1, however many modes compile — the tests assert
        #: train+infer share one planning pass.
        self.compile_count = 0
        #: per-mode scout compiles (≤ 1 per entry of :data:`MODES`).
        self.mode_compile_count = 0
        self._base: Optional[PlanningBase] = None
        self._planning: Dict[str, ModePlanning] = {}
        #: the modes whose scout has run (their planning, once judged)
        self._compiled: Dict[str, ModePlanning] = {}
        # sessions may be driven from user threads that trigger the
        # lazy compile concurrently; the lock keeps "one planning pass"
        # true under races instead of letting two threads plan twice
        self._compile_lock = TracedLock("engine.compile")
        #: bumped by :meth:`install_params`; serving metrics report it
        self.weights_version = 0

    # ------------------------------------------------------------- compiling
    def compiled(self, mode: str = "train") -> ModePlanning:
        """One execution mode's :meth:`planning`, once its scout has run
        (and, when armed, been verified and costed), with the scout's
        tensor cache record where it evicted."""
        if _ins.ACTIVE is not None:
            trace_read(self, f"engine.compiled[{mode}]")
        cm = self._compiled.get(mode)
        if cm is not None:  # fast path: no lock once compiled
            return cm
        return _collector_paused(self._compile_mode, mode)

    def _compile_mode(self, mode: str) -> ModePlanning:
        """Plan, scout and (when armed) verify and cost one mode, once."""
        planning = self.planning(mode)  # rejects an unknown mode
        with self._compile_lock:
            cm = self._compiled.get(mode)
            if cm is None:
                seed, prediction = self._scout(planning)
                cm = planning if seed is None \
                    else replace(planning, cache_seed=seed)
                if self.cost_report:
                    self._cost_mode(cm, prediction)
                if _ins.ACTIVE is not None:
                    trace_write(self, f"engine.compiled[{mode}]")
                self._compiled[mode] = cm
                self.mode_compile_count += 1
        return cm

    def _cost_mode(self, compiled: ModePlanning, prediction) -> None:
        """Analyze one compiled mode's cost and stash the report.

        ``prediction`` is the scout iteration itself, recorded (see
        :meth:`_scout`): every executor's first, unless the scout seeded
        the mode — then a seeded one is recorded.  Advisory, unlike
        verification: PERF findings are warnings about *speed*, not
        safety — the mode still caches and runs.
        """
        self._assert_compile_locked()
        from repro.check.cost_model import (
            analyze_prediction, predict_compiled_mode)
        from repro.check.diagnostics import CheckReport
        mode = compiled.mode
        if compiled.cache_seed is not None:
            prediction = predict_compiled_mode(
                self.net, compiled, self.config.for_mode(mode),
                target=prediction.target)
        report = CheckReport(tool="cost-model", checked=[prediction.target])
        report.extend(analyze_prediction(prediction))
        report.metrics[prediction.target] = prediction.to_dict()
        self.cost_reports[mode] = report

    def _assert_compile_locked(self) -> None:
        """Planning-state mutation guard: helpers that write the
        engine-shared compile caches must run under ``_compile_lock``
        (the LINT003 rule accepts this assertion as proof)."""
        if not self._compile_lock.locked():
            raise RuntimeError(
                "engine planning state mutated outside _compile_lock")

    def _planning_base(self) -> PlanningBase:
        """The ONE shared planning pass (lazy; counted).  It also prices
        the net's layers on the engine's device model, before any
        executor of this engine reads a price."""
        self._assert_compile_locked()
        if self._base is None:
            self.net.price(self.config.device)
            self._base = PlanningBase(forward_layers=forward_order(self.net))
            self.compile_count += 1
        return self._base

    def planning(self, mode: str = "train") -> ModePlanning:
        """The (cached) planning artifacts for one mode: what the scout
        and every executor of the mode share, derived by the one
        :meth:`_mode_planning` pass."""
        _check_mode(mode)
        mp = self._planning.get(mode)
        if mp is None:
            with self._compile_lock:
                mp = self._planning.get(mode)
                if mp is None:
                    mp = self._planning[mode] = self._mode_planning(mode)
        return mp

    def _mode_planning(self, mode: str) -> ModePlanning:
        """Route + analyses for one mode, on top of the shared base."""
        base = self._planning_base()
        eff = self.config.for_mode(mode)
        route = ExecutionRoute(self.net, training=(mode == "train"),
                               forward_layers=base.forward_layers)
        recompute_plan = plan_segments(route, eff.recompute,
                                       self.net.max_layer_bytes())
        liveness = LivenessAnalysis(route, eff, recompute_plan)
        return ModePlanning(mode=mode, route=route,
                            recompute_plan=recompute_plan,
                            liveness=liveness,
                            liveness_plan=liveness.compile())

    def _scout(self, planning: ModePlanning
               ) -> Tuple[Optional[CacheSeed], object]:
        """Run one mode's scout iteration; returns its tensor cache's
        outcome and, when cost reporting is armed, its
        ``CostPrediction`` (each None where there is none)."""
        # The scout runs one iteration in simulated mode over the mode's
        # cached planning: the allocator landscape, frees, copies and
        # rebuilds are identical to a concrete run's, but no payload is
        # ever touched.  The same iteration is the verdict of the plan
        # verifier and the cost prediction: with either armed its moves
        # are recorded and folded (lazy imports: engines that arm
        # neither never load the checkers) — where it seeds nothing,
        # every session's iteration 0 is the same machine doing the
        # same thing.  A plan the verifier refuses raises
        # PlanVerificationError and the mode is never cached.
        mode = planning.mode
        target = f"{self.net.name}/{mode}"
        scout_cfg = replace(self.config.for_mode(mode),
                            concrete=False, collect_traces=False)
        stack = resolve_policies(scout_cfg)

        def scout() -> Executor:
            return Executor(self.net, scout_cfg, stack, planning)

        prediction = None
        if self.verify_plans:
            from repro.check.diagnostics import CheckReport
            from repro.check.plan_verifier import (
                PlanVerificationError, verify_run)
            diags, prediction = verify_run(
                scout, target, cost=self.cost_report)
            if diags:
                raise PlanVerificationError(CheckReport(
                    tool="plan-verifier", diagnostics=diags,
                    checked=[target]))
        else:
            with scout() as ex:
                if self.cost_report:
                    from repro.check.cost_model import fold
                    prediction = fold(ex, ex._run_recorded(0), target)
                else:
                    ex.run_iteration(0)
        return next((p.cache.outcome() for p in stack
                     if p.key == "offload"), None), prediction

    # -------------------------------------------------------------- spawning
    def executor(self, mode: str = "train",
                 extra_policies: Tuple[MemoryPolicy, ...] = ()) -> Executor:
        """A fresh executor over this engine's cached planning — the one
        place a run's executor is built — and once the mode is
        :meth:`compiled`, from its scout's record.  It runs no scout."""
        eff = self.config.for_mode(mode)
        stack = resolve_policies(eff) + list(extra_policies)
        planning = self._compiled.get(mode) or self.planning(mode)
        return Executor(self.net, eff, stack, planning)

    def session(self, mode: str = "train"):
        """Spawn a lightweight session sharing this engine's plans."""
        from repro.core.session import Session  # lazy: avoid cycle
        return Session(engine=self, mode=mode)

    # ----------------------------------------------------------- concurrency
    def parallel_run(self, sessions: Sequence, iters: int,
                     start_iteration: int = 0,
                     timeout: Optional[float] = None
                     ) -> List[List[IterationResult]]:
        """Drive N sessions concurrently, one thread per session.

        Threads interleave at *op* granularity (wherever the
        interpreter switches them): safe because every piece of mutable
        tensor state is session-local (``SessionTensorState``), so the
        per-session result lists returned here are **bit-identical** to
        running the same sessions one after another.  That guarantee
        assumes the data layer's ``provider`` is a pure function of the
        iteration number (the default ``synthetic_provider`` is); a
        stateful provider — a dataset cursor, an impure rng — lives on
        the shared layer and would hand interleaved batches to
        concurrent sessions.

        ``sessions`` must come from this engine's :meth:`session`.
        Sim-mode train sessions may run in parallel (they never touch
        parameter values); *concrete* train sessions are rejected —
        they would race on the shared weights and BN running
        statistics.  ``timeout`` (seconds, one shared deadline covering
        every session) turns a hung session into a loud
        ``TimeoutError`` instead of a silent stall.  The hung worker
        threads are abandoned, not joined — note they are non-daemon,
        so a truly wedged session still blocks *interpreter exit*;
        pair the timeout with a process-level kill (CI
        ``timeout-minutes``, or ``os._exit`` as ``repro infer`` does)
        when a hang must not outlive the error.

        With the process span tracer (:mod:`repro.obs.trace`) armed
        before the sessions' executors build, each session gets a
        ``session.run`` span over ``iters`` per-iteration spans and a
        device timeline with a bounded op log — the ``repro.cli infer
        --trace-out`` path.
        """
        sessions = list(sessions)
        if not sessions:
            return []
        if len({id(s) for s in sessions}) != len(sessions):
            raise ValueError(
                "parallel_run needs distinct sessions: driving one "
                "session from two threads would share its executor's "
                "session-local state")
        for s in sessions:
            if s.engine is not self:
                raise ValueError(
                    "parallel_run drives sessions of THIS engine; spawn "
                    "them with engine.session(...)")
            if s.mode == "train" and self.config.concrete:
                raise TypeError(
                    "concrete train-mode sessions share parameter values "
                    "and BN running statistics; drive them sequentially "
                    "or give each its own engine")
        # Compile + substrate construction happen serially up front:
        # the lazy compile cache is engine state, and building here
        # keeps the worker threads pure run loops over session-local
        # state (the one remaining shared write, lazy parameter-value
        # materialization, is value-deterministic either way).
        for s in sessions:
            s.executor

        # No context manager here: its shutdown(wait=True) would block
        # on a hung worker thread and swallow the very TimeoutError the
        # timeout promises.  One shared deadline covers all sessions;
        # FIRST_EXCEPTION surfaces a crashed session immediately
        # instead of hiding it behind slow (or hung) siblings; on
        # timeout the pool is abandoned (wait=False) so the error
        # propagates immediately (the CI job timeout reaps the rest).
        pool = ThreadPoolExecutor(max_workers=len(sessions),
                                  thread_name_prefix="repro-session")
        deadline = None if timeout is None else monotonic() + timeout

        # pool threads are not TracedThreads, so the submit/collect
        # hand-off records explicit channel edges: everything done here
        # (compile cache, substrate construction) happens-before the
        # worker's first step, and each worker's last step
        # happens-before the result collection below
        def _run_traced(s, token, index):
            if _ins.ACTIVE is not None:
                channel_recv(token, "parallel_run.submit")
            tracer = obs_trace.ACTIVE
            span = None if tracer is None else tracer.root(
                "session.run", cat="engine",
                attrs={"session": index, "net": self.net.name,
                       "mode": s.mode, "iters": iters})
            try:
                out = s.run(iters, start_iteration=start_iteration)
            except BaseException as exc:
                if span is not None:
                    span.finish(status="error",
                                error=type(exc).__name__)
                raise
            else:
                if span is not None:
                    span.finish()
                return out
            finally:
                if _ins.ACTIVE is not None:
                    channel_send(f"done:{token}", "parallel_run.done")

        tokens = [f"parallel:{id(self)}:{i}" for i in range(len(sessions))]
        futures = []
        for i, (s, token) in enumerate(zip(sessions, tokens)):
            if _ins.ACTIVE is not None:
                channel_send(token, "parallel_run.submit")
            futures.append(pool.submit(_run_traced, s, token, i))
        try:
            done, not_done = futures_wait(futures, timeout=timeout,
                                          return_when=FIRST_EXCEPTION)
            failed = next((f for f in done
                           if f.exception() is not None), None)
            if failed is not None and not_done:
                # a session crashed while siblings still run: let the
                # healthy ones finish so the caller's session.close()
                # cannot race their in-flight iterations — but bound
                # the drain (grace period when no deadline exists), or
                # a hung sibling would suppress the captured error
                # forever
                remaining = 60.0 if deadline is None \
                    else max(0.0, deadline - monotonic())
                futures_wait(not_done, timeout=remaining)
            if failed is not None:
                failed.result()  # re-raise the session's real error
            if not_done:
                # flight-record the hang before raising: the dump holds
                # the recent event ring + the last spans, the forensics
                # a post-mortem of a wedged session starts from
                obs_recorder.RECORDER.note(
                    "parallel_run.timeout",
                    f"{len(not_done)}/{len(futures)} sessions hung",
                    net=self.net.name, iters=iters, timeout=timeout)
                obs_recorder.RECORDER.dump("parallel-run-timeout")
                raise FuturesTimeoutError(
                    f"{len(not_done)}/{len(futures)} sessions still "
                    f"running after {timeout}s")
            for token in tokens:
                if _ins.ACTIVE is not None:
                    channel_recv(f"done:{token}", "parallel_run.done")
            return [f.result() for f in futures]
        finally:
            hung = any(not f.done() for f in futures)
            pool.shutdown(wait=not hung, cancel_futures=True)

    # --------------------------------------------------------------- weights
    def snapshot_params(self) -> Dict[str, np.ndarray]:
        """Copy of every parameter value, keyed by tensor name.

        Materializes lazy initial values (a descriptor-only engine that
        never ran concrete has not paid the RNG cost yet).  The
        returned arrays are copies — mutating them cannot reach the
        live weights, so a snapshot is a safe swap payload.
        """
        out: Dict[str, np.ndarray] = {}
        for layer, p in self._params_by_name().values():
            out[p.name] = np.copy(layer.param_values[p.tensor_id])
        return out

    def _params_by_name(self) -> Dict[str, tuple]:
        """name -> (layer, param tensor), refusing ambiguous names.

        Nothing enforces unique layer names at build time, and a
        colliding name would make a full-snapshot swap silently skip
        one layer's weights — fail loudly instead.
        """
        by_name: Dict[str, tuple] = {}
        for layer in self.net.layers:
            for p in layer.params:
                if p.name in by_name:
                    raise ValueError(
                        f"parameter tensor name {p.name!r} is ambiguous "
                        "(two layers share a name); weight swap needs "
                        "unique layer names")
                by_name[p.name] = (layer, p)
        return by_name

    def install_params(self, params: Dict[str, np.ndarray]) -> int:
        """Install updated weight values into the shared parameter store.

        ``params`` maps tensor names (as :meth:`snapshot_params`
        returns them) to arrays; a partial mapping updates only the
        named tensors.  Shapes are validated against the descriptors
        before anything is written, so a bad payload cannot leave the
        net half-swapped.  Returns the number of tensors installed and
        bumps :attr:`weights_version`.

        This is the ROADMAP's hot-swap *hook*: the parameter values are
        the one store every session of this engine shares, so the
        caller must quiesce concurrent sessions first —
        :meth:`repro.serve.InferenceServer.swap_weights` wraps this in
        a step barrier so in-flight batches finish on the old weights.
        """
        by_name = self._params_by_name()
        unknown = sorted(set(params) - set(by_name))
        if unknown:
            raise KeyError(
                f"unknown parameter tensors {unknown}; known names come "
                "from engine.snapshot_params()")
        staged = []
        for name, value in params.items():
            layer, p = by_name[name]
            arr = np.ascontiguousarray(value, dtype=np.float32)
            if arr.shape != p.shape:
                raise ValueError(
                    f"parameter {name!r} expects shape {p.shape}, "
                    f"got {arr.shape}")
            staged.append((layer, p, arr))
        if _ins.ACTIVE is not None:
            trace_write(self, "engine.params")
        for layer, p, arr in staged:
            layer.param_values[p.tensor_id] = arr
        # the caller quiesces sessions around the swap (see docstring);
        # the version bump is that documented barrier, not compile state
        if _ins.ACTIVE is not None:
            trace_write(self, "engine.weights_version")
        self.weights_version += 1  # repro-lint: allow LINT003 swap barrier
        return len(staged)

    # ------------------------------------------------------------ inspection
    @property
    def compiled_modes(self) -> Tuple[str, ...]:
        return tuple(sorted(self._compiled))

    @property
    def input_shape(self) -> Tuple[int, ...]:
        """The compiled input shape (every mode shares the net's data
        layer, so the frozen batch shape is mode-independent)."""
        return self.net.data_layer.shape

    @property
    def batch_size(self) -> int:
        """Rows per compiled batch — the shape serving must pad/split
        variable-sized requests into."""
        return self.input_shape[0]

    def supports_parallel(self, mode: str = "infer") -> bool:
        """Whether :meth:`parallel_run` accepts sessions of ``mode``:
        infer sessions always (they never write shared state); train
        sessions only in simulated mode (concrete train would race on
        the shared weights and BN running statistics)."""
        _check_mode(mode)
        return mode == "infer" or not self.config.concrete

    def describe(self) -> str:
        modes = ", ".join(
            f"{m} [{'x'.join(str(d) for d in self.input_shape)}]"
            for m in self.compiled_modes) or "none yet"
        parallel = ", ".join(m for m in MODES if self.supports_parallel(m))
        return (f"Engine({self.net.name}, {len(self.net)} layers, "
                f"batch {self.batch_size}, compiled modes: {modes}; "
                f"parallel drive: {parallel or 'none'}; "
                f"weights v{self.weights_version})")


def compile(net: Net, config: Optional[RuntimeConfig] = None,
            modes: Tuple[str, ...] = (),
            verify: bool = False, cost_report: bool = False) -> Engine:
    """Compile a network into an :class:`Engine`.

    ``modes`` eagerly compiles the named execution modes; by default
    compilation happens lazily when the first session of a mode runs.
    ``verify=True`` has the plan verifier judge every mode's scout
    iteration and refuses to cache one that fails (see
    :mod:`repro.check`);
    ``cost_report=True`` additionally predicts every compiled mode's
    cost and stashes the advisory report on ``engine.cost_reports``.
    """
    engine = Engine(net, config, verify=verify, cost_report=cost_report)
    for mode in modes:
        engine.compiled(mode)
    return engine
