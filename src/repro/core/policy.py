"""The pluggable memory-policy API: the runtime's step loop is policy-free.

The paper's four memory optimizations — liveness analysis (§3.2), UTP
offload/prefetch with the LRU tensor cache (§3.3), cost-aware
recomputation (§3.4), and dynamic conv workspaces (§3.5) — are
*orthogonal* techniques that compose (the ablation ladder baseline →
+liveness → +UTP → +recompute).  This module makes that orthogonality
structural: each technique is a :class:`MemoryPolicy` that observes the
executor's step loop through lifecycle hooks and acts only through the
sanctioned operations of a :class:`StepContext` facade.  The executor
itself (:mod:`repro.core.runtime`) contains no policy-specific branches;
adding a new eviction schedule or prefetch heuristic is a new policy
class plus a :func:`register_policy` line, never an edit to the loop.

A policy *decides*: ``compile_plan`` hands its per-step schedule to the
executor, once per link, and the plan's ops run in the policy's stack
position, before its own hook at each hook site.  Every hook a policy
overrides fires, in its stack position, on every iteration; a plan
only adds ops.  Every built-in policy answers from the route alone;
what depends on the moment — the workspace pick, recomputation's
cleanup — is decided at the step.

Hook protocol (all optional; the base class no-ops everything):

========================  =====================================================
``on_iteration_start``    once per iteration, before the first step
``before_step``           before a step's kernels run (and before its reads
                          are made resident)
``before_compute``        after the step's operands are resident and locked,
                          before its kernel is submitted — the moment to
                          provision scratch (workspaces) and override the
                          simulated duration
``after_step``            right after the step's kernels, *before* dead-tensor
                          reclamation settles (dispatch in stack order is the
                          reclamation order: offload registration must precede
                          liveness frees, which precede recompute cleanup)
``on_step_settled``       after every policy's ``after_step`` — the step's
                          frees have landed; prefetch-ahead and the tensor
                          cache's return trip are issued here so tensors
                          arrive just-in-time and the measured peak stays at
                          the paper's l_peak
``on_tensor_dead``        a tensor was fully discarded (GPU + host + payload)
``on_tensor_released``    a tensor lost its GPU copy but survives in host RAM
``on_tensor_resident``    a tensor just gained a GPU allocation
                          (``source`` is ``"alloc"`` or ``"prefetch"``)
``on_tensor_access``      a GPU-resident tensor was read by a kernel
``on_memory_pressure``    an allocation failed; the policy may free bytes and
                          retry via the provided callback
``on_backward_need``      a backward step needs tensors that are no longer
                          live (the recomputation trigger)
``on_iteration_end``      after the last step, before the iteration barrier
========================  =====================================================
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple, Type

from repro.core import config as _config
from repro.core.cache import TensorCache, Victim, choose_drops
from repro.core.config import OFFLOAD_TYPES, RecomputeStrategy, RuntimeConfig
from repro.core.plan import (
    EXHAUSTED, SCRATCH, SUBMIT, UNSCRATCH, PolicyPlan, kernel_clock,
    zero_workspace)
from repro.core.recompute import chain_of
from repro.core.tensor_state import ResidencyError
from repro.core.workspace import WorkspaceChoice, WorkspaceSelector
from repro.device.dma import CopyDirection
from repro.device.gpu import OutOfMemoryError
from repro.device.timeline import Stream
from repro.graph.route import Phase, Step
from repro.layers.base import Layer, LayerContext, LayerType
from repro.layers.conv import Conv2D, ConvAlgo
from repro.mempool.allocator import Allocation
from repro.tensors.tensor import Tensor, TensorKind


class StepContext:
    """Facade through which policies observe and act on the executor.

    Policies never touch ``Executor`` internals; every state mutation
    goes through a sanctioned operation below, so the executor remains
    free to change its bookkeeping without breaking policy code.
    """

    #: This session's :class:`~repro.core.tensor_state.SessionTensorState`:
    #: the ONE place policies read/write per-tensor scheduling state
    #: (placement, locks, host residency).  Descriptors are shared by
    #: every session of an engine; this table is not.  A plain attribute,
    #: set per instance: residency checks read it on every step.
    state = None

    def __init__(self, executor) -> None:
        self._ex = executor
        self.state = executor.state
        self.iteration: int = 0
        self.layer_ctx: Optional[LayerContext] = None
        self.step: Optional[Step] = None
        self.last_compute_event = None
        self.step_duration: Optional[float] = None
        self.step_workspace: Optional[WorkspaceChoice] = None
        self._scratch: List[Allocation] = []
        #: conv layer id -> its last rebuild's pick
        self._rebuild_picks: Dict[int, WorkspaceChoice] = {}

    # -- iteration/step bookkeeping (driven by the executor) ----------------
    def _begin_iteration(self, iteration: int, layer_ctx: LayerContext) -> None:
        self.iteration = iteration
        self.layer_ctx = layer_ctx

    def _begin_step(self, step: Step) -> None:
        self.step = step
        self.last_compute_event = None
        self.step_duration = None
        self.step_workspace = None

    # -- read-only views ----------------------------------------------------
    @property
    def net(self):
        return self._ex.net

    @property
    def route(self):
        return self._ex.route

    @property
    def model(self):
        return self._ex.model

    @property
    def store(self):
        return self._ex.store

    @property
    def concrete(self) -> bool:
        return self._ex.concrete

    @property
    def plan(self):
        """The compiled :class:`~repro.core.liveness.LivenessPlan`."""
        return self._ex.plan

    @property
    def recompute_plan(self):
        return self._ex.recompute_plan

    @property
    def free_bytes(self) -> int:
        return self._ex.allocator.free_bytes

    @property
    def cache_armed(self) -> bool:
        """Does the resolved stack carry an armed tensor cache?  Read
        from the stack, not the config, so explicit stacks agree."""
        p = self._ex._offload_policy
        return p is not None and p.cache_mode

    @property
    def pending_offloads(self) -> int:
        """Number of offload copies still in flight."""
        return len(self._ex._pending)

    def offload_in_flight(self, t: Tensor) -> bool:
        return any(p.tensor is t for p in self._ex._pending)

    def reads_at(self, step_index: int, include_synthetic: bool = True
                 ) -> List[Tensor]:
        return self._ex.liveness.reads_at(step_index, include_synthetic)

    # -- sanctioned operations ----------------------------------------------
    def alloc_tensor(self, t: Tensor) -> Allocation:
        """Give ``t`` a GPU allocation (reaping/evicting under pressure)."""
        return self._ex._gpu_alloc_tensor(t)

    def alloc_scratch(self, nbytes: int, tag: str = "") -> Optional[Allocation]:
        """Step-scoped scratch (freed by the executor after the kernel).

        Returns ``None`` when the bytes cannot be carved out — scratch
        is best-effort by design: it may shrink the speed, never break
        the training.
        """
        ex = self._ex
        try:
            a = ex.allocator.alloc(nbytes, tag)
        except OutOfMemoryError:
            if ex._rec is not None:
                ex._rec.append((EXHAUSTED, nbytes, tag))
            return None
        if ex._rec is not None:
            ex._rec.append((SCRATCH, None, a))
        self._scratch.append(a)
        return a

    def set_duration(self, seconds: float) -> None:
        """Override the simulated kernel duration of the current step."""
        self.step_duration = seconds

    def set_workspace(self, choice: WorkspaceChoice) -> None:
        """Record the workspace choice shown in the step trace."""
        self.step_workspace = choice

    def discard(self, t: Tensor) -> None:
        """Free ``t`` everywhere (GPU, host, payload)."""
        self._ex._discard(t)

    def release_gpu(self, t: Tensor) -> None:
        """Drop the GPU copy only; the host copy keeps ``t`` live.  A
        tensor with no host copy is refused (``ResidencyError``)."""
        self._ex._free_gpu_only(t)

    def make_resident(self, t: Tensor) -> None:
        """Block until ``t`` is usable on the GPU."""
        self._ex._make_gpu_resident(t)

    def offload(self, t: Tensor, after=None) -> None:
        """Start an async D2H copy of ``t`` (eager UTP offload)."""
        self._ex._offload_async(t, after=after)

    def prefetch(self, t: Tensor) -> bool:
        """Start bringing a host tensor back; False when no room."""
        return self._ex._prefetch_async(t)

    def evict_to_host(self, t: Tensor) -> int:
        """Synchronous offload (LRU.out victim path); returns bytes freed."""
        return self._ex._evict_to_host(t)

    def reap_offloads(self) -> None:
        """Free GPU copies whose D2H transfer has completed by now."""
        self._ex._reap_offloads()

    def force_reap_one(self) -> None:
        """Block on the oldest in-flight offload (stalls compute)."""
        self._ex._force_reap_one()

    def submit_compute(self, duration: float, label: str = ""):
        ex = self._ex
        ev = ex.timeline.submit(Stream.COMPUTE, duration, label)
        if ex._rec is not None:
            ex._rec.append((SUBMIT, duration, label))
            events = ex._log.events
            events[ev.event_id] = len(events)
        return ev

    # -- the tensor cache's, not part of the policy protocol --------------
    def _copy_seconds(self, t: Tensor, direction: CopyDirection) -> float:
        """One copy of ``t`` between the GPU and the first external
        pool, where an eviction goes while it has room."""
        pool = self._ex.fabric.pools[0]
        scale = pool.h2d_scale if direction is CopyDirection.H2D \
            else pool.d2h_scale
        return self._ex.dma.copy_time(t.nbytes, direction, scale)

    def _dropped(self, t: Tensor) -> bool:
        """Is ``t`` a victim the tensor cache discards instead of
        evicting (its rebuild is recomputation's job)?"""
        cache = self._ex.cache
        return cache is not None and t.tensor_id in cache.drops

    # -- recomputation's, not part of the policy protocol -----------------
    def _rebuild_workspace(self, conv: Conv2D
                           ) -> Tuple[Optional[ConvAlgo],
                                      Optional[Allocation]]:
        """Provision the re-run of a dropped victim's conv: the workspace
        selector picks the fastest algorithm whose workspace fits the
        bytes free below the iteration's high-water mark so far, so a
        rebuild never raises the peak, and its scratch is reserved; the
        zero-workspace algorithm when the reservation fails.  Returns
        the algorithm (None without a workspace policy: the default)
        and the scratch, for :meth:`_release_scratch` once the kernel
        is submitted."""
        ex = self._ex
        selector = ex.selector
        if selector is None:
            return None, None
        allocator = ex.allocator
        budget = min(allocator.free_bytes,
                     allocator.peak_bytes - allocator.used_bytes)
        # the pick is a pure function of the budget: memoised on it, as
        # a workspace op's is on the free bytes
        seen = self._rebuild_picks.get(conv.layer_id)
        if seen is not None and seen.budget_bytes == budget:
            choice = selector.record(seen)
        else:
            choice = self._rebuild_picks[conv.layer_id] = selector.select(
                conv, budget, "forward")
        ws_bytes = choice.assigned_ws
        if ws_bytes == 0:
            return choice.algo, None
        if ws_bytes <= budget:
            tag = f"ws:{conv.name}"
            try:
                scratch = allocator.alloc(ws_bytes, tag)
            except OutOfMemoryError:
                if ex._rec is not None:
                    ex._rec.append((EXHAUSTED, ws_bytes, tag))
            else:
                if ex._rec is not None:  # a table holds it as step scratch
                    ex._rec.append((SCRATCH, None, scratch))
                return choice.algo, scratch
        return zero_workspace(self.model, selector, conv, choice,
                              budget).algo, None

    def _release_scratch(self, scratch: Allocation) -> None:
        ex = self._ex
        if ex._rec is not None:
            ex._rec.append((UNSCRATCH, None, None))
        ex.allocator.free(scratch)

    def _log_rebuild(self, anchor: Layer, strategy: str,
                     layers: Iterable[Layer]) -> None:
        """Log a rebuild's start (``layers`` read only while recording)."""
        ex = self._ex
        if ex._rec is not None:
            ex._log.rebuilds.append((len(ex._rec), anchor.name, strategy,
                                     [layer.layer_id for layer in layers]))


class MemoryPolicy:
    """Base class: a named bundle of lifecycle hooks (all no-ops).

    Subclasses override the hooks they care about and declare:

    * ``key`` — the registry name (``"liveness"``, ``"offload"``, ...);
    * ``from_config`` — build an instance from a :class:`RuntimeConfig`;
    * ``configure`` — map fluent ``Session.with_policy`` options onto
      the config, so the config object remains the single source of
      truth the stack is resolved from;
    * ``describe`` — one-line summary for the ``repro policies`` CLI.
    """

    key: str = ""

    #: True for policies that only bridge the forward->backward gap
    #: (offload, recompute): RuntimeConfig.for_mode("infer") disarms
    #: them and Session.with_policy rejects arming them on infer
    #: sessions — one flag, both surfaces.
    backward_only: bool = False

    # -- construction / config mapping --------------------------------------
    @classmethod
    def from_config(cls, config: RuntimeConfig) -> "MemoryPolicy":
        return cls()

    @classmethod
    def configure(cls, config: RuntimeConfig, **options) -> RuntimeConfig:
        if options:
            raise TypeError(
                f"policy {cls.key!r} takes no options, got {sorted(options)}")
        return config

    @classmethod
    def disarm(cls, config: RuntimeConfig) -> RuntimeConfig:
        """Undo everything :meth:`configure` arms on the config.

        ``Session.without_policy`` dispatches here through the
        registry, so arming and disarming can never drift apart.
        Policies that only exist as explicit instances (nothing in the
        config denotes them) have nothing to disarm.
        """
        raise TypeError(
            f"policy {cls.key!r} is not config-armed; remove the "
            "instance from the stack instead of disarming it")

    def describe(self) -> str:
        return self.key

    def bind(self, ctx: StepContext) -> None:
        """Called once when the executor is built (plans exist)."""

    # -- plan compilation -----------------------------------------------------
    def compile_plan(self, ctx: StepContext) -> PolicyPlan:
        """This policy's per-step decisions as schedules.

        Asked once per link: an executor links its plan before its first
        iteration and reuses it (with ``steady_state_replay=False``, it
        links before every iteration).  The plan's ops run in the
        policy's stack position, before its own hook at each hook site;
        every hook the policy overrides is dispatched whatever it
        answers.  Default: the empty plan, which adds no op.
        """
        return PolicyPlan()

    # -- lifecycle hooks ----------------------------------------------------
    def on_iteration_start(self, ctx: StepContext) -> None: ...
    def before_step(self, ctx: StepContext, step: Step) -> None: ...
    def before_compute(self, ctx: StepContext, step: Step) -> None: ...
    def after_step(self, ctx: StepContext, step: Step) -> None: ...
    def on_step_settled(self, ctx: StepContext, step: Step) -> None: ...
    def on_tensor_dead(self, ctx: StepContext, t: Tensor) -> None: ...
    def on_tensor_released(self, ctx: StepContext, t: Tensor) -> None: ...
    def on_tensor_resident(self, ctx: StepContext, t: Tensor,
                           source: str) -> None: ...
    def on_tensor_access(self, ctx: StepContext, t: Tensor) -> None: ...

    def on_memory_pressure(
        self, ctx: StepContext, nbytes: int, tag: str,
        retry: Callable[[], Optional[Allocation]],
    ) -> Optional[Allocation]:
        """Free bytes and ``retry()``; return the allocation or None."""
        return None

    def on_backward_need(self, ctx: StepContext, step: Step,
                         missing: List[Tensor]) -> None: ...
    def on_iteration_end(self, ctx: StepContext) -> None: ...


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #

POLICY_REGISTRY: Dict[str, Type[MemoryPolicy]] = {}


def register_policy(cls: Type[MemoryPolicy]) -> Type[MemoryPolicy]:
    """Class decorator: add a policy to the string-keyed registry."""
    if not cls.key:
        raise ValueError(f"{cls.__name__} must define a registry key")
    POLICY_REGISTRY[cls.key] = cls
    return cls


def resolve_policies(config: RuntimeConfig) -> List[MemoryPolicy]:
    """The ordered policy stack a config denotes.

    Order is load-bearing: ``after_step`` dispatches in stack order, and
    eager-offload registration must precede liveness frees (so frees
    skip tensors with copies in flight), which precede recompute
    cleanup.  The workspace policy is always armed — even the "none"
    mode records a (zero-workspace) choice per conv execution, which the
    Fig. 12 traces rely on.
    """
    stack: List[MemoryPolicy] = []
    if config.use_offload:
        stack.append(OffloadCachePolicy.from_config(config))
    if config.use_liveness:
        stack.append(LivenessPolicy.from_config(config))
    if config.recompute is not RecomputeStrategy.NONE:
        stack.append(RecomputePolicy.from_config(config))
    stack.append(WorkspacePolicy.from_config(config))
    return stack


# --------------------------------------------------------------------------- #
# the four built-in policies
# --------------------------------------------------------------------------- #

@register_policy
class LivenessPolicy(MemoryPolicy):
    """Free tensors the moment no later step reads them (paper §3.2).

    The per-step free lists come from the executor's compiled
    :class:`~repro.core.liveness.LivenessPlan`; this policy hands them
    over as its schedule and the plan's frees op executes them.
    Tensors with an offload copy in flight are skipped — completing the
    copy retires the GPU bytes instead.
    """

    key = "liveness"

    def __init__(self, scope: str = "all") -> None:
        self.scope = scope

    @classmethod
    def from_config(cls, config: RuntimeConfig) -> "LivenessPolicy":
        return cls(scope=config.liveness_scope)

    @classmethod
    def configure(cls, config: RuntimeConfig, scope: str = "all"
                  ) -> RuntimeConfig:
        if scope not in ("all", "grads_only"):
            raise ValueError(f"unknown liveness scope {scope!r}")
        config.use_liveness = True
        config.liveness_scope = scope
        return config

    @classmethod
    def disarm(cls, config: RuntimeConfig) -> RuntimeConfig:
        config.use_liveness = False
        return config

    def describe(self) -> str:
        return f"liveness(scope={self.scope})"

    def compile_plan(self, ctx: StepContext) -> PolicyPlan:
        # The free lists come straight from the compiled LivenessPlan:
        # per-topology by construction (paper §3.2).
        return PolicyPlan(step_frees=ctx.plan.freeze())


@register_policy
class OffloadCachePolicy(MemoryPolicy):
    """The Unified Tensor Pool (paper §3.3): offload, prefetch, cache.

    Two modes, mirroring the paper's ablation:

    * **eager** (``cache=None``) — checkpoint outputs start a D2H copy
      right after their forward kernel; backward steps prefetch the next
      step's host-resident reads on the H2D stream.
    * **cache** (``cache="lru"|"fifo"|"lfu"``) — tensors stay on the GPU
      while room remains; Alg. 2's ``LRU.out`` evicts under pressure.
      Both halves of the traffic that follows hide under compute.  Out:
      each line the last iteration evicted starts its D2H copy as soon
      as its producer has run (:func:`~repro.core.plan.
      _make_recorded_clean_op`).  Back: evicted lines
      return on a just-in-time return trip timed against their first
      backward reader (:func:`~repro.core.plan._make_return_trip_ops`).
      Neither way: from the first record on, the recorded conv outputs
      whose rebuild costs less than the copy time they expose are
      discarded instead (:func:`~repro.core.cache.choose_drops`) and
      recomputation rebuilds them on backward demand.  The engine's
      scout runs the one iteration with no record; every executor of a
      compiled mode starts from its outcome (``ModePlanning.
      cache_seed``), so its first iteration runs on the record too.
    """

    key = "offload"
    backward_only = True  # offload exists to cover backward reads

    def __init__(self, cache_policy: Optional[str] = "lru") -> None:
        self.cache_mode = cache_policy is not None
        self.cache = TensorCache(policy=cache_policy or "lru")
        #: an armed cache in the paper's order: a line's position is all
        #: there is to keep, and the hooks move it themselves
        self._lru = cache_policy == "lru"
        self._lines = self.cache.lines
        self._ctx: Optional[StepContext] = None

    @classmethod
    def from_config(cls, config: RuntimeConfig) -> "OffloadCachePolicy":
        return cls(cache_policy=config.cache_policy
                   if config.use_tensor_cache else None)

    @classmethod
    def configure(cls, config: RuntimeConfig,
                  cache: Optional[str] = "lru",
                  pinned: Optional[bool] = None,
                  pools: Optional[tuple] = None) -> RuntimeConfig:
        config.use_offload = True
        config.use_tensor_cache = cache is not None
        if cache is not None:
            config.cache_policy = cache
        if pinned is not None:
            config.pinned_host = pinned
        if pools is not None:
            config.external_pools = pools
        return config

    @classmethod
    def disarm(cls, config: RuntimeConfig) -> RuntimeConfig:
        # the tensor cache exists only as the UTP's lazy mode: disarm
        # it too, or a later re-arm would silently inherit stale state
        config.use_offload = False
        config.use_tensor_cache = False
        return config

    def describe(self) -> str:
        mode = f"cache={self.cache.policy}" if self.cache_mode else "eager"
        return f"offload({mode})"

    def bind(self, ctx: StepContext) -> None:
        # the cache's victim filter consults this session's lock bits
        self.cache.bind_state(ctx.state)
        self._ctx = ctx

    # -- the victim record ---------------------------------------------------
    # Pressure evicts the same lines in the same order every iteration,
    # so each session's cache records them and the next iteration
    # cleans them early.  Committed only when an iteration completes.
    def on_iteration_start(self, ctx: StepContext) -> None:
        if self.cache_mode:
            self.cache.begin_iteration()

    def on_iteration_end(self, ctx: StepContext) -> None:
        if self.cache_mode:
            cache = self.cache
            cache.end_iteration()
            if cache.choosing and cache.predicted:
                cache.drop(*self._choose_drops(ctx))

    # -- drop or evict -------------------------------------------------------
    # The first record is also when the cache decides, once, which
    # victims to discard instead of copying: a conv output whose rebuild
    # costs less than the copy time it would expose (``choose_drops``).
    # A compiled mode's scout decides for every executor of the mode;
    # an unseeded executor decides for itself.  The linked plan reads
    # the drop set at run time, so nothing links again when it is
    # chosen.
    def _choose_drops(self, ctx: StepContext
                      ) -> Tuple[Dict[int, int], Dict[int, int],
                                 Dict[int, Tuple[float, float]]]:
        """The drop set (each victim's last forward reader), its chain
        sources' return-trip deadlines and the costs it was chosen on."""
        plan = ctx.recompute_plan
        if not plan.enabled:
            return {}, {}, {}  # nothing would rebuild a dropped victim
        route, model, cache = ctx.route, ctx.model, self.cache
        turn = route.num_layers
        first_use = {tid: at[0] for tid, (_, at)
                     in self._backward_readers(ctx).items()}
        refused = sorted(cache.trip_refused)
        evictions = Counter(t.tensor_id for t, _ in cache.predicted)
        victims, rebuild, last_read = [], {}, {}
        for t, at in cache.predicted:
            tid = t.tensor_id
            layer = ctx.net.layers[t.producer]
            made = route.fstep_of[layer.layer_id]
            read = max((route.fstep_of[c.layer_id] for c in layer.next),
                       default=made)
            use = first_use.get(tid)
            # the H2D copy hides if the return trip brought it back and
            # was never refused room between the step it was due out at
            # and its reader; else it holds others back, or is fetched
            due_out = cache.trip_planned.get(tid)
            hidden = use is None or due_out is not None \
                and bisect_left(refused, due_out) == bisect_left(refused, use)
            victims.append(Victim(
                tid, at, made, ctx._copy_seconds(t, CopyDirection.D2H),
                0.0 if hidden else ctx._copy_seconds(t, CopyDirection.H2D),
                use))
            if layer.ltype is LayerType.CONV and evictions[tid] == 1 \
                    and read < at < (turn if use is None else use):
                members, sources = chain_of(layer, plan.dropped_layers)
                rebuild[tid] = (
                    sum(m.sim_time_forward(model) for m in (layer, *members))
                    if use is not None else 0.0,
                    sources)
                last_read[tid] = read
        drops, due = choose_drops(
            victims, kernel_clock(route.steps, model), rebuild)
        return {tid: last_read[tid] for tid in drops}, due, drops

    def _evict(self, t: Tensor) -> int:
        """``LRU.out``'s movement: a dropped victim goes with no copy
        once its forward readers have run; anything else to the host."""
        ctx = self._ctx
        read = self.cache.drops.get(t.tensor_id)
        if read is not None and ctx.step.index > read:
            ctx.discard(t)
            self.cache.dropped += 1
            return t.nbytes
        return ctx.evict_to_host(t)

    # -- cache membership ----------------------------------------------------
    # One membership move per hook.  Under "lru" it is made here, in the
    # hook's own frame: ``LRU.in``/``Check``/removal are an OrderedDict
    # move each (``TensorCache.insert``/``touch``/``remove``, inlined).
    # The ablation orders also count arrivals and touches, through the
    # cache's methods.  In eager mode the cache is dormant and every
    # hook returns at once — a touch there would tick a miss per access.
    def on_tensor_resident(self, ctx: StepContext, t: Tensor,
                           source: str) -> None:
        if t.kind is TensorKind.DATA:
            if self._lru:
                self._lines[t.tensor_id] = t
                self._lines.move_to_end(t.tensor_id, last=False)
            elif self.cache_mode:
                self.cache.insert(t)

    def on_tensor_access(self, ctx: StepContext, t: Tensor) -> None:
        if self._lru:
            if t.tensor_id in self._lines:
                self._lines.move_to_end(t.tensor_id, last=False)
                self.cache.hits += 1
            else:
                self.cache.misses += 1
        elif self.cache_mode:
            self.cache.touch(t)

    def on_tensor_dead(self, ctx: StepContext, t: Tensor) -> None:
        if self._lru:
            self._lines.pop(t.tensor_id, None)
        elif self.cache_mode:
            self.cache.remove(t)

    def on_tensor_released(self, ctx: StepContext, t: Tensor) -> None:
        if self._lru:
            self._lines.pop(t.tensor_id, None)
        elif self.cache_mode:
            self.cache.remove(t)

    # -- pressure cascade ----------------------------------------------------
    def on_memory_pressure(
        self, ctx: StepContext, nbytes: int, tag: str,
        retry: Callable[[], Optional[Allocation]],
    ) -> Optional[Allocation]:
        # 1) reap any completed eager offloads
        ctx.reap_offloads()
        a = retry()
        if a is not None:
            return a
        # 2) force-complete pending offloads (stalls compute)
        while ctx.pending_offloads:
            ctx.force_reap_one()
            a = retry()
            if a is not None:
                return a
        # 3) LRU eviction (Alg. 2 LRU.out) if the cache is armed.  The
        # loop handles fragmentation: freed bytes may not be contiguous,
        # so keep evicting (coalescing merges holes) until the request
        # fits or nothing evictable remains.
        if self.cache_mode:
            while True:
                freed = self.cache.evict_for(nbytes, self._evict,
                                             ctx.step.index)
                a = retry()
                if a is not None or freed == 0:
                    return a
        return None
    # (The executor, not on_iteration_end, owns the iteration barrier
    # and drains in-flight copies itself, so a stack without this
    # policy — or a custom one that offloads directly — can never leak
    # pendings.)

    # -- the step schedule ---------------------------------------------------
    def compile_plan(self, ctx: StepContext) -> PolicyPlan:
        # Both modes have a static *step* schedule, derived from the
        # route.
        steps = ctx.route.steps
        backward = [s for s in steps if s.phase is Phase.BACKWARD]
        if self.cache_mode:
            # What is on the host at the turn is whatever pressure put
            # there, so the schedule is the *need order*: each data
            # tensor's first backward reader, recompute anchors
            # included (a chain re-run reads them from outside).  The
            # return-trip ops time each evicted line's H2D copy against
            # that deadline.  No eager copies ⇒ nothing to reap before
            # steps, nothing to register after them.  Which lines
            # pressure takes is the session's record; where each one's
            # clean copy may start, its producer's forward step, is the
            # route's.
            producers = {s.layer.output.tensor_id: s.index for s in steps
                         if s.phase is Phase.FORWARD
                         and s.layer.output is not None}
            readers = self._backward_readers(ctx)
            return PolicyPlan(
                return_trip=tuple((at[0], t) for t, at in readers.values()),
                readers={tid: tuple(at) for tid, (_, at) in readers.items()},
                producers=producers)
        # Eager: a checkpoint output's D2H copy starts right after its
        # forward kernel (ordered after the kernel's event, so it
        # overlaps the following forward compute, and registered before
        # the liveness frees run so they skip it), and completed copies
        # are reaped before every step.  Prefetch-ahead (paper §3.3.1)
        # — each backward step names the next step's reads, and the
        # ones on the host at that moment start their H2D fetch so it
        # overlaps this step's compute.  Issued after the step's frees:
        # identical overlap on the timeline, but tensors land
        # just-in-time so the measured peak stays at l_peak — which the
        # paper's own Fig. 10c peak (exactly max(l_i)) requires.
        offloads = {s.index: (s.layer.output,) for s in steps
                    if s.phase is Phase.FORWARD
                    and s.layer.ltype in OFFLOAD_TYPES}
        prefetch = {}
        for step in backward[:-1]:
            reads = tuple(ctx.reads_at(step.index + 1,
                                       include_synthetic=False))
            if reads:
                prefetch[step.index] = reads
        return PolicyPlan(reap_before_step=True,
                          step_offloads=offloads, step_prefetch=prefetch)

    @staticmethod
    def _backward_readers(ctx: StepContext
                          ) -> Dict[int, Tuple[Tensor, List[int]]]:
        """Each data tensor backward reads -> the backward steps that
        read it (kernel read or recompute-chain input), in route order;
        the tensors in the order of their first reader."""
        readers: Dict[int, Tuple[Tensor, List[int]]] = {}
        for step in ctx.route.steps[ctx.route.num_layers:]:
            i = step.index
            for t in ctx.reads_at(i):
                if t.kind is TensorKind.DATA:
                    at = readers.setdefault(t.tensor_id, (t, []))[1]
                    if not at or at[-1] != i:
                        at.append(i)
        return readers


@register_policy
class RecomputePolicy(MemoryPolicy):
    """Demand-driven segment recomputation (paper §3.4 strategies).

    Absorbs the old ``RecomputeEngine``: when a backward step needs a
    freed recomputable tensor, the segment is re-run forward from its
    checkpoint anchor — once per segment keeping results
    (speed-centric), or chain-per-layer dropping intermediates
    (memory-centric); the cost-aware plan picks per segment.  A conv
    output the tensor cache dropped is re-run from its producer.
    """

    key = "recompute"
    backward_only = True  # segments re-run only on backward demand

    def __init__(self, strategy: RecomputeStrategy =
                 RecomputeStrategy.COST_AWARE) -> None:
        self.strategy = strategy
        self.extra_forwards = 0
        # speed-centric persistents by the step whose sweep frees them:
        # their backward step, or the step that rebuilt them if later
        self._due: Dict[int, List[Tensor]] = {}
        self._materialized: Set[int] = set()  # id(segment anchors) done
        self._transient: List[Tensor] = []
        self._release_anchors = True  # decided once, at bind
        #: (layer id, algorithm name or None for the default) ->
        #: (forward seconds, label) of a re-run, per device
        self._kernels: Dict[Tuple[int, Optional[str]],
                            Tuple[float, str]] = {}

    @classmethod
    def from_config(cls, config: RuntimeConfig) -> "RecomputePolicy":
        return cls(strategy=config.recompute)

    @classmethod
    def configure(cls, config: RuntimeConfig,
                  strategy: str = "cost_aware") -> RuntimeConfig:
        config.recompute = RecomputeStrategy(strategy)
        return config

    @classmethod
    def disarm(cls, config: RuntimeConfig) -> RuntimeConfig:
        config.recompute = RecomputeStrategy.NONE
        return config

    def describe(self) -> str:
        return f"recompute(strategy={self.strategy.value})"

    def bind(self, ctx: StepContext) -> None:
        # An armed tensor cache makes the residency call itself: a
        # fetched anchor stays at its LRU position as a clean line and
        # pressure retires it for free.  Eager mode has nothing else
        # to retire the copy, and Fig. 10c's l_peak rests on it going.
        self._release_anchors = not ctx.cache_armed
        self._kernels = {}

    # -- hooks ---------------------------------------------------------------
    def on_iteration_start(self, ctx: StepContext) -> None:
        self._due.clear()
        self._materialized.clear()
        self._transient.clear()

    def on_backward_need(self, ctx: StepContext, step: Step,
                         missing: List[Tensor]) -> None:
        self.ensure(ctx, missing)

    def after_step(self, ctx: StepContext, step: Step) -> None:
        """Free this step's transients and the persistents due at it."""
        due = self._due.pop(step.index, ()) if self._due else ()
        if not self._transient and not due:
            return
        state = ctx.state
        for t in self._transient:
            if state.is_live(t):
                ctx.discard(t)
        self._transient.clear()
        for t in due:
            if state.is_live(t):
                ctx.discard(t)

    def ensure(self, ctx: StepContext, missing: List[Tensor]) -> None:
        """Make every tensor in ``missing`` resident by recomputation."""
        plan = ctx.recompute_plan
        for t in missing:
            if ctx.state.is_live(t):
                continue
            producer = ctx.net.layers[t.producer]
            if ctx._dropped(t):
                self._rebuild(ctx, producer)
                continue
            seg = plan.segment_of.get(producer.layer_id) \
                if producer.is_recomputable else None
            if seg is None:
                raise ResidencyError(
                    f"tensor {t.name} was freed but its producer "
                    f"{producer.name} is not recomputable — scheduling bug",
                    t, "PLAN004")
            ctx._log_rebuild(seg.anchor, seg.strategy.value, seg.members)
            if seg.strategy is RecomputeStrategy.SPEED_CENTRIC:
                self._materialize_segment(ctx, seg)
            else:
                self._chain_to(ctx, producer, targets={t.tensor_id})

    def _rebuild(self, ctx: StepContext, conv: Layer) -> None:
        """Re-run a conv whose output the tensor cache dropped.  An input
        that is gone too comes back as a transient memory-centric chain
        and goes again as soon as the conv has run."""
        state = ctx.state
        ctx._log_rebuild(conv, "dropped", self._rebuilt(ctx, conv))
        transient = []
        for p in conv.prev:
            if p.is_recomputable and not state.is_live(p.output):
                self._chain_to(ctx, p, targets={p.output.tensor_id})
                transient.append(p.output)
        self._run_forward(ctx, conv)
        for t in transient:
            if state.is_live(t):
                ctx.discard(t)

    def _rebuilt(self, ctx: StepContext, conv: Layer) -> Iterable[Layer]:
        """The layers a dropped conv's rebuild may re-run: the conv and
        the chains that bring its missing inputs back."""
        yield conv
        for p in conv.prev:
            if p.is_recomputable and not ctx.state.is_live(p.output):
                yield from self._chain_layers(ctx, p)

    def _materialize_segment(self, ctx: StepContext, seg) -> None:
        """Speed-centric: re-run every member once, keep the results."""
        if id(seg) in self._materialized:
            # Already rebuilt this iteration; any member freed since then
            # had passed its backward use, so nothing more to do.
            return
        self._materialized.add(id(seg))
        for member in seg.members:
            if member.output is not None and ctx.state.is_live(member.output):
                continue
            self._run_forward(ctx, member)
            due = max(ctx.route.bstep_of[member.layer_id], ctx.step.index)
            self._due.setdefault(due, []).append(member.output)
        self._release_offloaded_anchor(ctx, seg)

    def _release_offloaded_anchor(self, ctx: StepContext, seg) -> None:
        """Drop the anchor's GPU copy once the chain has consumed it.

        The anchor stays in host RAM (it was offloaded); its own
        backward will prefetch it again.  Without this, the anchor
        inflates the segment-backward working set above l_peak —
        the paper's measured AlexNet peak (exactly 4 tensors at LRN1's
        backward) implies their runtime releases it too.  Eager mode
        only (see :meth:`bind`): under an armed cache the anchor is a
        clean line and dropping it here buys a re-fetch per chain.
        """
        out = seg.anchor.output
        state = ctx.state
        if self._release_anchors and out is not None and state.on_gpu(out) \
                and state.host_resident(out) and not state.locked(out):
            ctx.release_gpu(out)

    def _chain_to(self, ctx: StepContext, target_layer: Layer,
                  targets: Set[int]) -> None:
        """Memory-centric: rebuild anchor→target, dropping intermediates
        as soon as their chain consumer has run."""
        chain = self._chain_layers(ctx, target_layer)
        state = ctx.state
        produced: List[Tensor] = []
        for i, member in enumerate(chain):
            if member.output is not None and state.is_live(member.output):
                continue
            self._run_forward(ctx, member)
            produced.append(member.output)
            # inputs that no later chain layer reads can go immediately
            still_needed = {
                inp.tensor_id
                for later in chain[i + 1:]
                for inp in (p.output for p in later.prev)
            }
            for t in list(produced):
                if t.tensor_id in targets or t.tensor_id in still_needed:
                    continue
                if t.tensor_id == member.output.tensor_id:
                    continue
                ctx.discard(t)
                produced.remove(t)
        # whatever remains (the targets) lives only through this step
        self._transient.extend(p for p in produced if state.is_live(p))
        self._release_offloaded_anchor(
            ctx, ctx.recompute_plan.segment_of[target_layer.layer_id])

    def _chain_layers(self, ctx: StepContext,
                      target_layer: Layer) -> List[Layer]:
        """Members between the segment anchor and ``target_layer``, in
        forward route order (the re-execution schedule)."""
        seg = ctx.recompute_plan.segment_of[target_layer.layer_id]
        out: List[Layer] = []
        for m in seg.members:
            out.append(m)
            if m.layer_id == target_layer.layer_id:
                break
        return out

    # -- the actual re-execution ---------------------------------------------
    def _run_forward(self, ctx: StepContext, layer: Layer) -> None:
        state = ctx.state
        for p in layer.prev:
            if not state.is_live(p.output):
                # nested dependency (e.g. a join reading another branch):
                # resolve recursively through the normal path
                self.ensure(ctx, [p.output])
            ctx.make_resident(p.output)
            state.lock(p.output)
        ctx.alloc_tensor(layer.output)
        state.lock(layer.output)
        # a dropped victim's conv runs at the algorithm its workspace
        # fits; every other re-run at its layer's default
        algo, scratch = ctx._rebuild_workspace(layer) \
            if layer.ltype is LayerType.CONV and ctx._dropped(layer.output) \
            else (None, None)
        key = layer.layer_id, algo.name if algo else None
        kernel = self._kernels.get(key)
        if kernel is None:
            kernel = self._kernels[key] = (
                layer.sim_time_forward(ctx.model, algo) if algo
                else layer.sim_time_forward(ctx.model),
                f"recompute:{layer.name}")
        ctx.submit_compute(*kernel)
        if scratch is not None:
            ctx._release_scratch(scratch)
        if ctx.concrete:
            ins = [ctx.store.get_required(p.output) for p in layer.prev]
            out = layer.forward(ins, ctx.layer_ctx)
            assert not (state.validate and state.host_resident(layer.output)), \
                f"{layer.output.name} rewritten over a valid host copy"
            ctx.store.put(layer.output, out)
        for p in layer.prev:
            state.unlock(p.output)
        state.unlock(layer.output)
        self.extra_forwards += 1


@register_policy
class WorkspacePolicy(MemoryPolicy):
    """Dynamic convolution-workspace provisioning (paper §3.5).

    Every conv execution picks the fastest algorithm whose workspace
    fits the bytes currently free, allocates the scratch for the
    kernel's duration, and falls back to the zero-workspace algorithm
    when fragmentation defeats the reservation.  (Not to be confused
    with the :class:`repro.core.config.WorkspacePolicy` *enum*, which
    names the selection mode this policy runs under.)
    """

    key = "workspace"

    def __init__(self, mode: Optional[_config.WorkspacePolicy] = None) -> None:
        self.mode = mode if mode is not None else _config.WorkspacePolicy.DYNAMIC
        self.selector: Optional[WorkspaceSelector] = None

    @classmethod
    def from_config(cls, config: RuntimeConfig) -> "WorkspacePolicy":
        return cls(mode=config.workspace_policy)

    @classmethod
    def configure(cls, config: RuntimeConfig,
                  mode: str = "dynamic") -> RuntimeConfig:
        config.workspace_policy = _config.WorkspacePolicy(mode)
        return config

    @classmethod
    def disarm(cls, config: RuntimeConfig) -> RuntimeConfig:
        config.workspace_policy = _config.WorkspacePolicy.NONE
        return config

    def describe(self) -> str:
        return f"workspace(mode={self.mode.value})"

    def bind(self, ctx: StepContext) -> None:
        self.selector = WorkspaceSelector(self.mode, ctx.model)

    def on_iteration_start(self, ctx: StepContext) -> None:
        # The choice log is per-iteration: without this reset it grew
        # without bound across run_iteration calls on one executor.
        self.selector.reset()

    def compile_plan(self, ctx: StepContext) -> PolicyPlan:
        # The conv steps are the route's; each one's algorithm is picked
        # by its workspace op from the bytes free when it runs.
        return PolicyPlan(workspace_steps=tuple(
            s.index for s in ctx.route.steps if isinstance(s.layer, Conv2D)))
