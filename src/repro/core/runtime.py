"""The SuperNeurons executor: one training iteration under a policy stack.

This is the runtime of paper §3 with the *mechanics* and the *policies*
separated.  The executor owns the substrate — device ledger, timeline,
DMA engine, allocator, tensor store — and a single step loop that walks
the execution route.  Everything the paper calls an optimization lives
in a :class:`~repro.core.policy.MemoryPolicy` dispatched through
lifecycle hooks:

* **liveness** (``LivenessPolicy``) — after every step, tensors past
  their last use are freed (plan precomputed by
  :class:`~repro.core.liveness.LivenessAnalysis`);
* **UTP offload/prefetch + tensor cache** (``OffloadCachePolicy``) —
  checkpoint outputs are copied to host on the D2H stream during the
  forward pass (eager mode) or evicted on pressure (cache mode);
  backward steps prefetch upcoming host-resident reads on H2D;
* **recomputation** (``RecomputePolicy``) — backward steps that need a
  freed recomputable tensor re-run the segment forward from its anchor
  (and a conv output the tensor cache dropped, its producer);
* **dynamic workspaces** (``WorkspacePolicy``) — every conv execution
  picks the fastest algorithm whose workspace fits the bytes free.

The step loop itself contains no policy-specific branches, and the
executor plans nothing: :class:`~repro.core.engine.Engine` resolves the
stack from the :class:`~repro.core.config.RuntimeConfig`, derives the
route and analyses once per mode, and hands both in — new policies are
new classes, not new branches here.

The executor runs identically in concrete mode (NumPy payloads, used to
prove numerical equivalence) and simulated mode (byte/time ledger only,
used for 12 GB-scale capacity and speed benchmarks).  A simulated run of
a built-in stack whose iterations repeat — they meet no pressure, or
its tensor cache is at a fixed point — records one of them as a
:class:`~repro.core.plan.ResidencyTable` and runs the next ones from it
(:meth:`Executor._run_table`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cache import TensorCache
from repro.core.config import RuntimeConfig
from repro.core.liveness import LivenessPlan
from repro.core.plan import (
    ALLOC,
    COPY,
    EXHAUSTED,
    FREE,
    PREFETCH,
    READ,
    SCRATCH,
    SUBMIT,
    TO_HOST,
    UNSCRATCH,
    WAIT,
    CompiledStep,
    IterationPlan,
    MoveLog,
    ResidencyTable,
    link_iteration_plan,
    listener_table,
)
from repro.core.policy import MemoryPolicy, StepContext, resolve_policies
from repro.core.tensor_state import ResidencyError, SessionTensorState
from repro.core.workspace import WorkspaceChoice
from repro.device.dma import CopyDirection, DMAEngine
from repro.device.fabric import MemoryFabric
from repro.device.gpu import OutOfMemoryError, SimulatedGPU
from repro.device.model import DeviceModel
from repro.device.timeline import Event, Stream, Timeline
from repro.graph.network import Net
from repro.layers.base import Layer, LayerContext
from repro.layers.data import DataLayer
from repro.mempool.allocator import Allocation, CudaAllocator, PoolAllocator
from repro.obs import trace as obs_trace
from repro.tensors.store import ArrayStore, NullStore
from repro.tensors.tensor import Placement, Tensor, TensorKind


@dataclass
class StepTrace:
    """Byte-accurate record of one step (drives Fig. 10)."""

    index: int
    label: str
    phase: str
    used_high: int        # allocator bytes at the step's high-water point
    used_settled: int     # after the step's frees
    activation_high: int  # same minus the persistent parameter footprint
    activation_settled: int
    live_tensors: int
    workspace: Optional[WorkspaceChoice] = None


@dataclass
class IterationResult:
    """Everything one iteration reports."""

    iteration: int
    loss: Optional[float]
    sim_time: float
    peak_bytes: int
    activation_peak_bytes: int
    param_bytes: int
    traces: List[StepTrace] = field(default_factory=list)
    d2h_bytes: int = 0
    h2d_bytes: int = 0
    alloc_calls: int = 0
    alloc_overhead: float = 0.0
    extra_forwards: int = 0
    stall_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    #: of those, clean lines dropped with no copy (host copy still valid)
    cache_clean_evictions: int = 0
    #: and those discarded with no copy either way, rebuilt on demand
    cache_dropped: int = 0
    workspace_choices: List[WorkspaceChoice] = field(default_factory=list)
    # terminal layer's concrete output, kept only when the iteration ran
    # with capture_output (the serving path); excluded from to_dict —
    # payloads are not JSON and the dict contract predates serving
    output: Optional[np.ndarray] = None

    def to_dict(self) -> dict:
        """JSON-serializable summary (traces flattened to plain dicts)."""
        ws = self.workspace_choices
        at_max = sum(1 for w in ws if w.got_max_speed)
        return {
            "iteration": self.iteration,
            "loss": self.loss,
            "sim_time": self.sim_time,
            "peak_bytes": self.peak_bytes,
            "activation_peak_bytes": self.activation_peak_bytes,
            "param_bytes": self.param_bytes,
            "d2h_bytes": self.d2h_bytes,
            "h2d_bytes": self.h2d_bytes,
            "alloc_calls": self.alloc_calls,
            "alloc_overhead": self.alloc_overhead,
            "extra_forwards": self.extra_forwards,
            "stall_seconds": self.stall_seconds,
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses,
                      "evictions": self.cache_evictions,
                      "clean_evictions": self.cache_clean_evictions,
                      "dropped": self.cache_dropped},
            "workspaces": {
                "executions": len(ws),
                "at_max_speed": at_max,
                "fallbacks": len(ws) - at_max,
            },
            "traces": [
                {
                    "index": t.index,
                    "label": t.label,
                    "phase": t.phase,
                    "used_high": t.used_high,
                    "used_settled": t.used_settled,
                    "activation_high": t.activation_high,
                    "activation_settled": t.activation_settled,
                    "live_tensors": t.live_tensors,
                    "workspace": None if t.workspace is None else {
                        "layer": t.workspace.layer_name,
                        "phase": t.workspace.phase,
                        "algo": t.workspace.algo.name,
                        "assigned_ws": t.workspace.assigned_ws,
                        "max_speed_ws": t.workspace.max_speed_ws,
                    },
                }
                for t in self.traces
            ],
        }


@dataclass
class _PendingOffload:
    tensor: Tensor
    event: Event


class Executor:
    """Runs iterations of one network under one policy stack.

    Only :class:`~repro.core.engine.Engine` builds one: a run starts at
    ``Session(net, config)`` or ``Engine(net, config).session(mode)``,
    and the engine hands its executor everything that was decided
    before the first step —

    ``config``
        the *effective* mode config (``RuntimeConfig.for_mode``);
    ``policies``
        the resolved, ordered policy stack (plus any custom instances a
        session appended);
    ``plan``
        the engine's planning artifacts for one execution mode, a
        :class:`~repro.core.engine.ModePlanning`: route, liveness and
        recompute plans (and a compiled mode's scout record, which an
        armed tensor cache starts from).  The executor asks its own
        policies for their plans and links them at its first
        iteration.

    ``plan.mode`` is the execution mode: ``"train"`` runs the 2N-step
    forward+backward route; ``"infer"`` runs the forward-only N-step
    route with ``training=False`` kernels, no gradient allocation, and
    the backward-bridging policies (offload, recompute) disarmed.

    The executor derives nothing itself — no route, no segmentation, no
    liveness pass.  All three arguments are required; the ``None``
    placeholders exist only so the retired ``Executor(net, config)``
    call fails with a pointer to the front door.

    Every piece of *mutable* per-tensor state — placement, cache locks,
    host residency, prefetch arrivals — lives in :attr:`state`, a
    :class:`~repro.core.tensor_state.SessionTensorState` owned by this
    executor alone.  Descriptors are immutable identity, so any number
    of executors can run the same net concurrently (thread-per-session;
    see :meth:`~repro.core.engine.Engine.parallel_run`).
    """

    def __init__(
        self,
        net: Net,
        config: Optional[RuntimeConfig] = None,
        policies: Optional[Sequence[MemoryPolicy]] = None,
        plan=None,
    ):
        if config is None or policies is None or plan is None:
            raise TypeError(
                "Executor takes its config, policy stack and planning "
                "artifacts from an Engine; start a run with "
                "Session(net, config) or Engine(net, config).session(mode)")
        self.net = net.build()
        self.mode = plan.mode
        self.config = cfg = config
        self.training = plan.mode == "train"
        self.concrete = cfg.concrete
        self.model: DeviceModel = cfg.device

        self.gpu = SimulatedGPU(self.model)
        if cfg.gpu_capacity is not None:
            self.gpu.capacity = cfg.gpu_capacity
        # observability: with the process tracer (repro.obs.trace)
        # armed at build time the timeline keeps a *bounded* op log so
        # the exporter can draw the stream overlap; otherwise no op
        # records — the per-op log would grow without bound across
        # iterations (introspection uses traces/stats).  The
        # per-iteration span is Session.run_iteration's, not ours.
        record_ops = obs_trace.armed()
        self.timeline = Timeline(
            record_ops=record_ops,
            max_ops=obs_trace.TIMELINE_OPS_LIMIT if record_ops else None)
        self.dma = DMAEngine(self.timeline, self.model, pinned=cfg.pinned_host)
        self.fabric = MemoryFabric(cfg.external_pools,
                                   pinned=cfg.pinned_host)
        if cfg.use_pool_allocator:
            self.allocator = PoolAllocator(
                self.gpu, self.timeline, slab_bytes=cfg.pool_slab_bytes
            )
        else:
            self.allocator = CudaAllocator(self.gpu, self.timeline)
        self.store = ArrayStore() if self.concrete else NullStore()

        # the engine's read-only planning artifacts, shared by every
        # executor of this mode
        self.route = plan.route
        self.recompute_plan = plan.recompute_plan
        self.liveness = plan.liveness
        self.plan: LivenessPlan = plan.liveness_plan

        # ALL executor-mutated tensor state is session-local: this table
        # (placement, locks, host residency, arrivals, live set) is what
        # lets N executors share one net's descriptors concurrently.
        # REPRO_VALIDATE_STATE arms the placement state machine, so
        # test/CI processes arm it for every session.
        self.state = SessionTensorState()

        # the policy stack (ordered; dispatch order is semantic)
        self.policies: List[MemoryPolicy] = list(policies)
        self._ctx = StepContext(self)
        self._offload_policy = self._find_policy("offload")
        self._recompute_policy = self._find_policy("recompute")
        self._workspace_policy = self._find_policy("workspace")
        for p in self.policies:
            p.bind(self._ctx)
        if plan.cache_seed is not None and self._ctx.cache_armed:
            self.cache.seed(plan.cache_seed)  # the scout's record

        # the linked plan (None until the first iteration links it, see
        # :meth:`_link_plan`) and the dispatch table, tabled again at
        # every link.  The four tensor hooks fire once or twice per
        # tensor per step, so their sites loop over the table's tuple
        # in place; ``_dispatch`` serves the per-iteration and demand
        # hooks.
        self._plan: Optional[IterationPlan] = None
        self._listeners = listener_table(self)
        self._replay_enabled = cfg.steady_state_replay
        self._collect_traces = cfg.collect_traces
        self.replayed_iterations = 0
        #: the residency table (:meth:`_run_table`): the moves being
        #: recorded (None when not recording), the :class:`MoveLog`
        #: they go into (kept once recorded), whether every iteration
        #: records (:meth:`_run_recorded`), the table recorded last (None
        #: until a steady iteration records one, and once anything
        #: raises) and the iterations it ran.  An iteration is *calm* if
        #: it copies nothing and asks no policy to relieve pressure
        #: (an eviction and a stall each need one or the other):
        #: ``_pressure`` counts both, ``_calm`` says the last completed
        #: iteration was, and ``_tabled`` (decided at the first record)
        #: whether the stack is exactly the config's built-in one.
        self._rec: Optional[list] = None
        self._log: Optional[MoveLog] = None
        self._recording = False
        self._table: Optional[ResidencyTable] = None
        self.table_iterations = 0
        self._pressure = 0
        self._calm = False
        self._tabled: Optional[bool] = None

        # runtime state
        self._closed = False
        self._alloc_of: Dict[int, Allocation] = {}
        #: how a residency move gives an allocation back: the
        #: allocator's ``free``, looked up as each iteration starts, or
        #: ``Allocator.forget`` from a table run that answered its own
        #: allocations on through its barrier (:meth:`_run_table`)
        self._free = self.allocator.free
        self._pending: List[_PendingOffload] = []
        #: the return trip's queue, in need order: (backward step whose
        #: settle the H2D copy is due at, host tensor, the step that
        #: reads it) — filled at the turn, drained from the head as
        #: steps settle (see ``plan._make_return_trip_ops``)
        self._due_back: Deque[Tuple[int, Tensor, int]] = deque()
        self._stall = 0.0
        self._clean_evictions = 0
        self.param_bytes = 0
        self._allocate_params()
        #: how many of ``_alloc_of``'s entries are the parameters, which
        #: it holds from here until :meth:`close`
        self._param_count = len(self._alloc_of)
        # static end-of-iteration sweep candidates (tensors are fixed
        # objects per net; membership in _alloc_of is what varies)
        self._cleanup_tensors = [
            t for l in self.net.layers
            for t in ([l.output, l.grad_output] + l.param_grads)
            if t is not None
        ]
        self._hosted_candidates = [
            l.output for l in self.net.layers if l.output is not None
        ]

    # -------------------------------------------------------------- policies
    def _find_policy(self, key: str) -> Optional[MemoryPolicy]:
        for p in self.policies:
            if p.key == key:
                return p
        return None

    @staticmethod
    def _overrides(p: MemoryPolicy, hook: str) -> bool:
        return getattr(type(p), hook) is not getattr(MemoryPolicy, hook)

    def _dispatch(self, hook: str, *args) -> None:
        ctx = self._ctx
        for fn in self._listeners[hook]:
            fn(ctx, *args)

    @property
    def cache(self) -> Optional[TensorCache]:
        """The offload policy's tensor cache (None without one)."""
        p = self._offload_policy
        return p.cache if p is not None else None

    @property
    def selector(self):
        """The workspace policy's per-execution choice recorder."""
        return self._workspace_policy.selector \
            if self._workspace_policy is not None else None

    def _cache_counters(self):
        if self._offload_policy is None:
            return 0, 0, 0, 0, 0
        c = self._offload_policy.cache
        return c.hits, c.misses, c.evictions, self._clean_evictions, \
            c.dropped

    def _extra_forwards(self) -> int:
        return self._recompute_policy.extra_forwards \
            if self._recompute_policy is not None else 0

    def _workspace_choices(self) -> List[WorkspaceChoice]:
        return self.selector.choices if self.selector is not None else []

    # -------------------------------------------------------- observability
    def register_metrics(self, registry, prefix: str) -> None:
        """Register this executor's counting surfaces as probes on a
        :class:`~repro.obs.metrics.MetricsRegistry` — the owning
        subsystems keep their own locks; the probes read lazily at
        ``collect()`` time, so registration adds no hot-path cost."""
        registry.probe(f"{prefix}.allocator", lambda: {
            "allocs": self.allocator.stats.allocs,
            "frees": self.allocator.stats.frees,
            "alloc_bytes": self.allocator.stats.alloc_bytes,
            "overhead_seconds": self.allocator.stats.overhead_seconds,
            "peak_bytes": self.allocator.peak_bytes,
        })
        registry.probe(f"{prefix}.cache", lambda: dict(zip(
            ("hits", "misses", "evictions", "clean_evictions", "dropped"),
            self._cache_counters())))
        registry.probe(f"{prefix}.timeline", lambda: {
            "elapsed": self.timeline.elapsed,
            **{s.value: self.timeline.busy_time(s) for s in Stream},
        })
        registry.probe(f"{prefix}.dma", lambda: {
            "d2h_bytes": self.dma.stats.d2h_bytes,
            "h2d_bytes": self.dma.stats.h2d_bytes,
        })

    # ------------------------------------------------------------------ params
    def _allocate_params(self) -> None:
        state = self.state
        for layer in self.net.layers:
            for p in layer.params:
                a = self.allocator.alloc(p.nbytes, tag=p.name)
                self._alloc_of[p.tensor_id] = a
                state.to_gpu(p)
                state.lock(p)  # params are never evictable
                self.param_bytes += p.nbytes

    def close(self) -> None:
        """Free everything (tests create many executors).  Closing
        twice is harmless; running a closed executor is an error.

        Closing also cuts the reference cycles through the executor —
        the linked plan's ops and the policies' context each hold it —
        so dropping the last reference to a closed
        executor frees it at once, with no work for the cycle
        collector.  The plan itself stays whole for whoever holds it."""
        if self._closed:
            return
        self._closed = True
        for tid, a in list(self._alloc_of.items()):
            self.allocator.free(a)
        self._alloc_of.clear()
        if isinstance(self.allocator, PoolAllocator):
            self.allocator.close()
        self._plan = self._table = self._log = None
        self._ctx._ex = None

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------- allocation
    # Each residency move below is one ``SessionTensorState`` transition
    # and one dispatch of the matching tensor hook, fired once the move
    # is complete.  Payload moves run only in concrete mode: the
    # simulated store holds nothing to move.
    def _gpu_alloc_tensor(self, t: Tensor) -> Allocation:
        """Allocate GPU bytes for ``t``, reaping/evicting under pressure."""
        tid = t.tensor_id
        a = self._alloc_of.get(tid)
        if a is not None:
            return a
        nbytes = t.nbytes
        try:  # fast path first: pressure handling costs a call per alloc
            a = self.allocator.alloc(nbytes, t.name)
        except OutOfMemoryError:
            if self._rec is not None:
                self._rec.append((EXHAUSTED, nbytes, t.name))
            a = self._alloc_under_pressure(nbytes, t.name)
        self._alloc_of[tid] = a
        self.state.to_gpu(t)
        if self._rec is not None:
            self._rec.append((ALLOC, t, a))
        ctx = self._ctx
        for fn in self._listeners["on_tensor_resident"]:
            fn(ctx, t, "alloc")
        return a

    def _alloc_under_pressure(self, nbytes: int, tag: str) -> Allocation:
        """The slow path: each policy in stack order may free bytes.  A
        policy that raises after its retry succeeded never hands the
        bytes over; they go back."""
        self._pressure += 1
        got: List[Allocation] = []

        def retry() -> Optional[Allocation]:
            try:
                a = self.allocator.alloc(nbytes, tag)
            except OutOfMemoryError:
                if self._rec is not None:
                    self._rec.append((EXHAUSTED, nbytes, tag))
                return None
            got.append(a)
            return a

        try:
            for p in self.policies:
                a = p.on_memory_pressure(self._ctx, nbytes, tag, retry)
                if a is not None:
                    return a
        except BaseException:
            for a in got:
                self.allocator.free(a)
            raise
        raise OutOfMemoryError(nbytes, self.allocator.free_bytes,
                               self.gpu.capacity)

    def _free_gpu_only(self, t: Tensor) -> None:
        """Drop the GPU copy of a tensor whose host copy keeps it live.
        A tensor with no host copy is refused before anything moves:
        dropping its GPU copy would free it, which is ``_discard``'s
        move, and the next reader would fail far from the cause."""
        if not self.state.host_resident(t):
            raise ResidencyError(
                f"release of {t.name}, which has no host copy; only a "
                "tensor offloaded or evicted to host RAM can drop its GPU "
                "copy", t, "PLAN006")
        a = self._alloc_of.pop(t.tensor_id, None)
        if a is not None:
            self._free(a)
        self.state.to_host(t)
        if self._rec is not None:
            self._rec.append((TO_HOST, t, None))
        if self.concrete:
            # the bytes may still be device-side if the D2H copy that
            # made the host reservation has not been reaped
            self.store.move_to_host(t)
        ctx = self._ctx
        for fn in self._listeners["on_tensor_released"]:
            fn(ctx, t)

    def _discard(self, t: Tensor) -> None:
        """Free a tensor everywhere (GPU, host, payloads)."""
        if t.kind is TensorKind.PARAM:
            return
        if self.state.to_freed(t):
            # its host copy goes, or a cleaning line died before
            # pressure reached it: either way the reservation does
            self.fabric.evict(t.tensor_id)
        a = self._alloc_of.pop(t.tensor_id, None)
        if a is not None:
            self._free(a)
        if self.concrete:
            self.store.drop(t)
        if self._rec is not None:
            self._rec.append((FREE, t, None))
        ctx = self._ctx
        for fn in self._listeners["on_tensor_dead"]:
            fn(ctx, t)

    # ---------------------------------------------------------------- movement
    def _copy(self, t: Tensor, kind: str,
              after: Optional[List[Event]] = None) -> Event:
        """Submit one DMA copy of ``t``.  ``kind`` names the call site
        and fixes the direction: ``evict``/``offload``/``clean`` stash
        the tensor in the fabric and go D2H, ``prefetch``/``fetch`` come
        back H2D from whichever pool holds it, at that pool's rate."""
        self._pressure += 1
        if kind in ("evict", "offload", "clean"):
            direction = CopyDirection.D2H
            scale = self.fabric.stash(t.tensor_id, t.nbytes).d2h_scale
        else:
            direction = CopyDirection.H2D
            pool = self.fabric.pool_of(t.tensor_id)
            scale = pool.h2d_scale if pool else 1.0
        ev = self.dma.copy_async(t.nbytes, direction,
                                 label=f"{kind}:{t.name}", after=after,
                                 rate_scale=scale)
        rec = self._rec
        if rec is not None:
            log = self._log
            events = log.events
            log.facts[len(rec)] = (scale, self.fabric.pool_of(
                t.tensor_id).h2d_scale if direction is CopyDirection.D2H
                else self.timeline.now(Stream.COMPUTE), ev.time)
            rec.append((COPY, t, (kind, after and tuple(
                events[e.event_id] for e in after))))
            events[ev.event_id] = len(events)
        return ev

    def _wait(self, t: Tensor, kind: str, ev: Event) -> None:
        """Block compute until the ``kind`` copy of ``t`` lands — the
        stall the tensor cache and prefetch-ahead exist to avoid."""
        stall = self.timeline.sync(Stream.COMPUTE, ev)
        self._stall += stall
        rec = self._rec
        if rec is not None:
            self._log.facts[len(rec)] = stall
            rec.append((WAIT, t, (kind, self._log.events[ev.event_id])))

    def _evict_to_host(self, t: Tensor) -> int:
        """Synchronous offload used by LRU eviction; returns bytes freed.

        The cache is write-back with a clean bit: an output is written
        once per (re)materialisation and ``_discard`` retires its host
        copy, so a GPU copy whose host copy is still valid is a *clean
        line* and drops with no copy and no stall — between two uses an
        evicted tensor crosses PCIe at most once per direction.  A line
        being cleaned (*cleaning*) is waited on for what is left of its
        copy (nothing, once it has landed) instead of copied again.  A
        line whose prefetch is still landing is clean too, but its bytes
        are not free until the H2D copy has written them: that copy is
        waited out and its arrival retired, so the line's next prefetch
        copies again."""
        state = self.state
        if state.arrivals:
            arrival = state.arrivals.pop(t.tensor_id, None)
            if arrival is not None:
                self._wait(t, "prefetch", arrival)
        clean = state.host_resident(t)
        ev = state.to_host(t)
        if ev is not None:
            self._wait(t, "clean", ev)
            self._clean_evictions += 1
        elif clean:
            self._clean_evictions += 1
        else:
            self._wait(t, "evict", self._copy(t, "evict"))
        if self.concrete:
            self.store.move_to_host(t)
        a = self._alloc_of.pop(t.tensor_id, None)
        freed = 0
        if a is not None:
            self._free(a)
            freed = a.nbytes
        if self._rec is not None:  # one move with the free: no move
            self._rec.append((TO_HOST, t, None))  # between reads it
        return freed

    def _clean_async(self, t: Tensor,
                     after: Optional[List[Event]] = None) -> None:
        """Clean a line: start the D2H copy of a dirty cached line and
        keep using its GPU copy.  The event is the line's *cleaning*
        state; ``_evict_to_host`` consumes it, ``_discard`` retires it."""
        state = self.state
        if not (state.host_resident(t) or state.cleaning(t)):
            state.set_cleaning(t, self._copy(t, "clean", after=after))

    def _offload_async(self, t: Tensor, after: Optional[List[Event]] = None) -> None:
        """Eager UTP offload: D2H overlaps following forward compute."""
        if t.tensor_id not in self._alloc_of:
            raise ResidencyError(
                f"offload of {t.name} which is "
                f"{self.state.placement(t).value}, not GPU-resident",
                t, "PLAN006")
        ev = self._copy(t, "offload", after=after)
        self.state.offload_started(t)
        self._pending.append(_PendingOffload(t, ev))

    def _reap_offloads(self) -> None:
        """Free GPU copies whose D2H transfer has completed by now."""
        if not self._pending:
            return
        now = self.timeline.now(Stream.COMPUTE)
        remaining: List[_PendingOffload] = []
        for p in self._pending:
            if p.event.time <= now:
                self._complete_offload(p)
            else:
                remaining.append(p)
        self._pending = remaining

    def _force_reap_one(self) -> None:
        p = self._pending.pop(0)
        self._wait(p.tensor, "reap", p.event)
        self._complete_offload(p)

    def _complete_offload(self, p: _PendingOffload) -> None:
        if self._rec is not None:  # the release's clock, on its TO_HOST
            self._log.facts[len(self._rec)] = self.timeline.now(Stream.COMPUTE)
        self._free_gpu_only(p.tensor)

    def _prefetch_async(self, t: Tensor) -> bool:
        """Start bringing a host tensor back; returns False if no room."""
        state = self.state
        if t.tensor_id in state.arrivals:
            return True
        if not state.on_host(t):
            return False
        tag = f"prefetch:{t.name}"
        try:
            a = self.allocator.alloc(t.nbytes, tag=tag)
        except OutOfMemoryError:
            if self._rec is not None:
                self._rec.append((EXHAUSTED, t.nbytes, tag))
            return False
        if self._rec is not None:
            self._rec.append((PREFETCH, t, a))
        self._alloc_of[t.tensor_id] = a
        state.to_gpu(t, arrival=self._copy(t, "prefetch"))
        if self.concrete:
            self.store.move_to_gpu(t)
        ctx = self._ctx
        for fn in self._listeners["on_tensor_resident"]:
            fn(ctx, t, "prefetch")
        return True

    def _make_gpu_resident(self, t: Tensor) -> None:
        """Block until ``t`` is usable on the GPU."""
        state = self.state
        placement = state.placement(t)
        if placement is Placement.GPU:
            arrivals = state.arrivals
            if arrivals:
                ev = arrivals.pop(t.tensor_id, None)
                if ev is not None:
                    self._wait(t, "prefetch", ev)
            if self._rec is not None and state.validate:
                self._rec.append((READ, t, None))
            ctx = self._ctx
            for fn in self._listeners["on_tensor_access"]:
                fn(ctx, t)
            return
        if placement is Placement.HOST:
            self._gpu_alloc_tensor(t)  # may evict/reap
            self._wait(t, "fetch", self._copy(t, "fetch"))
            if self.concrete:
                self.store.move_to_gpu(t)
            return
        raise ResidencyError(
            f"tensor {t.name} is {placement.value}; cannot make resident",
            t, "PLAN001")

    # ------------------------------------------------------------------- grads
    def _alloc_grad(self, t: Tensor) -> None:
        """A gradient's first writer this iteration: zeroed bytes."""
        self._gpu_alloc_tensor(t)
        if self.concrete:
            self.store.put(t, np.zeros(t.shape, dtype=np.float32))

    # ------------------------------------------------- steady-state replay
    @property
    def iteration_plan(self) -> Optional[IterationPlan]:
        """The plan linked last (None before the first iteration links
        it, and once the executor is closed)."""
        return self._plan

    def _link_plan(self) -> IterationPlan:
        """The one link step: ask this stack for its plans, bind them to
        this substrate, and table the overridden hooks no step site
        carries."""
        self._plan = plan = link_iteration_plan(self)
        self._listeners = listener_table(self)
        return plan

    # ------------------------------------------------------------------ stepping
    def run_iteration(
        self,
        iteration: int = 0,
        optimizer=None,
        feed: Optional[np.ndarray] = None,
        capture_output: bool = False,
    ) -> IterationResult:
        """Run one iteration.

        ``feed`` replaces the data layer's provider batch with a
        caller-supplied one (must match the compiled input shape);
        ``capture_output`` keeps the terminal layer's concrete output on
        the returned :attr:`IterationResult.output`.  Both serve the
        :mod:`repro.serve` request path and ride the per-session
        :class:`~repro.layers.base.LayerContext`, so concurrent
        sessions feed independently.
        """
        if self._closed:
            raise RuntimeError(
                "executor is closed: its device memory has been returned")
        if optimizer is not None and not self.training:
            raise TypeError(
                "infer mode runs no backward pass, so the optimizer "
                "would never step; drop it or use a train-mode session")
        ctx = self._ctx
        plan = self._plan
        # linked once, at the first iteration; re-linked before every
        # one with replay off (fresh closures, fresh memos)
        replayed = plan is not None and self._replay_enabled
        if not replayed:
            plan = self._link_plan()
        # the table runs only where it was recorded: same plan, the
        # allocator where the record began
        table = self._table
        if table is not None and not (
                table.plan is plan
                and table.start == self.allocator.signature()):
            table = self._table = None
        tabling = table is None and replayed and self._steady() \
            and self._may_table()
        if tabling or self._recording:
            start = self.allocator.signature()
            log = self._log = MoveLog(self.timeline)
            self._rec = log.moves
        ctx._begin_iteration(iteration, LayerContext(
            iteration=iteration, training=self.training,
            feed=feed, capture_final=capture_output))
        if table is None:
            self._dispatch("on_iteration_start")
        else:
            self._workspace_choices().clear()
        self.allocator.reset_peak()
        self._free = self.allocator.free
        t0 = self.timeline.elapsed
        d2h0, h2d0 = self.dma.stats.d2h_bytes, self.dma.stats.h2d_bytes
        calls0 = self.allocator.stats.calls
        ovh0 = self.allocator.stats.overhead_seconds
        hits0, miss0, ev0, clean0, drop0 = self._cache_counters()
        extra0 = self._extra_forwards()
        stall0 = self._stall
        ws_start = len(self._workspace_choices())
        pressure0 = self._pressure

        try:
            if table is None:
                traces = self._run_steps(plan, ctx, optimizer)
                self._dispatch("on_iteration_end")
            else:
                traces = self._run_table(table, ctx)
            end = len(self._rec or ())  # a table ends at the barrier
            # iteration barrier: drain copies, free whatever is left
            while self._pending:
                self._force_reap_one()
            self.timeline.sync_all()
            self._end_of_iteration_cleanup()
            rec, self._rec = self._rec, None
        except BaseException as exc:
            self._abort_iteration()
            if isinstance(exc, (OutOfMemoryError, ResidencyError)):
                # a refusal is placed at the step in flight (the first,
                # if none had begun): the plan verifier's finding
                exc.step = ctx.step or self.route.steps[0]
            raise
        self._calm = self._pressure == pressure0
        if replayed:
            self.replayed_iterations += 1
        if table is not None:
            self.table_iterations += 1

        # the loss travels through the per-session LayerContext (shared
        # SoftmaxLoss objects would race under concurrent sessions)
        loss = ctx.layer_ctx.last_loss
        hits1, miss1, ev1, clean1, drop1 = self._cache_counters()
        res = IterationResult(
            iteration=iteration,
            loss=loss,
            sim_time=self.timeline.elapsed - t0,
            peak_bytes=self.allocator.peak_bytes,
            activation_peak_bytes=self.allocator.peak_bytes - self.param_bytes,
            param_bytes=self.param_bytes,
            traces=traces,
            d2h_bytes=self.dma.stats.d2h_bytes - d2h0,
            h2d_bytes=self.dma.stats.h2d_bytes - h2d0,
            alloc_calls=self.allocator.stats.calls - calls0,
            alloc_overhead=self.allocator.stats.overhead_seconds - ovh0,
            extra_forwards=self._extra_forwards() - extra0,
            stall_seconds=self._stall - stall0,
            cache_hits=hits1 - hits0,
            cache_misses=miss1 - miss0,
            cache_evictions=ev1 - ev0,
            cache_clean_evictions=clean1 - clean0,
            cache_dropped=drop1 - drop0,
            workspace_choices=self._workspace_choices()[ws_start:],
            output=ctx.layer_ctx.final_output,
        )
        if rec is not None:
            log = self._log
            log.busy = {s: self.timeline.busy_time(s) - b0
                        for s, b0 in log.busy.items()}
            log.host_peak, log.result = self.fabric.peak_bytes(), res
            if tabling and self._steady():
                self._table = ResidencyTable(
                    plan, start, log, end, (self.allocator._alloc_latency,
                                            self.allocator._free_latency))
        return res

    def _run_recorded(self, iteration: int = 0) -> MoveLog:
        """Run one iteration live and return its move log, for ``check
        cost`` and the plan verifier to fold, even one that never becomes
        a table (iteration 0, an eager rung)."""
        self._table, self._recording = None, True
        try:
            self.run_iteration(iteration)
        finally:
            self._recording = False
        return self._log

    def _steady(self) -> bool:
        """Did the last completed iteration end where it began, so the
        next one makes its moves again?  It was calm, or it left the
        tensor cache at a fixed point (:attr:`TensorCache.settled`)."""
        cache = self.cache
        return self._calm or cache is not None and cache.settled

    def _may_table(self) -> bool:
        """May this executor record a residency table at all?  Only a
        simulated run of exactly the config's built-in stack: a concrete
        run moves payloads, and a custom policy's hooks are its own.  A
        costed executor tables like any other."""
        if self._tabled is None:
            self._tabled = [type(p) for p in self.policies] \
                == [type(p) for p in resolve_policies(self.config)]
        return self._tabled and not self.concrete

    def _run_table(self, table: ResidencyTable, ctx: StepContext
                   ) -> List[StepTrace]:
        """Run an iteration from its residency table: the recorded
        moves, in order, through the state table, the timeline and the
        copy and wait seams (each looked up now, so a seam installed
        since is called), then the hooks' recorded effect — the
        workspace picks and the cache and recomputation counters.  No
        hook is dispatched and nothing is locked: the table holds what
        they decided.  The calm moves come first.

        Each allocation takes the answer recorded for it, and is
        accounted as the allocator would account it — used bytes, peak,
        calls and bytes, its latency on the compute clock, one move at a
        time in order — without a call into the allocator or its store,
        and so is each free, on through the barrier or an abort
        (:meth:`~repro.mempool.allocator.Allocator.forget`).  That is
        exact: the table runs only from the allocator signature it was
        recorded at, and every barrier ends at params-only, so the
        store ends the iteration where it began.  An allocator whose
        ``alloc`` or ``free`` is replaced on the instance gets every
        recorded call through the replacement instead, and answers it
        live.

        The moves run a block at a time (:class:`~repro.core.plan.
        TableBlock`): a calm block applies its folded effect at once —
        the state table's, the compute clock's, the allocator's books
        and the executor's maps — where that is what its moves would
        do: the allocator answered from the record, a timeline that
        records no ops, and a state table that can take it (:meth:`~
        repro.core.tensor_state.SessionTensorState.foldable`).  Every
        other block runs move by move, so a fault seam, the race trace,
        the op log and a refusal see each move."""
        allocator = self.allocator
        live = "alloc" in vars(allocator) or "free" in vars(allocator)
        alloc, free = allocator.alloc, allocator.free
        if not live:
            self._free = allocator.forget
        stats = allocator.stats
        used, peak, overhead = allocator.used_bytes, allocator._peak, \
            stats.overhead_seconds
        allocs, frees, alloc_bytes = stats.allocs, stats.frees, \
            stats.alloc_bytes
        t_alloc, t_free = allocator._alloc_latency, allocator._free_latency
        timeline = self.timeline
        clock, busy = timeline.clock, timeline.busy
        submit, advance = timeline.submit, timeline.advance
        compute = Stream.COMPUTE
        lane = compute._value_
        copy, wait, evict = self._copy, self._wait, self.fabric.evict
        state = self.state
        to_gpu, to_freed = state.to_gpu, state.to_freed
        foldable, apply = state.foldable, state.apply
        fold = not live and not timeline.record_ops
        alloc_of, scratch = self._alloc_of, ctx._scratch
        events: List[Event] = []  # the submits' and copies', in order
        try:
            for block in table.blocks:
                if block.calm and fold and foldable(block):
                    apply(block)
                    advance(compute, block.increments, block.kernels)
                    if used + block.rise > peak:
                        peak = used + block.rise
                    used += block.used
                    allocs += block.allocs
                    frees += block.frees
                    alloc_bytes += block.alloc_bytes
                    overhead = reduce(add, block.latencies, overhead)
                    for tid in block.pops:
                        del alloc_of[tid]
                    alloc_of.update(block.assigns)
                    if block.scratch is not None:
                        scratch[:] = block.scratch
                    events += block.holes
                    continue
                for op, a, b in block.moves:
                    if op <= SCRATCH:  # b: the allocation the record got
                        if live:
                            b = alloc(b.nbytes, b.tag)
                        else:
                            size = b.nbytes
                            used += size
                            if used > peak:
                                peak = used
                            allocs += 1
                            alloc_bytes += size
                            overhead += t_alloc
                            clock[lane] += t_alloc
                            busy[lane] += t_alloc
                        if op == ALLOC:
                            alloc_of[a.tensor_id] = b
                            to_gpu(a)
                        elif op == SCRATCH:
                            scratch.append(b)
                        else:  # PREFETCH: its copy follows
                            alloc_of[a.tensor_id] = b
                    elif op <= UNSCRATCH:  # give back what the move held
                        if op == UNSCRATCH:
                            held = scratch[:]
                            scratch.clear()
                        else:
                            if op == TO_HOST:
                                state.to_host(a)
                            elif to_freed(a):
                                evict(a.tensor_id)
                            held = alloc_of.pop(a.tensor_id, None)
                            held = () if held is None else (held,)
                        for h in held:
                            if live:
                                free(h)
                            else:
                                used -= h.nbytes
                                frees += 1
                                overhead += t_free
                                clock[lane] += t_free
                                busy[lane] += t_free
                    elif op == SUBMIT:
                        events.append(submit(compute, a, b))
                    elif op == READ:
                        if not state.on_gpu(a):
                            raise ResidencyError(
                                f"tensor {a.name} is "
                                f"{state.placement(a).value}; the "
                                "residency table reads it on the GPU",
                                a, "PLAN001")
                    elif op == EXHAUSTED:
                        if live:
                            try:
                                alloc(a, b)
                            except OutOfMemoryError:
                                pass
                    elif op == COPY:
                        kind, after = b
                        ev = copy(a, kind, after=after and [
                            events[n] for n in after])
                        events.append(ev)
                        if kind == "clean":
                            state.set_cleaning(a, ev)
                        elif kind == "prefetch":
                            to_gpu(a, arrival=ev)
                    else:  # WAIT
                        kind, n = b
                        if kind == "prefetch":
                            state.arrivals.pop(a.tensor_id, None)
                        wait(a, kind, events[n])
        finally:
            if not live:
                allocator.used_bytes, allocator._peak = used, peak
                stats.allocs, stats.frees, stats.alloc_bytes = \
                    allocs, frees, alloc_bytes
                stats.overhead_seconds = overhead
        self._workspace_choices().extend(table.choices)
        res = table.log.result
        if self._offload_policy is not None:
            cache = self._offload_policy.cache
            cache.hits += res.cache_hits
            cache.misses += res.cache_misses
            cache.evictions += res.cache_evictions
            cache.dropped += res.cache_dropped
        self._clean_evictions += res.cache_clean_evictions
        if self._recompute_policy is not None:
            self._recompute_policy.extra_forwards += res.extra_forwards
        return list(table.traces)

    def _run_steps(self, plan: IterationPlan, ctx: StepContext, optimizer
                   ) -> List[StepTrace]:
        """The one step loop.  What differs between policy stacks is the
        plan's hook-site ops — which positions are bound policy hooks
        and which compiled closures — never the mechanics."""
        traces: List[StepTrace] = []
        collect = self._collect_traces
        rec = self._rec  # the moves being recorded, if any
        allocator = self.allocator
        param_bytes = self.param_bytes
        for cs in plan.steps:
            step = cs.step
            ctx._begin_step(step)
            for fn in cs.before_ops:
                fn(ctx, step)
            if cs.is_forward:
                ws = self._forward(cs, ctx)
            else:
                ws = self._backward(cs, ctx, optimizer)
            high = allocator.used_bytes
            # reclamation: eager-offload registration, liveness frees,
            # recompute cleanup — in stack order — then the settled ops
            # (prefetch-ahead) once the frees have landed
            for fn in cs.after_ops:
                fn(ctx, step)
            for fn in cs.settled_ops:
                fn(ctx, step)
            if rec is not None:  # the step's kernel: its end and length
                ev, dur = ctx.last_compute_event, ctx.step_duration
                self._log.steps.append(
                    (len(rec), self.timeline.now(Stream.COMPUTE), 0.0)
                    if ev is None  # the data layer's backward: no kernel
                    else (len(rec), ev.time,
                          cs.duration if dur is None else dur))
            if collect:
                settled = allocator.used_bytes
                traces.append(StepTrace(
                    index=step.index,
                    label=cs.trace_label,
                    phase=cs.phase_value,
                    used_high=high,
                    used_settled=settled,
                    activation_high=high - param_bytes,
                    activation_settled=settled - param_bytes,
                    live_tensors=self.state.live_count(),
                    workspace=ws,
                ))
        return traces

    def _forward(self, cs: CompiledStep, ctx: StepContext
                 ) -> Optional[WorkspaceChoice]:
        layer = cs.layer
        state = self.state
        for t in cs.reads:
            self._make_gpu_resident(t)
            state.lock(t)
        out = cs.output
        self._gpu_alloc_tensor(out)
        state.lock(out)

        for fn in cs.compute_ops:
            fn(ctx, cs.step)
        duration = ctx.step_duration if ctx.step_duration is not None \
            else cs.duration
        ev = self.timeline.submit(Stream.COMPUTE, duration, cs.submit_label)
        ctx.last_compute_event = ev
        if self._rec is not None:
            self._rec.append((SUBMIT, duration, cs.submit_label))
            events = self._log.events
            events[ev.event_id] = len(events)

        if self.concrete:
            ins = [self.store.get_required(p.output) for p in layer.prev]
            val = layer.forward(ins, ctx.layer_ctx)
            assert not (state.validate and state.host_resident(out)), \
                f"{out.name} rewritten over a valid host copy"
            self.store.put(out, val)
            if cs.has_running_stats and ctx.layer_ctx.training:
                layer.update_running_stats(ins[0])
            if ctx.layer_ctx.capture_final and not layer.next:
                ctx.layer_ctx.final_output = self.store.get_required(out)

        self._free_step_scratch(ctx)
        state.unlock_all(cs.pinned)
        return ctx.step_workspace

    def _backward(self, cs: CompiledStep, ctx: StepContext, optimizer
                  ) -> Optional[WorkspaceChoice]:
        if cs.is_data:
            return None
        layer = cs.layer
        state = self.state
        missing = state.not_live(cs.reads)
        if missing:
            self._dispatch("on_backward_need", cs.step, missing)
            still = state.not_live(missing)
            if still:
                raise ResidencyError(
                    f"backward of {layer.name} needs freed tensors "
                    f"{[t.name for t in still]} but recomputation is off",
                    still[0], "PLAN001")
        for t in cs.reads:
            self._make_gpu_resident(t)
            state.lock(t)

        alloc_of = self._alloc_of
        for g in cs.grads:
            if g.tensor_id not in alloc_of:
                self._alloc_grad(g)
            state.lock(g)
        for g in cs.param_grads:
            self._gpu_alloc_tensor(g)

        for fn in cs.compute_ops:
            fn(ctx, cs.step)
        duration = ctx.step_duration if ctx.step_duration is not None \
            else cs.duration
        ev = self.timeline.submit(Stream.COMPUTE, duration, cs.submit_label)
        ctx.last_compute_event = ev
        if self._rec is not None:
            self._rec.append((SUBMIT, duration, cs.submit_label))
            events = self._log.events
            events[ev.event_id] = len(events)

        if self.concrete:
            self._backward_values(layer, ctx.layer_ctx, optimizer)

        self._free_step_scratch(ctx)
        state.unlock_all(cs.pinned)
        return ctx.step_workspace

    def _abort_iteration(self) -> None:
        """A step or the barrier raised: leave the session as a
        completed iteration's barrier leaves it, so the next iteration
        runs exactly as an undisturbed one would.  The raising step's
        pins and scratch go, copies in flight are dropped with their
        tensors, and every activation is discarded.  A step that raised
        never reaches ``on_iteration_end``: a half iteration commits
        nothing a policy records, and the residency table goes: the
        next iteration runs live."""
        self._rec = self._table = self._log = None
        self._free_step_scratch(self._ctx)
        self.state.unlock_all(self._cleanup_tensors)
        self._pending.clear()
        self.timeline.sync_all()
        self._end_of_iteration_cleanup()

    def _end_of_iteration_cleanup(self) -> None:
        state = self.state
        alloc_of = self._alloc_of
        if len(alloc_of) > self._param_count:  # not the parameters only
            for t in self._cleanup_tensors:
                if t.tensor_id in alloc_of:
                    self._discard(t)
        hosted = state.host_ids()
        if hosted:
            for t in self._hosted_candidates:
                if t.tensor_id in hosted:
                    self._discard(t)
        # prefetch arrival events are all complete after the barrier;
        # drop them so no stale entry can satisfy a later iteration's
        # in-flight check without a copy actually running; every
        # cleaning line was discarded above, its event with it
        state.arrivals.clear()
        state.clear_cleaning()
        self._due_back.clear()
        residual = self.allocator.used_bytes - self.param_bytes
        if residual != 0:
            raise RuntimeError(
                f"iteration leaked {residual} bytes beyond parameters"
            )

    # -- step mechanics (policy-free) -----------------------------------------
    def _free_step_scratch(self, ctx: StepContext) -> None:
        if not ctx._scratch:
            return
        if self._rec is not None:
            self._rec.append((UNSCRATCH, None, None))
        for a in ctx._scratch:
            self._free(a)
        ctx._scratch.clear()

    def _backward_values(self, layer: Layer, ctx: LayerContext, optimizer) -> None:
        ins = [
            self.store.get_required(p.output)
            if layer.needs_inputs_in_backward else None
            for p in layer.prev
        ]
        outv = (
            self.store.get_required(layer.output)
            if layer.needs_output_in_backward else None
        )
        gov = (
            self.store.get_required(layer.grad_output)
            if layer.next else None
        )
        grads_in, grads_p = layer.backward(ins, outv, gov, ctx)
        for p, gi in zip(layer.prev, grads_in):
            if isinstance(p, DataLayer) or gi is None:
                continue
            acc = self.store.get(p.grad_output)
            self.store.put(p.grad_output, acc + gi if acc is not None else gi)
        for g_t, g_v in zip(layer.param_grads, grads_p):
            self.store.put(g_t, g_v)
        if optimizer is not None:
            for p_t, g_t in zip(layer.params, layer.param_grads):
                g_v = self.store.get_required(g_t)
                layer.param_values[p_t.tensor_id] = optimizer.step_param(
                    p_t.tensor_id, layer.param_values[p_t.tensor_id], g_v
                )
