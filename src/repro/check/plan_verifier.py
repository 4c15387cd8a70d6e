"""Static plan verifier: prove a compiled schedule memory-safe *before*
it runs.

A compiled :class:`~repro.core.engine.CompiledMode` is a promise: the
executor will replay the frozen liveness frees, eager offload/prefetch
schedule, recompute discards, and workspace picks bit-identically on
every steady-state iteration.  A buggy policy therefore cannot crash
"sometimes" — it emits a plan that is *deterministically* wrong, which
makes the plan a perfect static-analysis target.  This module replays
the schedule symbolically, with a per-tensor placement machine mirroring
:class:`~repro.core.tensor_state.SessionTensorState`, and proves:

* **PLAN001 use-after-free** — every tensor a kernel reads is live
  (GPU-resident, host-resident, or re-derivable) at the consuming step;
  a liveness free list or recompute discard that retires a tensor
  before its last consumer is caught here, not by a crash.
* **PLAN002 missing-prefetch** — an offloaded (host-resident) tensor
  has an H2D prefetch scheduled *strictly before* its next consumer.
  The runtime would survive with a synchronous fetch, but the stall
  breaks the paper's overlap claim — the verifier treats it as a plan
  bug.
* **PLAN003 lock-imbalance** — Alg. 2 lock/unlock pairs balance within
  the iteration (no unlock without a lock, nothing left pinned at the
  barrier, where a leaked lock would make a tensor forever unevictable).
* **PLAN004 unrecoverable-recompute** — every discarded
  recompute-covered tensor can be rebuilt when demanded: its segment's
  anchor checkpoint is still live (the synthetic anchor reads liveness
  plants must actually protect it).
* **PLAN005 capacity-overflow** — the simulated peak live set (params +
  activations + workspace scratch) fits the configured DRAM capacity.
  Under a pressure-driven eviction policy (the cache-mode UTP) the
  runtime can shed bytes the static model keeps, so the finding is
  downgraded to a warning there.
* **PLAN006 double-free** — no schedule frees a tensor twice (freeing a
  never-materialized tensor is the documented no-op edge and stays
  legal, mirroring ``ALLOWED_TRANSITIONS``).
* **PLAN007 return-trip-disorder** — the tensor cache's need order (the
  deadlines its return trip times evicted lines against) is sorted by
  first backward use, holds each tensor once, and names for each the
  backward step that first needs it — a kernel read or a recompute
  chain's outside input.  A wrong deadline is not unsafe (the reader
  fetches on demand) but it lands a copy late, or early into bytes the
  running step wants.

The symbolic model is the paper's *just-in-time arrival* model: DMA
copies complete exactly when the schedule needs them to — an eagerly
offloaded tensor drops its GPU copy at its last forward use (the
``gpu_release_after`` point) and a prefetched tensor lands before its
consumer.  That is the l_peak the paper proves; timing jitter can only
shift *when* bytes retire within the same bounds, never which tensors
are live at a consuming kernel.

Verification is pure: it touches no substrate, allocates nothing, and
runs in O(steps + schedule entries).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.check.diagnostics import CheckReport, Diagnostic
from repro.core.config import RuntimeConfig
from repro.core.plan import plans_by_key
from repro.graph.route import Phase
from repro.layers.data import DataLayer
from repro.tensors.tensor import TensorKind

MiB = 1024 * 1024


class PlanVerificationError(RuntimeError):
    """A compiled plan failed verification (``Engine(verify=True)``
    raises this instead of caching the mode)."""

    def __init__(self, report: CheckReport):
        self.report = report
        errs = report.errors
        head = "; ".join(d.render() for d in errs[:3])
        more = f" (+{len(errs) - 3} more)" if len(errs) > 3 else ""
        super().__init__(f"compiled plan failed verification: {head}{more}")


# --------------------------------------------------------------------------- #
# the symbolic schedule
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class SymTensor:
    """The slice of a tensor descriptor the verifier needs.

    ``anchor_id`` is set for recompute-covered tensors: the tensor id of
    the checkpoint output a segment re-run rebuilds this tensor from.
    """

    tensor_id: int
    name: str
    nbytes: int
    kind: str = "data"            # TensorKind.value
    anchor_id: Optional[int] = None


@dataclass
class SymStep:
    """One route step of the symbolic schedule.

    Ordering within a step mirrors the executor: reads become resident
    and are locked, the output is allocated and locked, the kernel runs
    (workspace scratch live), locks release, then the after-step
    reclamation (offload registration, frees, discards) and finally the
    settled-phase prefetches.
    """

    index: int
    op: str                       # trace label, e.g. "conv1:f"
    phase: str = "forward"
    reads: Tuple[SymTensor, ...] = ()
    writes: Tuple[SymTensor, ...] = ()
    locks: Tuple[SymTensor, ...] = ()
    unlocks: Tuple[SymTensor, ...] = ()
    #: eager D2H copies started after this step: ``(tensor,
    #: release_step)`` — the GPU copy retires after ``release_step``
    #: (its last forward use; None = only at the iteration barrier)
    offloads: Tuple[Tuple[SymTensor, Optional[int]], ...] = ()
    #: full discards after the step (the liveness free list)
    frees: Tuple[SymTensor, ...] = ()
    #: conditional discards after the step (recompute cleanup: only if
    #: still live — never a double-free by construction)
    discards: Tuple[SymTensor, ...] = ()
    #: settled-phase prefetch candidates (fetched only if host-resident)
    prefetches: Tuple[SymTensor, ...] = ()
    #: data tensors a backward step needs resident from outside: its
    #: kernel reads minus the recompute-covered ones, plus the outside
    #: inputs of the chains it can trigger (``LivenessAnalysis.reads_at``;
    #: extracted only where a need order is there to check against it)
    needs: Tuple[SymTensor, ...] = ()
    workspace_bytes: int = 0


@dataclass
class PlanTrace:
    """A fully-extracted symbolic schedule, ready to verify."""

    target: str                   # "alexnet/train"
    steps: List[SymStep]
    param_bytes: int = 0
    capacity: Optional[int] = None
    #: False when a pressure-driven eviction path exists at runtime
    #: (cache-mode UTP): over-capacity becomes a warning, not an error
    overflow_is_error: bool = True
    #: registry keys of dynamic policies the verifier cannot replay
    unverified_policies: Tuple[str, ...] = ()
    #: the cache-mode UTP's need order: ``(step index, tensor)``
    return_trip: Tuple[Tuple[int, SymTensor], ...] = ()


# --------------------------------------------------------------------------- #
# extraction: CompiledMode -> PlanTrace
# --------------------------------------------------------------------------- #

def extract_trace(net, compiled, config: RuntimeConfig,
                  target: Optional[str] = None) -> PlanTrace:
    """Flatten a :class:`~repro.core.engine.CompiledMode` (plus the
    effective mode config) into the verifier's symbolic schedule.

    ``config`` must be the *effective* config of the mode
    (``RuntimeConfig.for_mode``), the one whose policy stack produced
    ``compiled.gathered``.
    """
    route = compiled.route
    liveness_plan = compiled.liveness_plan
    recompute_plan = compiled.recompute_plan
    plans = plans_by_key(compiled.gathered)

    # recompute-covered tensors -> their segment anchor's output id
    anchor_of: Dict[int, Optional[int]] = {}
    if liveness_plan.recompute_covered and recompute_plan is not None:
        for layer in net.layers:
            out = layer.output
            if out is None or out.tensor_id not in \
                    liveness_plan.recompute_covered:
                continue
            anchor = recompute_plan.anchor_output_of(layer.layer_id)
            anchor_of[out.tensor_id] = \
                anchor.tensor_id if anchor is not None else None

    memo: Dict[int, SymTensor] = {}

    def sym(t) -> SymTensor:
        s = memo.get(t.tensor_id)
        if s is None:
            s = SymTensor(
                tensor_id=t.tensor_id, name=t.name, nbytes=t.nbytes,
                kind=t.kind.value,
                anchor_id=anchor_of.get(t.tensor_id),
            )
            memo[t.tensor_id] = s
        return s

    def syms(tensors) -> Tuple[SymTensor, ...]:
        return tuple(sym(t) for t in tensors)

    # eager-offload GPU release points: the liveness plan knows the last
    # forward use of every offloaded checkpoint (see
    # LivenessPlan.gpu_release_after); the reap retires the copy there.
    release_step: Dict[int, int] = {}
    for i, tensors in liveness_plan.gpu_release_after.items():
        for t in tensors:
            release_step[t.tensor_id] = i

    live_plan = plans.get("liveness")
    off_plan = plans.get("offload")
    rec_plan = plans.get("recompute")
    ws_plan = plans.get("workspace")

    need_order = off_plan.return_trip if off_plan is not None else ()

    steps: List[SymStep] = []
    for step in route.steps:
        i = step.index
        layer = step.layer
        is_fw = step.phase is Phase.FORWARD
        op = f"{layer.name}:{step.phase.value[0]}"
        if not is_fw and isinstance(layer, DataLayer):
            # the executor skips the data layer's backward entirely;
            # only the scheduled reclamation still lands on this index
            reads = writes = ()
        else:
            reads = syms(route.step_reads(step))
            writes = syms(route.step_writes(step))
        # the executor locks every operand for the kernel's duration
        # and unlocks all of them after — symmetric by construction;
        # hand-built traces can seed an imbalance
        held = reads + writes
        offloads: List[Tuple[SymTensor, Optional[int]]] = []
        if off_plan is not None:
            for t in off_plan.step_offloads.get(i, ()):
                offloads.append((sym(t), release_step.get(t.tensor_id)))
        prefetches: List[SymTensor] = []
        if off_plan is not None:
            for t in off_plan.step_prefetch.get(i, ()):
                prefetches.append(sym(t))
        pick = ws_plan.workspace_picks.get(i) if ws_plan is not None else None
        steps.append(SymStep(
            index=i, op=op, phase=step.phase.value,
            reads=reads, writes=writes, locks=held, unlocks=held,
            offloads=tuple(offloads),
            frees=syms(live_plan.step_frees.get(i, ())
                       if live_plan is not None else ()),
            discards=syms(rec_plan.step_discards.get(i, ())
                          if rec_plan is not None else ()),
            prefetches=tuple(prefetches),
            needs=tuple(sym(t) for t in compiled.liveness.reads_at(i)
                        if t.kind is TensorKind.DATA)
            if need_order and not is_fw else (),
            workspace_bytes=pick.assigned_ws if pick is not None else 0,
        ))

    param_bytes = sum(p.nbytes for layer in net.layers for p in layer.params)
    cache_mode = bool(config.use_offload and config.use_tensor_cache)
    return PlanTrace(
        target=target or f"{net.name}/{compiled.mode}",
        steps=steps,
        param_bytes=param_bytes,
        capacity=config.capacity,
        overflow_is_error=not cache_mode,
        unverified_policies=tuple(
            g.key for g in compiled.gathered if g.plan is None),
        return_trip=tuple((i, sym(t)) for i, t in need_order),
    )


# --------------------------------------------------------------------------- #
# verification: PlanTrace -> diagnostics
# --------------------------------------------------------------------------- #

_UNALLOC, _GPU, _HOST, _FREED = "unallocated", "gpu", "host", "freed"

#: tensor kinds the executor allocates on demand (``_ensure_grad``):
#: reading one while unallocated is the normal first-touch, not a bug
_ON_DEMAND_KINDS = frozenset({"grad", "param_grad"})


class _SymState:
    """The verifier's mirror of ``SessionTensorState`` + the byte ledger."""

    def __init__(self, param_bytes: int):
        self.placements: Dict[int, str] = {}
        self.host: set = set()          # valid host copies
        self.locks: Dict[int, int] = {}
        self.names: Dict[int, str] = {}
        self.gpu_bytes = 0              # activations + grads, params apart
        self.param_bytes = param_bytes
        self.peak = param_bytes
        # tensor_id -> (tensor, release_step | None): offload in flight
        self.pending: Dict[int, Tuple[SymTensor, Optional[int]]] = {}

    def place(self, t: SymTensor) -> str:
        return self.placements.get(t.tensor_id, _UNALLOC)

    def is_live(self, t: SymTensor) -> bool:
        return self.place(t) in (_GPU, _HOST)

    def alloc(self, t: SymTensor) -> None:
        if self.place(t) != _GPU:
            self.gpu_bytes += t.nbytes
        self.placements[t.tensor_id] = _GPU
        self.names[t.tensor_id] = t.name

    def free_gpu(self, t: SymTensor) -> None:
        if self.place(t) == _GPU:
            self.gpu_bytes -= t.nbytes
        self.placements[t.tensor_id] = \
            _HOST if t.tensor_id in self.host else _FREED

    def discard(self, t: SymTensor) -> None:
        if self.place(t) == _GPU:
            self.gpu_bytes -= t.nbytes
        self.host.discard(t.tensor_id)
        self.pending.pop(t.tensor_id, None)
        self.placements[t.tensor_id] = _FREED

    def sample_peak(self, scratch: int = 0) -> None:
        used = self.param_bytes + self.gpu_bytes + scratch
        if used > self.peak:
            self.peak = used


def verify_trace(trace: PlanTrace) -> List[Diagnostic]:
    """Replay one symbolic schedule; return every violation found."""
    diags: List[Diagnostic] = []
    st = _SymState(trace.param_bytes)
    target = trace.target

    def emit(rule: str, step: SymStep, msg: str,
             tensor: Optional[SymTensor] = None,
             severity: str = "error") -> None:
        diags.append(Diagnostic(
            rule=rule, message=msg, severity=severity, target=target,
            step=step.index if step is not None else None,
            op=step.op if step is not None else None,
            tensor=tensor.name if tensor is not None else None,
        ))

    for key in trace.unverified_policies:
        diags.append(Diagnostic(
            rule="PLAN005", severity="warning", target=target,
            message=f"policy {key!r} is not plan-stable; its runtime "
                    "allocations are invisible to the static peak model",
        ))

    for step in trace.steps:
        # -- reap: eagerly offloaded GPU copies retire at their
        #    statically-known release point (last forward use)
        for tid in [tid for tid, (_t, rel) in st.pending.items()
                    if rel is not None and rel < step.index]:
            t, _rel = st.pending.pop(tid)
            st.free_gpu(t)

        # -- make reads resident
        for t in step.reads:
            p = st.place(t)
            if p == _GPU or t.kind == "param":
                continue
            if p == _HOST:
                emit("PLAN002", step,
                     f"tensor {t.name!r} is host-resident at its "
                     f"consumer with no prefetch scheduled strictly "
                     f"before step {step.index}; the kernel would stall "
                     f"on a synchronous fetch", t)
                st.alloc(t)  # model the forced fetch; keep replaying
                continue
            # UNALLOCATED or FREED
            if t.kind in _ON_DEMAND_KINDS:
                st.alloc(t)  # _ensure_grad: zero-filled on first touch
                continue
            if t.anchor_id is not None:
                anchor_place = st.placements.get(t.anchor_id, _UNALLOC)
                if anchor_place in (_GPU, _HOST):
                    st.alloc(t)  # segment re-run rebuilds it
                else:
                    emit("PLAN004", step,
                         f"tensor {t.name!r} was discarded for "
                         f"recomputation but its segment anchor "
                         f"(tensor id {t.anchor_id}) is "
                         f"{anchor_place} at the demanding step — the "
                         f"segment cannot be re-run", t)
                    st.alloc(t)
                continue
            emit("PLAN001", step,
                 f"tensor {t.name!r} is {p} when step {step.index} "
                 f"reads it — freed before its last consumer", t)
            st.alloc(t)

        # -- locks (Alg. 2 T.Lock) around the kernel
        for t in step.locks:
            st.locks[t.tensor_id] = st.locks.get(t.tensor_id, 0) + 1
            st.names[t.tensor_id] = t.name

        # -- allocate outputs, run the kernel (scratch live)
        for t in step.writes:
            st.alloc(t)
        st.sample_peak(step.workspace_bytes)

        for t in step.unlocks:
            held = st.locks.get(t.tensor_id, 0)
            if held <= 0:
                emit("PLAN003", step,
                     f"unlock of {t.name!r} without a matching lock", t)
            else:
                st.locks[t.tensor_id] = held - 1

        # -- after-step reclamation: offload registration precedes
        #    frees (the executor's stack order), so frees can defer to
        #    an in-flight copy
        for t, rel in step.offloads:
            if st.place(t) != _GPU:
                emit("PLAN006", step,
                     f"offload scheduled for {t.name!r} which is "
                     f"{st.place(t)}, not GPU-resident", t)
                continue
            st.host.add(t.tensor_id)
            st.pending[t.tensor_id] = (t, rel)

        for t in step.frees:
            if t.tensor_id in st.pending:
                # copy in flight: the reap retires the GPU bytes; the
                # host copy survives to the barrier sweep
                continue
            p = st.place(t)
            if p == _FREED:
                emit("PLAN006", step,
                     f"tensor {t.name!r} freed twice (already freed "
                     f"when step {step.index}'s free list runs)", t)
                continue
            st.discard(t)  # UNALLOCATED -> FREED is the legal no-op

        for t in step.discards:
            if st.is_live(t):  # conditional by contract
                st.discard(t)

        # -- settled phase: prefetch-ahead with the runtime's guard
        for t in step.prefetches:
            if st.place(t) == _HOST:
                st.alloc(t)  # arrives just-in-time for the next step
        st.sample_peak()

    # -- iteration barrier: drain copies, check the invariants that
    #    must hold at the end of every iteration
    for t, _rel in list(st.pending.values()):
        st.free_gpu(t)
    st.pending.clear()

    for tid, held in sorted(st.locks.items()):
        if held != 0:
            diags.append(Diagnostic(
                rule="PLAN003", target=target,
                tensor=st.names.get(tid),
                message=f"tensor {st.names.get(tid, tid)!r} still holds "
                        f"{held} lock(s) at the iteration barrier — it "
                        f"could never be evicted again",
            ))

    # -- the return trip's need order: a derived schedule, so checked
    #    against the steps alone
    first_need: Dict[int, int] = {}
    if trace.return_trip:
        for step in trace.steps:
            if step.phase == "backward":
                for t in step.needs:
                    first_need.setdefault(t.tensor_id, step.index)
    seen: Dict[int, int] = {}
    after = -1
    for i, t in trace.return_trip:
        step = trace.steps[i] if 0 <= i < len(trace.steps) else None
        if t.tensor_id in seen:
            emit("PLAN007", step,
                 f"tensor {t.name!r} is in the need order twice (steps "
                 f"{seen[t.tensor_id]} and {i}) — only its first "
                 f"backward use is a deadline", t)
        elif i < after:
            emit("PLAN007", step,
                 f"need order is not sorted by first backward use: "
                 f"{t.name!r} at step {i} follows an entry at step "
                 f"{after}", t)
        elif first_need.get(t.tensor_id) != i:
            emit("PLAN007", step,
                 f"need order names step {i} as the first backward "
                 f"step to need {t.name!r}; the route says "
                 f"{first_need.get(t.tensor_id, 'none does')}", t)
        seen.setdefault(t.tensor_id, i)
        after = max(after, i)

    if trace.capacity is not None and st.peak > trace.capacity:
        diags.append(Diagnostic(
            rule="PLAN005", target=target,
            severity="error" if trace.overflow_is_error else "warning",
            message=f"simulated peak live set {st.peak / MiB:.1f} MiB "
                    f"exceeds the configured DRAM capacity "
                    f"{trace.capacity / MiB:.1f} MiB"
                    + ("" if trace.overflow_is_error else
                       " (pressure-driven eviction may shed bytes at "
                       "runtime)"),
        ))
    return diags


# --------------------------------------------------------------------------- #
# entry points
# --------------------------------------------------------------------------- #

def verify_compiled_mode(net, compiled, config: RuntimeConfig,
                         target: Optional[str] = None) -> List[Diagnostic]:
    """Extract + verify one compiled mode; returns its diagnostics."""
    return verify_trace(extract_trace(net, compiled, config, target=target))


def verify_engine(engine, modes: Sequence[str] = ("train", "infer"),
                  ) -> CheckReport:
    """Verify every requested mode of an engine (compiling on demand).

    The report's ``checked`` list records each ``net/mode`` pair so an
    empty diagnostics list still proves coverage.
    """
    report = CheckReport(tool="plan-verifier")
    for mode in modes:
        cm = engine.compiled(mode)
        eff = engine.config.for_mode(mode)
        target = f"{engine.net.name}/{mode}"
        report.checked.append(target)
        report.extend(verify_compiled_mode(engine.net, cm, eff,
                                           target=target))
    return report
