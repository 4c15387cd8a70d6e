"""Plan verifier: prove a compiled schedule memory-safe by running it once.

A compiled mode is a promise: every session links the same liveness
frees, eager offload/prefetch schedule and return-trip need order, and
decides the workspace picks and recompute cleanup from the same
landscape, bit-identically on every iteration.  A buggy policy
therefore cannot crash "sometimes" — it emits a plan that is
*deterministically* wrong, and one iteration shows every way it is
wrong.  So the verifier keeps no model of its own: it runs that
iteration on a real simulated :class:`~repro.core.runtime.Executor`,
the machine every session runs the plan on, with the placement
validator armed (strict: a first iteration frees nothing twice) and
its moves recorded for the cost model's :func:`~repro.check.cost_model.
fold`.  A refusal becomes a PLAN finding at the step in flight
(``StepContext.step``), and a fetch stall the fold shows or a lock the
barrier leaves one with step, op and tensor provenance:

* **PLAN001 use-after-free** — the executor refuses to make a freed
  tensor resident: a liveness free list or recompute discard retired it
  before its last consumer.
* **PLAN002 missing-prefetch** — without the tensor cache, a kernel
  stalled on a synchronous fetch of a host-resident tensor: the eager
  schedule brought it back late or not at all.  (The tensor cache
  fetches on demand by design.)
* **PLAN003 lock-imbalance** — at the iteration barrier a tensor other
  than a parameter is still locked, so it could never be evicted again.
* **PLAN004 unrecoverable-recompute** — recomputation cannot rebuild a
  freed tensor: its producer is in no segment, or it is a conv output
  (a segment anchor, say) the tensor cache did not drop.
* **PLAN005 capacity-overflow** — an allocation fails with nothing left
  to reap, evict or drop, at parameter allocation or mid-iteration.
* **PLAN006 double-free** — the schedule frees a freed tensor,
  offloads one that is not GPU-resident, or releases the GPU copy of
  one with no host copy.
* **PLAN007 return-trip-disorder** — the tensor cache's need order (the
  deadlines its return trip times evicted lines against) is not sorted
  by first backward use, holds a tensor twice, or names a step that is
  not the first backward step to need it (a kernel read or a recompute
  chain's outside input, ``LivenessAnalysis.reads_at``).  A sort check
  over the linked plan, not a residency rule: a wrong deadline is
  not unsafe, it lands a copy late or early.

Two callers share :func:`verify_run`: ``Engine(verify=True)`` hands it
the scout iteration compiling runs anyway, and
:func:`verify_compiled_mode` a throwaway executor over a compiled
mode's planning.  An exception that is not a refusal — a fault —
propagates as itself.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.check.cost_model import CostPrediction, fold, step_label
from repro.check.diagnostics import CheckReport, Diagnostic
from repro.core.config import RuntimeConfig
from repro.core.runtime import Executor
from repro.core.tensor_state import ResidencyError
from repro.device.gpu import OutOfMemoryError
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


def refusal(exc: Union[OutOfMemoryError, ResidencyError], target: str
            ) -> Diagnostic:
    """The finding for an executor's refusal (``OutOfMemoryError`` or
    ``ResidencyError``), placed at the step its iteration had in flight:
    a failed allocation is PLAN005 there, or at parameter allocation
    when no iteration ran; a refused residency move is its own rule."""
    step = exc.step
    index, op = (None, None) if step is None \
        else (step.index, step_label(step))
    if not isinstance(exc, OutOfMemoryError):
        return Diagnostic(rule=exc.rule, message=str(exc), target=target,
                          step=index, op=op, tensor=exc.tensor.name)
    where = "for the parameters" if step is None else f"at step {index}"
    return Diagnostic(
        rule="PLAN005", target=target, step=index, op=op,
        message=f"allocating {exc.requested / MiB:.1f} MiB {where} "
                f"fails: {exc.free / MiB:.1f} of the "
                f"{exc.capacity / MiB:.1f} MiB DRAM capacity free, with "
                f"nothing left to reap, evict or drop")


def _need_order_findings(need, ex, target: str) -> List[Diagnostic]:
    """PLAN007 over a need order: ``(step index, tensor)`` pairs."""
    route = ex.route
    first_need = {}
    for step in route.steps[route.num_layers:]:
        for t in ex.liveness.reads_at(step.index):
            if t.kind is TensorKind.DATA:
                first_need.setdefault(t.tensor_id, step.index)
    diags: List[Diagnostic] = []
    seen = {}
    after = -1
    for i, t in need:
        if t.tensor_id in seen:
            msg = (f"tensor {t.name!r} is in the need order twice (steps "
                   f"{seen[t.tensor_id]} and {i}) — only its first "
                   f"backward use is a deadline")
        elif i < after:
            msg = (f"need order is not sorted by first backward use: "
                   f"{t.name!r} at step {i} follows an entry at step "
                   f"{after}")
        elif first_need.get(t.tensor_id) != i:
            msg = (f"need order names step {i} as the first backward "
                   f"step to need {t.name!r}; the route says "
                   f"{first_need.get(t.tensor_id, 'none does')}")
        else:
            msg = None
        if msg is not None:
            step = route.steps[i] if 0 <= i < len(route.steps) else None
            diags.append(Diagnostic(
                rule="PLAN007", message=msg, target=target, tensor=t.name,
                step=i if step is not None else None,
                op=step_label(step) if step is not None else None))
        seen.setdefault(t.tensor_id, i)
        after = max(after, i)
    return diags


def verify_run(build: Callable[[], Executor], target: str,
               cost: bool = False
               ) -> Tuple[List[Diagnostic], Optional[CostPrediction]]:
    """Build an executor, run its first iteration armed, judge it.

    Returns the findings and, with ``cost``, the iteration's
    :class:`CostPrediction` (None when the run was refused).  The need
    order is read off the plan the iteration linked.
    """
    try:
        ex = build()
    except OutOfMemoryError as exc:
        return [refusal(exc, target)], None
    with ex:
        state = ex.state
        state.validate = state.strict = True
        try:
            log = ex._run_recorded(0)
        except (ResidencyError, OutOfMemoryError) as exc:
            return [refusal(exc, target)], None
        prediction = fold(ex, log, target)
        diags: List[Diagnostic] = []
        if not (ex.config.use_offload and ex.config.use_tensor_cache):
            diags.extend(Diagnostic(
                rule="PLAN002", target=target, step=s.step, op=s.op,
                tensor=s.tensor,
                message=f"compute stalls {s.seconds * 1e3:.2f} ms on a "
                        f"synchronous fetch of {s.tensor!r}: no prefetch "
                        f"brought it back before its consumer")
                for s in prediction.stalls if s.kind == "fetch")
        diags.extend(Diagnostic(
            rule="PLAN003", target=target, tensor=t.name,
            message=f"tensor {t.name!r} is still locked at the iteration "
                    f"barrier — it could never be evicted again")
            for layer in ex.net.layers
            for t in (layer.output, layer.grad_output, *layer.param_grads)
            if t is not None and state.locked(t))
        offload = ex.iteration_plan.plans.get("offload")
        if offload is not None:
            diags.extend(_need_order_findings(offload.return_trip, ex, target))
    return diags, prediction if cost else None


# --------------------------------------------------------------------------- #
# entry points
# --------------------------------------------------------------------------- #

def verify_compiled_mode(net, compiled, config: RuntimeConfig,
                         target: Optional[str] = None) -> List[Diagnostic]:
    """Verify one compiled mode by running its first iteration on a
    throwaway simulated executor; returns its diagnostics.

    ``config`` must be the *effective* mode config
    (``RuntimeConfig.for_mode``) the mode was planned under.
    """
    sim = replace(config, concrete=False, collect_traces=False)
    return verify_run(
        lambda: Executor(net, sim, sim.policy_stack(), compiled),
        target or f"{net.name}/{compiled.mode}")[0]


def verify_engine(engine, modes: Sequence[str] = ("train", "infer"),
                  ) -> CheckReport:
    """Verify every requested mode of an engine (compiling on demand).

    The report's ``checked`` list records each ``net/mode`` pair so an
    empty diagnostics list still proves coverage.  A mode an armed
    engine refused to compile reports the scout's findings.
    """
    report = CheckReport(tool="plan-verifier")
    for mode in modes:
        target = f"{engine.net.name}/{mode}"
        report.checked.append(target)
        try:
            cm = engine.compiled(mode)
        except PlanVerificationError as exc:
            report.extend(exc.report.diagnostics)
            continue
        report.extend(verify_compiled_mode(
            engine.net, cm, engine.config.for_mode(mode), target=target))
    return report
