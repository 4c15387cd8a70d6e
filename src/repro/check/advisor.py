"""Static policy advisor: rank the ablation ladder, recommend a rung.

The paper's Alg. 2 makes its offload/recompute decisions *online*,
per-layer, from measured costs.  With the cost model
(:mod:`repro.check.cost_model`) those costs are available statically —
so the whole decision can be made before a single iteration runs:
predict every ablation rung's iteration time and peak memory for a net,
drop the rungs whose peak exceeds the memory budget, and recommend the
fastest rung that fits.  That is exactly the question the ROADMAP's
heterogeneous-fleet item asks per device class ("which policy stack do
I deploy on a 4 GiB card?"), answered in milliseconds by
``check cost --budget N --advise``.

The ladder defaults to the canonical ablation sequence the benchmarks
and ``check plan --all`` sweep; each rung maps to the
:class:`~repro.core.config.RuntimeConfig` classmethod of the same name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.check.cost_model import CostPrediction, predict_compiled_mode
from repro.check.diagnostics import Diagnostic
from repro.check.plan_verifier import refusal
from repro.core.config import RuntimeConfig
from repro.core.tensor_state import ResidencyError
from repro.device.gpu import OutOfMemoryError

MiB = 1024 * 1024

#: The canonical ablation ladder, cheapest-memory last.  Each name is a
#: ``RuntimeConfig`` classmethod.
DEFAULT_LADDER = ("baseline", "liveness_only", "liveness_offload",
                  "superneurons")


@dataclass
class RungAssessment:
    """One ladder rung's predictions across the requested modes, and
    per mode the victims its tensor cache drops instead of copying:
    (tensor, modelled rebuild seconds, modelled exposed copy seconds),
    as :func:`~repro.core.cache.choose_drops` weighed them.  A mode the
    rung cannot run is in ``refused`` instead, with the plan verifier's
    findings, and the rung fits no budget."""

    rung: str
    predictions: Dict[str, CostPrediction] = field(default_factory=dict)
    dropped: Dict[str, List[Tuple[str, float, float]]] = field(
        default_factory=dict)
    refused: Dict[str, List[Diagnostic]] = field(default_factory=dict)

    @property
    def peak_bytes(self) -> int:
        """Worst predicted GPU peak across modes (what must fit)."""
        return max((p.peak_gpu_bytes for p in self.predictions.values()),
                   default=0)

    def time_for(self, mode: str) -> float:
        pred = self.predictions.get(mode)
        return float("inf") if pred is None else pred.sim_time

    def fits(self, budget: Optional[int]) -> bool:
        return not self.refused and (
            budget is None or self.peak_bytes <= budget)

    def to_dict(self) -> dict:
        out = {
            "rung": self.rung,
            "peak_bytes": self.peak_bytes if self.predictions else None,
            "modes": {m: p.to_dict() for m, p in self.predictions.items()},
            "dropped": {m: [{"tensor": name, "rebuild_ms": rebuild * 1e3,
                             "exposed_copy_ms": copies * 1e3}
                            for name, rebuild, copies in rows]
                        for m, rows in self.dropped.items()},
        }
        if self.refused:
            out["refused"] = {m: [d.to_dict() for d in diags]
                              for m, diags in self.refused.items()}
        return out


@dataclass
class Advice:
    """The ranked ladder plus the recommendation for one net."""

    net: str
    budget: Optional[int]
    rank_mode: str
    ladder: List[RungAssessment] = field(default_factory=list)

    @property
    def recommended(self) -> Optional[str]:
        return recommend(self.ladder, self.budget, self.rank_mode)

    def render(self) -> str:
        budget_txt = f"{self.budget / MiB:.0f} MiB" \
            if self.budget is not None else "none"
        lines = [f"advisor: {self.net} (budget {budget_txt}, "
                 f"ranked by {self.rank_mode} time)"]
        for a in sorted(self.ladder,
                        key=lambda a: a.time_for(self.rank_mode)):
            marks = []
            if a.refused:
                marks.append(f"refused ({', '.join(sorted(a.refused))})")
            elif not a.fits(self.budget):
                marks.append("over budget")
            if a.rung == self.recommended:
                marks.append("<== recommended")
            cols = [f"{m}={p.sim_time * 1e3:8.2f} ms"
                    for m, p in sorted(a.predictions.items())]
            if a.predictions:  # what ran: its times and its peak
                cols.append(f"peak={a.peak_bytes / MiB:8.1f} MiB")
            lines.append(f"  {a.rung:18s} " + "  ".join(cols + marks))
        if self.recommended is None:
            lines.append(
                "  no rung fits the budget — the net needs a smaller "
                "batch or a larger device")
        return "\n".join(lines)

    def render_drops(self) -> str:
        """One row per victim a rung's tensor cache drops, with the two
        modelled costs the choice weighed ("" when none drops)."""
        lines = []
        for a in self.ladder:
            for mode, rows in sorted(a.dropped.items()):
                title = f"dropped by {a.rung} ({mode}), modelled"
                lines.append(f"  {title:38s} {'rebuild':>10s} "
                             f"{'exposed copy':>13s}")
                lines.extend(f"    {name:36s} {rebuild * 1e3:7.2f} ms "
                             f"{copies * 1e3:10.2f} ms"
                             for name, rebuild, copies in rows)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "net": self.net,
            "budget": self.budget,
            "rank_mode": self.rank_mode,
            "recommended": self.recommended,
            "ladder": [a.to_dict() for a in self.ladder],
        }


def assess_ladder(make_net: Callable[[], object],
                  modes: Sequence[str] = ("train", "infer"),
                  rungs: Sequence[str] = DEFAULT_LADDER,
                  **config_kw) -> List[RungAssessment]:
    """Predict every rung of the ladder for a net.

    ``make_net`` must return a *fresh* net per call (each rung compiles
    its own engine); ``config_kw`` (e.g. ``gpu_capacity``, ``device``)
    is forwarded to every rung's config constructor.  A mode the
    executor refuses to run is verified instead, into ``refused``.
    """
    from repro.core.engine import Engine  # lazy: check <- core cycle
    out = []
    for rung in rungs:
        cfg = getattr(RuntimeConfig, rung)(concrete=False, **config_kw)
        engine = Engine(make_net(), cfg)
        a = RungAssessment(rung=rung)
        names = {l.output.tensor_id: l.output.name
                 for l in engine.net.layers if l.output is not None}
        for mode in modes:
            eff = engine.config.for_mode(mode)
            target = f"{engine.net.name}/{mode}@{rung}"
            try:
                cm = engine.compiled(mode)
                a.predictions[mode] = predict_compiled_mode(
                    engine.net, cm, eff, target=target)
            except (OutOfMemoryError, ResidencyError) as exc:
                # the refused iteration, reported as check plan does
                a.refused[mode] = [refusal(exc, target)]
                continue
            if cm.cache_seed is not None and cm.cache_seed.drop_costs:
                a.dropped[mode] = [
                    (names[tid], *costs)
                    for tid, costs in cm.cache_seed.drop_costs.items()]
        out.append(a)
    return out


def recommend(ladder: Sequence[RungAssessment],
              budget: Optional[int],
              rank_mode: str = "train") -> Optional[str]:
    """The fastest rung (by ``rank_mode`` time) whose worst-mode peak
    fits the budget; ``None`` when nothing fits."""
    fitting = [a for a in ladder if a.fits(budget)]
    if not fitting:
        return None
    return min(fitting, key=lambda a: a.time_for(rank_mode)).rung


def advise(make_net: Callable[[], object], net_name: str,
           budget: Optional[int] = None,
           modes: Sequence[str] = ("train", "infer"),
           rungs: Sequence[str] = DEFAULT_LADDER,
           rank_mode: str = "train",
           **config_kw) -> Advice:
    """Rank the ladder for one net and pick the cheapest fitting rung."""
    if rank_mode not in modes:
        raise ValueError(f"rank_mode {rank_mode!r} not in modes {modes}")
    ladder = assess_ladder(make_net, modes=modes, rungs=rungs, **config_kw)
    return Advice(net=net_name, budget=budget, rank_mode=rank_mode,
                  ladder=ladder)
