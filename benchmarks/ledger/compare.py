"""``--compare A.json B.json``: is B the same, better, or worse than A?

One row per workload x end-to-end metric — both values, the ratio with
its base, the bound, a verdict — never a combined score.  A host-time
metric whose own uncertainty (``stats.median_uncertainty`` of its timed
windows) is wider than its bound cannot resolve a difference of that
size: it is reported ``unresolved``, not ``same``.  Simulated figures
on the single-threaded workloads, and the traced call counts there, are
pure functions of the code and must be equal to the last digit.
"""

from __future__ import annotations

import json
from typing import List, Tuple

from . import spec

#: end-to-end metrics that are a pure function of the code on the
#: ``spec.EXACT_SIM`` workloads (``ok_share`` is exact everywhere)
EXACT_METRICS = ("sim_img_per_s", "peak_mib", "ok_share")


def is_exact(workload: str, metric: str) -> bool:
    return metric == "ok_share" or (
        metric in EXACT_METRICS and workload in spec.EXACT_SIM)


def worsening(metric: spec.Metric, a: float, b: float) -> float:
    """How much worse ``b`` is than ``a`` as a share of ``a`` (negative
    when better)."""
    change = (b - a) / a
    return change if metric.better == "lower" else -change


def verdict(workload: str, metric: spec.Metric, a: float, b: float,
            spread: float) -> str:
    """``same`` / ``better`` / ``worse`` / ``unresolved``."""
    if is_exact(workload, metric.name):
        if a == b:
            return "same"
        return "worse" if worsening(metric, a, b) > 0 else "better"
    if spread > metric.bound:
        return "unresolved"
    w = worsening(metric, a, b)
    if w > metric.bound:
        return "worse"
    return "better" if w < -metric.bound else "same"


def compare_results(a: dict, b: dict) -> Tuple[List[tuple], List[str]]:
    """``(rows, call-count differences)``; a row is ``(workload,
    metric, a, b, ratio, bound, spread, verdict)``."""
    rows, diffs = [], []
    for name in spec.WORKLOAD_NAMES:
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            diffs.append(f"{name}: missing from one side")
            continue
        ea, eb = wa["end_to_end"], wb["end_to_end"]
        for m in spec.END_TO_END:
            va = ea["metrics"][m.name]["value"]
            vb = eb["metrics"][m.name]["value"]
            spread = max(ea.get("spread", {}).get(m.name, 0.0),
                         eb.get("spread", {}).get(m.name, 0.0))
            rows.append((name, m.name, va, vb, vb / va, m.bound, spread,
                         verdict(name, m, va, vb, spread)))
        if name in spec.EXACT_CALLS:
            la, lb = wa["per_layer"]["metrics"], wb["per_layer"]["metrics"]
            for layer in spec.LAYERS:
                key = f"{layer}.calls"
                if la[key]["value"] != lb[key]["value"]:
                    diffs.append(f"{name}: {key} {la[key]['value']:g} "
                                 f"!= {lb[key]['value']:g}")
    return rows, diffs


def render(rows: List[tuple], diffs: List[str]) -> str:
    lines = [f"{'workload':<16} {'metric':<15} {'A':>12} {'B':>12} "
             f"{'B/A':>8} {'bound':>6} {'spread':>7}  verdict"]
    for name, metric, va, vb, ratio, bound, spread, v in rows:
        exact = is_exact(name, metric)
        lines.append(
            f"{name:<16} {metric:<15} {va:>12.6g} {vb:>12.6g} "
            f"{ratio:>7.3f}x {'exact' if exact else f'{bound:.0%}':>6} "
            f"{'-' if exact else f'{spread:.1%}':>7}  {v}")
    lines.append("")
    if diffs:
        lines.append("traced call counts that must repeat exactly "
                     "but differ:")
        lines.extend(f"  {d}" for d in diffs)
    else:
        lines.append("traced call counts: identical on "
                     + ", ".join(spec.EXACT_CALLS))
    return "\n".join(lines)


def main(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    rows, diffs = compare_results(a, b)
    print(f"A = {path_a} (seed {a['seed']}, commit "
          f"{a['machine']['commit']})")
    print(f"B = {path_b} (seed {b['seed']}, commit "
          f"{b['machine']['commit']}); ratios are B / A")
    print(render(rows, diffs))
    bad = [r for r in rows if r[-1] == "worse"]
    unresolved = [r for r in rows if r[-1] == "unresolved"]
    print(f"{len(rows)} rows: {len(bad)} worse, {len(unresolved)} "
          f"unresolved, {len(diffs)} call-count differences")
    return 1 if bad or diffs else 0
