"""What every workload implements, and the pieces they share."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List

from . import spec
from .profiler import LedgerProfiler

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


@dataclass
class Outcome:
    """One untraced run: the end-to-end metrics and the gate counts."""

    metrics: Dict[str, float] = field(default_factory=dict)
    #: the host-time metrics' own uncertainty (see Windows.spreads)
    spread: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)
    info: Dict[str, object] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        """A correctness gate: a failed one is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"CHECK FAILED: {what}")
        return ok


class Workload:
    """One row of ``spec.WORKLOADS``.

    ``setup`` is what a user pays before the first result (it is timed
    in fresh processes for ``setup_s``); ``measure`` is the untraced
    end-to-end run; ``trace`` the separate traced run that fills the
    per-layer metrics (names absent from its result report 0).
    """

    name = ""

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> Outcome:
        raise NotImplementedError

    def trace(self, seconds: float) -> Dict[str, float]:
        raise NotImplementedError

    def close(self) -> None:
        pass


def repro_root() -> str:
    import repro
    return os.path.dirname(os.path.abspath(repro.__file__))


def ledger_rows(prof: LedgerProfiler, ops: int, name: str,
                overhead_x: float) -> Dict[str, float]:
    """Fold a finished profile into the ``<layer>.self_ms`` (per
    operation) / ``<layer>.calls`` (per operation) metrics plus
    coverage, and write the ledger file under ``out/``.  ``overhead_x``
    is the caller's traced / untraced end-to-end figure."""
    rows, funcs = prof.ledger(repro_root())
    total = sum(r[0] for r in rows.values())
    out: Dict[str, float] = {}
    for layer in spec.LAYERS:
        self_s, calls = rows[layer]
        out[f"{layer}.self_ms"] = self_s / ops * 1e3
        out[f"{layer}.calls"] = calls / ops
    out["ledger.coverage"] = total / prof.thread_seconds
    out["trace.overhead_x"] = overhead_x
    merged: Dict[tuple, List[float]] = {}
    for layer, fn, where, self_s, calls in funcs:
        acc = merged.setdefault((layer, fn, where), [0.0, 0])
        acc[0] += self_s
        acc[1] += calls
    top = sorted(merged.items(), key=lambda kv: -kv[1][0])[:60]
    write_out(f"{name}.ledger.json", {
        "workload": name, "operations": ops,
        "threads": prof.threads,
        "traced_ms_per_op": prof.wall_seconds / ops * 1e3,
        "overhead_x": overhead_x,
        "coverage": out["ledger.coverage"],
        "rows": {l: {"self_ms_per_op": rows[l][0] / ops * 1e3,
                     "share": rows[l][0] / total if total else 0.0,
                     "calls_per_op": rows[l][1] / ops}
                 for l in spec.LAYERS},
        "top_functions": [
            {"layer": k[0], "function": k[1], "where": k[2],
             "self_ms_per_op": v[0] / ops * 1e3,
             "calls_per_op": v[1] / ops}
            for k, v in top],
    })
    return out


def write_out(filename: str, doc) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, filename)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path

