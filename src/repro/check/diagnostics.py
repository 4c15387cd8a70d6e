"""Structured diagnostics shared by the four check pillars: the plan
verifier, the linter, the race detector, and the cost model.

Every violation any tool reports is a :class:`Diagnostic`: a stable
rule id (``PLAN001``, ``LINT003``, ...), a short rule name, a severity,
a human-readable message, and *provenance* — ``file:line`` for lint
findings, ``net/mode`` plus ``step/op`` for plan findings — so a CI log
line is actionable without re-running anything.  A :class:`CheckReport`
aggregates them, renders the text form, and serializes to the JSON
artifact the ``static-analysis`` CI matrix uploads.

Every serialized report shares one schema (:data:`SCHEMA_VERSION`):
``{"schema_version", "tool", "rules": {id: name}, "ok", "checked",
"summary", "diagnostics", "metrics"}`` — CI consumers parse one format
whichever of ``check plan|lint|race|cost`` produced it.  The ``rules``
header carries the catalog of every rule the producing tool *could*
have emitted (its rule family), so a consumer can distinguish "clean"
from "never checked".  ``metrics`` is the numeric side-channel the cost
model fills with per-target predictions; the other tools leave it
empty.

Rule ids are append-only: a retired rule keeps its number (the id is
what suppression pragmas and CI greps key on).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Severities, most severe first.  ``error`` fails the check; ``warning``
#: is reported (and serialized) but does not flip the exit code —
#: used where the static model cannot decide (e.g. an over-capacity
#: peak under a pressure-driven eviction policy that may shed bytes at
#: runtime).
SEVERITIES = ("error", "warning")

#: Plan-verifier rules: invariant violated -> what it means at runtime.
PLAN_RULES: Dict[str, str] = {
    "PLAN001": "use-after-free",
    "PLAN002": "missing-prefetch",
    "PLAN003": "lock-imbalance",
    "PLAN004": "unrecoverable-recompute",
    "PLAN005": "capacity-overflow",
    "PLAN006": "double-free",
    "PLAN007": "return-trip-disorder",
}

#: Architecture-linter rules: repo discipline encoded as checks.
LINT_RULES: Dict[str, str] = {
    "LINT001": "descriptor-mutation",
    "LINT002": "unregistered-policy",
    "LINT003": "unguarded-shared-state",
    "LINT004": "bare-lock-acquire",
    "LINT005": "raw-sync-primitive",
}

#: Race-detector rules: findings over one instrumented execution's
#: happens-before / lockset analysis (see repro.check.race_detector).
RACE_RULES: Dict[str, str] = {
    "RACE001": "unordered-conflicting-access",
    "RACE002": "lock-order-inversion",
    "RACE003": "unsynchronized-publish",
    "RACE004": "lock-held-across-wait",
    "RACE005": "incomplete-trace",
}

#: Cost-model rules: performance pathologies found in one recorded
#: iteration of a compiled schedule (see repro.check.cost_model).
PERF_RULES: Dict[str, str] = {
    "PERF001": "late-prefetch-stall",
    "PERF002": "offload-without-payback",
    "PERF003": "uneconomic-recompute",
    "PERF004": "missed-overlap-window",
    "PERF005": "over-memory-budget",
    "PERF006": "serving-padding-waste",
    "PERF007": "exposed-dma",
}

ALL_RULES: Dict[str, str] = {**PLAN_RULES, **LINT_RULES, **RACE_RULES,
                             **PERF_RULES}

#: Artifact schema version, bumped whenever the JSON layout changes.
#: v2 unified the four tools: shared top-level keys + the ``rules``
#: catalog header + the ``metrics`` side-channel.
SCHEMA_VERSION = 2

#: Rule family per tool name — the catalog a report embeds so its JSON
#: consumer knows the full rule space that was in force.
RULE_FAMILIES: Dict[str, Dict[str, str]] = {
    "plan-verifier": PLAN_RULES,
    "lint": LINT_RULES,
    "race-detector": RACE_RULES,
    "cost-model": PERF_RULES,
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding, with enough provenance to act on it.

    ``file``/``line`` locate lint findings; ``target`` (``net/mode``),
    ``step`` and ``op`` locate plan findings inside the compiled
    schedule.  ``tensor`` names the descriptor involved when one is.
    """

    rule: str                     # e.g. "PLAN001"
    message: str
    severity: str = "error"
    # lint provenance
    file: Optional[str] = None
    line: Optional[int] = None
    # plan provenance
    target: Optional[str] = None  # "alexnet/train"
    step: Optional[int] = None    # route step index
    op: Optional[str] = None      # "conv1:b", "lrn1:f", ...
    tensor: Optional[str] = None

    def __post_init__(self) -> None:
        if self.rule not in ALL_RULES:
            raise ValueError(f"unknown rule id {self.rule!r}")
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def name(self) -> str:
        """The rule's short name (``use-after-free``, ...)."""
        return ALL_RULES[self.rule]

    def where(self) -> str:
        """The provenance half of the rendered line."""
        if self.file is not None:
            return f"{self.file}:{self.line}" if self.line is not None \
                else self.file
        parts = []
        if self.target:
            parts.append(self.target)
        if self.step is not None:
            parts.append(f"step {self.step}"
                         + (f" ({self.op})" if self.op else ""))
        elif self.op:
            parts.append(self.op)
        return " ".join(parts) or "<plan>"

    def render(self) -> str:
        sev = "" if self.severity == "error" else f" [{self.severity}]"
        return f"{self.rule} {self.name}{sev} @ {self.where()}: " \
               f"{self.message}"

    def to_dict(self) -> dict:
        out = {
            "rule": self.rule,
            "name": self.name,
            "severity": self.severity,
            "message": self.message,
        }
        for k in ("file", "line", "target", "step", "op", "tensor"):
            v = getattr(self, k)
            if v is not None:
                out[k] = v
        return out


@dataclass
class CheckReport:
    """A tool run's findings plus the machinery CI consumes."""

    tool: str                     # a RULE_FAMILIES key, "+"-joined when merged
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: what was checked, for the empty-report case to still be meaningful
    checked: List[str] = field(default_factory=list)
    #: numeric side-channel: per-target measurement/prediction summaries
    #: (the cost model fills this; other tools leave it empty)
    metrics: Dict[str, dict] = field(default_factory=dict)

    def extend(self, diags) -> None:
        self.diagnostics.extend(diags)

    def merge(self, other: "CheckReport") -> "CheckReport":
        """Fold ``other`` into this report (diagnostics, checked
        targets, metrics).  Distinct tools join as ``"a+b"`` and the
        serialized rule catalog becomes the union of their families —
        one artifact can carry a whole multi-tool sweep."""
        parts = self.tool.split("+")
        for p in other.tool.split("+"):
            if p not in parts:
                parts.append(p)
        self.tool = "+".join(parts)
        self.diagnostics.extend(other.diagnostics)
        self.checked.extend(other.checked)
        self.metrics.update(other.metrics)
        return self

    def rule_catalog(self) -> Dict[str, str]:
        """Every rule id this report's tool(s) could have emitted."""
        catalog: Dict[str, str] = {}
        for part in self.tool.split("+"):
            catalog.update(RULE_FAMILIES.get(part, {}))
        for d in self.diagnostics:  # tools outside the known families
            catalog.setdefault(d.rule, ALL_RULES[d.rule])
        return catalog

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def ok(self) -> bool:
        """No errors (warnings do not fail a check)."""
        return not self.errors

    def render(self) -> str:
        lines = [d.render() for d in self.diagnostics]
        n_err, n_warn = len(self.errors), len(self.warnings)
        lines.append(
            f"{self.tool}: {len(self.checked)} target(s) checked, "
            f"{n_err} error(s), {n_warn} warning(s)"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "tool": self.tool,
            "rules": self.rule_catalog(),
            "ok": self.ok,
            "checked": list(self.checked),
            "summary": {"errors": len(self.errors),
                        "warnings": len(self.warnings)},
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "metrics": dict(self.metrics),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)
