"""repro.check — static & dynamic analysis for plans, source, and runs.

Four pillars (see DESIGN.md "Static checks" and "Concurrency model"):

* the **plan verifier** runs one iteration of a compiled mode on the
  simulated executor, placement validator armed, and turns what the run
  refuses or records into memory-safety findings (PLAN001-PLAN007)
  before any session runs the plan;
* the **architecture linter** encodes the ownership/concurrency rules
  the parallel-session design relies on (LINT001-LINT005) as AST checks
  over ``src/repro/``;
* the **race detector** replays a vector-clock happens-before + lockset
  analysis over one instrumented execution's synchronization log
  (RACE001-RACE005), catching races and potential deadlocks that
  bit-identity tests can miss by lucky scheduling;
* the **cost model** records one payload-free iteration of the
  simulated executor itself — iteration time, DMA traffic, stalls and
  peak memory — and flags performance pathologies (PERF001-PERF007)
  — with a policy advisor that recommends the cheapest ablation rung
  fitting a memory budget.

All report structured :class:`~repro.check.diagnostics.Diagnostic`
findings with provenance and serialize to one JSON artifact schema CI
uploads (``diagnostics.SCHEMA_VERSION``).  Entry points: ``repro check
plan`` / ``check lint`` / ``check race`` / ``check cost`` on the CLI;
``Engine(..., verify=True)`` and ``Engine(..., cost_report=True)`` at
compile time; ``REPRO_TRACE_SYNC=1`` or ``instrument.capture()`` to
arm the synchronization trace (capacity via ``REPRO_TRACE_SYNC_CAP`` /
``capture(limit=)``).

Attribute resolution is lazy (PEP 562): ``repro.check.instrument`` is
imported by core modules (engine, tensor_state) that the plan verifier
and the cost model import — an eager import here would be a cycle.
``instrument`` itself depends only on stdlib.
"""

from __future__ import annotations

import importlib
from typing import Dict

#: public name -> owning submodule
_EXPORTS: Dict[str, str] = {
    # diagnostics
    "ALL_RULES": "diagnostics",
    "CheckReport": "diagnostics",
    "Diagnostic": "diagnostics",
    "LINT_RULES": "diagnostics",
    "PERF_RULES": "diagnostics",
    "PLAN_RULES": "diagnostics",
    "RACE_RULES": "diagnostics",
    "RULE_FAMILIES": "diagnostics",
    "SCHEMA_VERSION": "diagnostics",
    # linter
    "lint_paths": "lint",
    "lint_source": "lint",
    "lint_tree": "lint",
    # plan verifier
    "PlanVerificationError": "plan_verifier",
    "verify_compiled_mode": "plan_verifier",
    "verify_engine": "plan_verifier",
    # instrumentation
    "EventLog": "instrument",
    "SyncEvent": "instrument",
    "TracedCondition": "instrument",
    "TracedEvent": "instrument",
    "TracedLock": "instrument",
    "TracedThread": "instrument",
    "arm": "instrument",
    "armed": "instrument",
    "capture": "instrument",
    "channel_recv": "instrument",
    "channel_send": "instrument",
    "disarm": "instrument",
    "trace_read": "instrument",
    "trace_write": "instrument",
    # race detector + scenarios
    "analyze_log": "race_detector",
    "run_parallel_scenario": "scenarios",
    "run_serving_scenario": "scenarios",
    "run_saturated_scenario": "scenarios",
    # cost model + advisor
    "CostPrediction": "cost_model",
    "CostThresholds": "cost_model",
    "analyze_prediction": "cost_model",
    "cost_compiled_mode": "cost_model",
    "cost_engine": "cost_model",
    "predict_compiled_mode": "cost_model",
    "request_fill": "cost_model",
    "request_padding_rows": "cost_model",
    "request_steps": "cost_model",
    "serving_fill_check": "cost_model",
    "Advice": "advisor",
    "advise": "advisor",
    "assess_ladder": "advisor",
    "recommend": "advisor",
}

__all__ = sorted(_EXPORTS) + ["instrument"]


def __getattr__(name: str):
    if name == "instrument":
        return importlib.import_module("repro.check.instrument")
    mod = _EXPORTS.get(name)
    if mod is None:
        raise AttributeError(f"module 'repro.check' has no attribute "
                             f"{name!r}")
    return getattr(importlib.import_module(f"repro.check.{mod}"), name)


def __dir__():
    return __all__
