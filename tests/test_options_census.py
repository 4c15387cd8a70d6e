"""The options census: every independently settable value, pinned.

ROADMAP's standing rule — "no new ``RuntimeConfig`` field, env var or
CLI flag without a ledger row that justifies it" — used to rest on a
reviewer's memory.  The tables below are the whole option surface:
config fields, constructor/method parameters of the public entry
points, ``REPRO_*`` environment variables, and the flags of every
``repro`` subcommand.  Adding, renaming or removing one fails here
until the table is edited too, and the diff of this file is then the
list a review has to justify (removals need no justification).

``POLICY_PROTOCOL`` pins the other surface third-party code is written
against: what a ``MemoryPolicy`` may override and what a ``StepContext``
lets it see and do.  Every name there is a promise the executor keeps
on every iteration of every plan, so it grows the same way.

``OBS_SURFACE`` pins the observability front: what ``repro.obs``
exports and the arming names of the two tracers, which are bindings of
one ``ArmingSwitch`` — a third hand-written scaffold (another writer of
a module's ``ACTIVE``) fails ``test_one_writer_of_active``.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import repro
import repro.obs
from repro.check import instrument
from repro.cli import build_parser
from repro.core.config import RuntimeConfig
from repro.core.engine import Engine
from repro.core.policy import MemoryPolicy, StepContext
from repro.core.runtime import Executor
from repro.core.session import Session
from repro.obs import trace as obs_trace
from repro.serve import DynamicBatcher, InferenceServer, ServingFleet

RULE = ("no new RuntimeConfig field, env var or CLI flag (or entry-point "
        "parameter) without a ledger row that justifies it — ROADMAP.md, "
        "'Standing rules'")

CONFIG_FIELDS = [
    "concrete", "device", "gpu_capacity", "use_pool_allocator",
    "pool_slab_bytes", "pinned_host", "use_liveness", "liveness_scope",
    "use_offload", "use_tensor_cache", "cache_policy", "recompute",
    "workspace_policy", "steady_state_replay", "collect_traces",
    "external_pools",
]

PARAMETERS = {
    "InferenceServer": (InferenceServer, [
        "engine", "workers", "policy", "max_wait", "max_pending_rows",
        "clock"]),
    "ServingFleet": (ServingFleet, [
        "engines", "workers", "max_pending_rows", "policy", "max_wait",
        "clock"]),
    "DynamicBatcher": (DynamicBatcher, [
        "queue", "capacity", "policy", "max_wait", "clock"]),
    "Engine": (Engine, ["net", "config", "verify", "cost_report"]),
    "Session": (Session, ["net", "config", "mode", "engine"]),
    "Executor": (Executor, ["net", "config", "policies", "plan"]),
    "Engine.parallel_run": (Engine.parallel_run, [
        "sessions", "iters", "start_iteration", "timeout"]),
    "compile": (repro.compile, [
        "net", "config", "modes", "verify", "cost_report"]),
}

ENV_VARS = {
    "REPRO_FLIGHT_DIR", "REPRO_TRACE", "REPRO_TRACE_LIMIT",
    "REPRO_TRACE_SYNC", "REPRO_TRACE_SYNC_CAP", "REPRO_VALIDATE_STATE",
}

_COMMON = ["--batch", "--framework", "--gpu-gb", "--net"]
_CHECK_OUT = ["--fail-on", "--format", "--output"]
CLI_FLAGS = {
    "report": _COMMON,
    "trace": _COMMON + ["--iters", "--mode", "--trace-out"],
    "probe": _COMMON + ["--depth", "--limit"],
    "breakdown": _COMMON,
    "infer": _COMMON + ["--iters", "--parallel", "--sessions",
                        "--timeout", "--trace-out"],
    "serve": _COMMON + [
        "--concrete", "--critical-frac", "--duration", "--fleet",
        "--fleet-batches", "--max-pending-rows", "--max-request",
        "--max-wait", "--metrics-out", "--rate", "--seed",
        "--swaps", "--timeout", "--trace-out", "--workers"],
    "check plan": _CHECK_OUT + [
        "--all", "--batch", "--configs", "--gpu-gb", "--modes", "--net",
        "--serve-batches"],
    "check lint": _CHECK_OUT + ["paths"],
    "check race": _CHECK_OUT + [
        "--batch", "--iters", "--limit", "--net", "--requests",
        "--scenario", "--seed", "--sessions", "--swaps", "--workers"],
    "check cost": _CHECK_OUT + [
        "--advise", "--all", "--batch", "--budget", "--configs",
        "--gpu-gb", "--max-request", "--modes", "--net"],
    "policies": ["framework_name"],
}


POLICY_PROTOCOL = {
    "MemoryPolicy": (MemoryPolicy, [
        # identity and config mapping
        "key", "backward_only", "from_config", "configure", "disarm",
        "describe", "bind",
        # decide: the schedule, whose ops only add to the hooks below
        "compile_plan",
        # every hook below that a policy overrides is dispatched:
        # step hooks (at hook sites, after the policy's plan ops) ...
        "before_step", "before_compute", "after_step", "on_step_settled",
        # ... tensor hooks (from the executor's residency moves) ...
        "on_tensor_dead", "on_tensor_released", "on_tensor_resident",
        "on_tensor_access",
        # ... and the iteration brackets and demand hooks
        "on_iteration_start", "on_iteration_end", "on_backward_need",
        "on_memory_pressure"]),
    "StepContext": (StepContext, [
        # views
        "state", "net", "route", "model", "store", "concrete", "plan",
        "recompute_plan", "free_bytes",
        "cache_armed", "pending_offloads", "offload_in_flight", "reads_at",
        # operations
        "alloc_tensor", "alloc_scratch", "set_duration", "set_workspace",
        "discard", "release_gpu", "make_resident", "offload", "prefetch",
        "evict_to_host", "reap_offloads", "force_reap_one",
        "submit_compute"]),
}

_ARMING = ["arm", "armed", "capture", "default_limit", "disarm"]
OBS_SURFACE = {
    "repro.obs": [
        "FlightRecorder", "MetricsRegistry", "RECORDER", "Span", "Tracer",
        "active_tracer", "arm", "armed", "build_chrome_trace", "capture",
        "disarm", "export_chrome_trace", "validate_trace",
        "validate_trace_file"],
    "repro.check.instrument": _ARMING + ["active_log"],
    "repro.obs.trace": _ARMING + ["active_tracer"],
}


def _same(found, table, what: str, name: str) -> None:
    found, table = sorted(found), sorted(table)
    assert found == table, (
        f"{what} changed: added {sorted(set(found) - set(table))}, "
        f"removed {sorted(set(table) - set(found))}.  Rule: {RULE}.  "
        f"If the change is justified, edit {name} in {__file__}.")


def test_runtime_config_fields():
    _same([f.name for f in dataclasses.fields(RuntimeConfig)],
          CONFIG_FIELDS, "RuntimeConfig's fields", "CONFIG_FIELDS")


@pytest.mark.parametrize("name", list(PARAMETERS))
def test_entry_point_parameters(name):
    fn, table = PARAMETERS[name]
    found = [p for p in inspect.signature(fn).parameters if p != "self"]
    _same(found, table, f"{name}'s parameters", f"PARAMETERS[{name!r}]")


@pytest.mark.parametrize("name", list(POLICY_PROTOCOL))
def test_policy_protocol(name):
    cls, table = POLICY_PROTOCOL[name]
    found = [n for n in vars(cls) if not n.startswith("_")]
    _same(found, table, f"{name}'s public names",
          f"POLICY_PROTOCOL[{name!r}]")


# ---------------------------------------------------------- environment
def _is_environ(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "environ" \
        and isinstance(node.value, ast.Name) and node.value.id == "os"


def _env_key(node: ast.AST):
    """The key expression when ``node`` reads the environment
    (``os.environ.get(k)``, ``os.environ[k]``, ``os.getenv(k)``)."""
    if isinstance(node, ast.Subscript) and _is_environ(node.value):
        return node.slice
    if isinstance(node, ast.Call) and node.args \
            and isinstance(node.func, ast.Attribute):
        f = node.func
        if (f.attr == "get" and _is_environ(f.value)) or (
                f.attr == "getenv" and isinstance(f.value, ast.Name)
                and f.value.id == "os"):
            return node.args[0]
    return None


def source_trees() -> list:
    return [ast.parse(p.read_text(encoding="utf-8"), str(p))
            for p in sorted(Path(repro.__file__).parent.rglob("*.py"))]


def _helper_key(node: ast.AST, helpers: dict):
    """The key ``node`` looks up: directly, or as the first argument of
    a call to one of ``helpers``."""
    key = _env_key(node)
    if key is None and isinstance(node, ast.Call) and node.args:
        f = node.func
        called = f.id if isinstance(f, ast.Name) else \
            f.attr if isinstance(f, ast.Attribute) else None
        if called in helpers:
            key = node.args[0]
    return key


def environment_names_read() -> set:
    """Every name that reaches ``os.environ`` under ``src/repro``,
    found by walking the AST: a read whose key is a literal or a
    module-level string constant counts directly; a function that
    reads its own parameter (``env_flag(name)``) makes every call to
    it a read of that call's first argument, and one that reads its own
    attribute (``env_flag(self.trace_env)``) makes every
    ``trace_env=...`` keyword in the tree a read of that value."""
    trees = source_trees()
    helpers = {}    # function name -> the parameter it looks up
    for tree in trees:
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                params = {a.arg for a in fn.args.args}
                for node in ast.walk(fn):
                    key = _env_key(node)
                    if isinstance(key, ast.Name) and key.id in params:
                        helpers[fn.name] = key.id
    fields = set()  # attributes of self that are looked up
    for tree in trees:
        for node in ast.walk(tree):
            key = _helper_key(node, helpers)
            if isinstance(key, ast.Attribute) \
                    and isinstance(key.value, ast.Name) \
                    and key.value.id == "self":
                fields.add(key.attr)
    names = set()
    for tree in trees:
        constants = {
            target.id: node.value.value
            for node in tree.body if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant)
            for target in node.targets if isinstance(target, ast.Name)}
        for node in ast.walk(tree):
            keys = [_helper_key(node, helpers)]
            if isinstance(node, ast.Call):
                keys += [kw.value for kw in node.keywords
                         if kw.arg in fields]
            for key in keys:
                if isinstance(key, ast.Constant):
                    names.add(key.value)
                elif isinstance(key, ast.Name) and key.id in constants:
                    names.add(constants[key.id])
                elif isinstance(key, ast.Attribute):
                    # a looked-up field: its keywords are counted above
                    assert key.attr in fields, ast.dump(key)
                elif key is not None:
                    # only a helper's own parameter may stay unresolved
                    # (its callers are counted above)
                    assert isinstance(key, ast.Name) \
                        and key.id in helpers.values(), \
                        f"cannot resolve the environment key {ast.dump(key)}"
    return names


def test_environment_variables():
    found = environment_names_read()
    assert all(n.startswith("REPRO_") for n in found), found
    _same(found, ENV_VARS, "the environment variables src/repro reads",
          "ENV_VARS")


# -------------------------------------------------------- observability
def test_obs_exports():
    _same(repro.obs.__all__, OBS_SURFACE["repro.obs"],
          "repro.obs's exports", "OBS_SURFACE['repro.obs']")
    # a by-value re-export would stay None after arm()
    assert not hasattr(repro.obs, "ACTIVE")


@pytest.mark.parametrize("module", [instrument, obs_trace],
                         ids=lambda m: m.__name__)
def test_arming_names_are_one_switch(module):
    table = OBS_SURFACE[module.__name__]
    found = [n for n, v in vars(module).items()
             if isinstance(getattr(v, "__self__", None),
                           instrument.ArmingSwitch)]
    _same(found, table, f"{module.__name__}'s arming names",
          f"OBS_SURFACE[{module.__name__!r}]")
    assert "ACTIVE" in vars(module)     # a plain global hot paths read


def _writes_active(node: ast.AST) -> bool:
    """``global ACTIVE`` (what a function needs to rebind it),
    ``x["ACTIVE"] = ...`` or ``setattr(x, "ACTIVE", ...)``."""
    if isinstance(node, ast.Global):
        return "ACTIVE" in node.names
    if isinstance(node, ast.Subscript):
        return isinstance(node.ctx, ast.Store) \
            and isinstance(node.slice, ast.Constant) \
            and node.slice.value == "ACTIVE"
    return isinstance(node, ast.Call) \
        and isinstance(node.func, ast.Name) and node.func.id == "setattr" \
        and len(node.args) > 1 and isinstance(node.args[1], ast.Constant) \
        and node.args[1].value == "ACTIVE"


def test_one_writer_of_active():
    writers = [node.lineno for tree in source_trees()
               for node in ast.walk(tree) if _writes_active(node)]
    assert len(writers) == 1, (
        f"{len(writers)} places write a tracer's ACTIVE (lines "
        f"{writers}); ArmingSwitch._install is the one that may")


#: the collector switches, and the one function that may call them
COLLECTOR_SWITCHES = frozenset({"disable", "enable", "freeze"})
COLLECTOR_HELPER = ("core/engine.py", "_collector_paused")


def collector_switch_calls() -> list:
    """``(file, enclosing function, line)`` of every ``gc.disable()``,
    ``gc.enable()`` or ``gc.freeze()`` call in src/repro, and of every
    name imported from ``gc`` (a bare ``disable()`` would hide)."""
    root = Path(repro.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))

        def visit(node, func):
            for child in ast.iter_child_nodes(node):
                inner = child.name if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
                f = getattr(child, "func", None)
                if isinstance(child, ast.Call) \
                        and isinstance(f, ast.Attribute) \
                        and isinstance(f.value, ast.Name) \
                        and f.value.id == "gc" \
                        and f.attr in COLLECTOR_SWITCHES \
                        or isinstance(child, ast.ImportFrom) \
                        and child.module == "gc":
                    found.append((rel, func, child.lineno))
                visit(child, inner)
        visit(tree, None)
    return found


def test_one_place_pauses_the_collector():
    calls = collector_switch_calls()
    strays = [c for c in calls if c[:2] != COLLECTOR_HELPER]
    assert not strays, (
        f"{strays} switch the cyclic collector; only "
        f"{COLLECTOR_HELPER[0]}::{COLLECTOR_HELPER[1]} may, around a "
        f"compile")
    assert len(calls) == 2   # its pause and its restore


# ------------------------------------------------------------------ CLI
def cli_flags(parser: argparse.ArgumentParser, path=()) -> dict:
    """``{"check race": [flags...]}`` for every leaf subcommand."""
    out, flags = {}, []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.update(cli_flags(sub, path + (name,)))
        elif not isinstance(action, argparse._HelpAction):
            flags.append(max(action.option_strings, key=len)
                         if action.option_strings else action.dest)
    if not out:
        out[" ".join(path)] = flags
    return out


def test_cli_subcommands_and_flags():
    found = cli_flags(build_parser())
    _same(found, CLI_FLAGS, "the repro subcommands", "CLI_FLAGS")
    for command, flags in found.items():
        _same(flags, CLI_FLAGS[command], f"`repro {command}`'s flags",
              f"CLI_FLAGS[{command!r}]")
