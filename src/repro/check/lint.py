"""Architecture linter: the repo's ownership/concurrency rules as AST
checks.

The parallel-session guarantees (PR 4/5) rest on discipline the type
system cannot express: *descriptors are immutable* (all mutable
scheduling state lives in ``SessionTensorState``), *engine-shared
planning state mutates only under the compile lock*, *policies go
through their registry*, and *locks are held via ``with``* (an
exception between ``acquire`` and ``release`` must not leak a held
lock).  Each rule below used to be a grep, a code-review
convention, or a docstring plea; here they are named checks over the
parsed tree, with ``file:line`` provenance:

* **LINT001 descriptor-mutation** — no assignment to the scheduler
  attributes (``placement``, ``locked``, ``host_resident``) of any
  object outside ``core/tensor_state.py``.  Those attributes no longer
  exist on ``Tensor``; this rule keeps them from growing back, which is
  exactly what the DESIGN.md-era acceptance grep checked.
* **LINT002 unregistered-policy** — a concrete ``MemoryPolicy``
  subclass (one that declares a registry ``key``) must carry the
  ``@register_policy`` decorator: an unregistered strategy is
  unreachable from configs and the CLI, the classic silently-dead code.
* **LINT003 unguarded-shared-state** — in a class owning a compile lock
  (``self._compile_lock`` assigned in ``__init__``), methods that write
  ``self.*`` state must do so inside ``with self._compile_lock``,
  contain a ``self._assert_compile_locked()`` guard, or carry a pragma
  naming the documented barrier (e.g. the weight-swap quiescence).
* **LINT004 bare-lock-acquire** — no ``.acquire()`` calls; hold locks
  with ``with`` so every exit path releases.
* **LINT005 raw-sync-primitive** — no direct construction of
  ``threading.Lock`` / ``Condition`` / ``Event`` / ``Thread`` outside
  ``check/instrument.py``: production code uses the traced wrappers so
  every synchronization point is visible to the race sanitizer.  A raw
  primitive is a blind spot — the detector cannot prove what it never
  saw.

Suppression: append ``# repro-lint: allow LINTxxx <reason>`` to the
offending line.  The reason is mandatory — a pragma without one is
itself a violation (reported as the rule it tried to suppress).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.check.diagnostics import CheckReport, Diagnostic, LINT_RULES

#: scheduler-state attributes that must never be assigned on a
#: descriptor (or anything else) outside the owning module
DESCRIPTOR_ATTRS = frozenset({"placement", "locked", "host_resident"})

#: the one module allowed to manage those attributes
DESCRIPTOR_OWNER = "tensor_state.py"

#: registry base class -> required decorator
REGISTRY_BASES = {"MemoryPolicy": "register_policy"}

#: the engine-shared-state lock attribute LINT003 keys on
COMPILE_LOCK_ATTR = "_compile_lock"

#: raw threading primitives LINT005 forbids constructing directly
RAW_SYNC_PRIMITIVES = frozenset({"Lock", "RLock", "Condition", "Event",
                                 "Semaphore", "BoundedSemaphore",
                                 "Barrier", "Thread"})

#: the one module allowed to touch raw primitives (it wraps them)
SYNC_OWNER = "instrument.py"

#: a call to a method matching this proves the caller runs locked
LOCK_ASSERT_RE = re.compile(r"^_assert_.*locked$")

_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*allow\s+(LINT\d{3})\b\s*(.*)$")


def _pragmas(source: str) -> Dict[int, Tuple[str, str]]:
    """line number -> (suppressed rule id, reason)."""
    out: Dict[int, Tuple[str, str]] = {}
    for i, line in enumerate(source.splitlines(), start=1):
        m = _PRAGMA_RE.search(line)
        if m:
            out[i] = (m.group(1), m.group(2).strip())
    return out


class _FileLinter(ast.NodeVisitor):
    """One file's pass: collects raw findings, pragma filter applies after."""

    def __init__(self, path: str, filename: str):
        self.path = path            # provenance string (repo-relative)
        self.filename = filename    # basename, for owner exemptions
        self.findings: List[Diagnostic] = []
        # LINT005 name resolution: aliases of the threading module, and
        # names imported *from* it ("Event" alone is not evidence — the
        # device timeline has an unrelated NamedTuple by that name)
        self._threading_aliases: Set[str] = set()
        self._threading_imports: Set[str] = set()

    def emit(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(Diagnostic(
            rule=rule, message=message, file=self.path,
            line=getattr(node, "lineno", None)))

    # -- LINT001: descriptor mutation ------------------------------------
    def _check_attr_targets(self, node: ast.AST,
                            targets: Iterable[ast.expr]) -> None:
        if self.filename == DESCRIPTOR_OWNER:
            return
        for tgt in targets:
            if isinstance(tgt, ast.Attribute) \
                    and tgt.attr in DESCRIPTOR_ATTRS:
                self.emit(
                    "LINT001", node,
                    f"assignment to .{tgt.attr} — scheduler state is "
                    f"owned by SessionTensorState "
                    f"(core/{DESCRIPTOR_OWNER}); descriptors stay "
                    f"immutable so sessions can share them",
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_attr_targets(node, node.targets)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_attr_targets(node, [node.target])
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_attr_targets(node, [node.target])
        self.generic_visit(node)

    # -- LINT005: import tracking ----------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "threading":
                self._threading_aliases.add(alias.asname or "threading")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "threading":
            for alias in node.names:
                if alias.name in RAW_SYNC_PRIMITIVES:
                    self._threading_imports.add(alias.asname or alias.name)
        self.generic_visit(node)

    # -- LINT004 + LINT005: call-level rules ------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr == "acquire":
            self.emit(
                "LINT004", node,
                "bare .acquire() — hold locks with a `with` block so "
                "every exit path (including exceptions) releases",
            )
        self._check_raw_primitive(node)
        self.generic_visit(node)

    def _check_raw_primitive(self, node: ast.Call) -> None:
        if self.filename == SYNC_OWNER:
            return  # the wrapper module owns the raw primitives
        fn = node.func
        name: Optional[str] = None
        if isinstance(fn, ast.Attribute) \
                and isinstance(fn.value, ast.Name) \
                and fn.value.id in (self._threading_aliases or {"threading"}) \
                and fn.attr in RAW_SYNC_PRIMITIVES:
            name = fn.attr
        elif isinstance(fn, ast.Name) and fn.id in self._threading_imports:
            name = fn.id
        if name is not None:
            wrapper = {"RLock": "TracedLock", "Lock": "TracedLock",
                       "Condition": "TracedCondition",
                       "Event": "TracedEvent",
                       "Thread": "TracedThread"}.get(
                           name, "a traced wrapper")
            self.emit(
                "LINT005", node,
                f"raw threading.{name}() — use {wrapper} from "
                f"check/instrument.py so the race sanitizer sees this "
                f"synchronization point (pragma only with a reason)",
            )

    # -- LINT002 + LINT003: class-level rules ----------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._check_registration(node)
        self._check_shared_state(node)
        self.generic_visit(node)

    def _check_registration(self, node: ast.ClassDef) -> None:
        bases = {b.attr if isinstance(b, ast.Attribute) else
                 getattr(b, "id", None) for b in node.bases}
        hit = next((b for b in bases if b in REGISTRY_BASES), None)
        if hit is None or node.name in REGISTRY_BASES:
            return
        # concrete strategies declare a registry key; keyless
        # intermediates (mixins, test doubles) are exempt
        declares_key = any(
            isinstance(st, ast.Assign)
            and any(getattr(t, "id", None) == "key" for t in st.targets)
            and isinstance(st.value, ast.Constant)
            and isinstance(st.value.value, str) and st.value.value
            for st in node.body
        )
        if not declares_key:
            return
        wanted = REGISTRY_BASES[hit]
        decorated = any(
            (isinstance(d, ast.Name) and d.id == wanted)
            or (isinstance(d, ast.Attribute) and d.attr == wanted)
            for d in node.decorator_list
        )
        if not decorated:
            self.emit(
                "LINT002", node,
                f"class {node.name} subclasses {hit} and declares a "
                f"registry key but lacks @{wanted} — unregistered "
                f"strategies are unreachable from configs and the CLI",
            )

    def _check_shared_state(self, node: ast.ClassDef) -> None:
        """LINT003: compile-lock discipline for engine-shared mutables."""
        init = next(
            (st for st in node.body
             if isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef))
             and st.name == "__init__"), None)
        if init is None or not self._assigns_self_attr(
                init, COMPILE_LOCK_ATTR):
            return
        for fn in node.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or fn.name == "__init__":
                continue
            if self._calls_lock_assert(fn):
                continue  # the method proves it runs under the lock
            guarded = self._lines_under_lock(fn)
            for st in ast.walk(fn):
                if isinstance(st, (ast.Assign, ast.AugAssign)):
                    targets = st.targets \
                        if isinstance(st, ast.Assign) else [st.target]
                    for tgt in targets:
                        if self._is_self_state_write(tgt) \
                                and st.lineno not in guarded:
                            self.emit(
                                "LINT003", st,
                                f"{node.name}.{fn.name} writes "
                                f"engine-shared state outside `with "
                                f"self.{COMPILE_LOCK_ATTR}` (guard it, "
                                f"call the lock assertion, or pragma "
                                f"the documented barrier)",
                            )

    @staticmethod
    def _assigns_self_attr(fn: ast.AST, attr: str) -> bool:
        for st in ast.walk(fn):
            if isinstance(st, ast.Assign):
                for tgt in st.targets:
                    if isinstance(tgt, ast.Attribute) and tgt.attr == attr \
                            and isinstance(tgt.value, ast.Name) \
                            and tgt.value.id == "self":
                        return True
        return False

    @staticmethod
    def _calls_lock_assert(fn: ast.AST) -> bool:
        for st in ast.walk(fn):
            if isinstance(st, ast.Call) \
                    and isinstance(st.func, ast.Attribute) \
                    and LOCK_ASSERT_RE.match(st.func.attr):
                return True
        return False

    @staticmethod
    def _lines_under_lock(fn: ast.AST) -> Set[int]:
        """Line numbers lexically inside ``with self._compile_lock``."""
        lines: Set[int] = set()
        for st in ast.walk(fn):
            if not isinstance(st, ast.With):
                continue
            for item in st.items:
                ce = item.context_expr
                if isinstance(ce, ast.Attribute) \
                        and ce.attr == COMPILE_LOCK_ATTR:
                    for inner in st.body:
                        for n in ast.walk(inner):
                            if hasattr(n, "lineno"):
                                lines.add(n.lineno)
        return lines

    @staticmethod
    def _is_self_state_write(tgt: ast.expr) -> bool:
        """``self.x = ...``, ``self.x += ...`` or ``self.x[...] = ...``."""
        if isinstance(tgt, ast.Subscript):
            tgt = tgt.value
        return isinstance(tgt, ast.Attribute) \
            and isinstance(tgt.value, ast.Name) and tgt.value.id == "self"


def lint_source(source: str, path: str,
                filename: Optional[str] = None) -> List[Diagnostic]:
    """Lint one file's source; pragma suppression applied."""
    tree = ast.parse(source, filename=path)
    linter = _FileLinter(path, filename or Path(path).name)
    linter.visit(tree)
    pragmas = _pragmas(source)
    kept: List[Diagnostic] = []
    for d in linter.findings:
        p = pragmas.get(d.line or -1)
        if p is not None and p[0] == d.rule and p[1]:
            continue  # suppressed, with the mandatory reason
        if p is not None and p[0] == d.rule and not p[1]:
            d = Diagnostic(rule=d.rule, file=d.file, line=d.line,
                           message=d.message + " (suppression pragma "
                           "present but missing its reason)")
        kept.append(d)
    return kept


def lint_paths(paths: Sequence[str],
               root: Optional[str] = None) -> CheckReport:
    """Lint every ``.py`` file under ``paths`` (files or directories).

    ``root`` (default: the common parent) makes provenance paths
    repo-relative, so diagnostics are stable across checkouts.
    """
    files: List[Path] = []
    for p in paths:
        pth = Path(p)
        if pth.is_dir():
            files.extend(sorted(pth.rglob("*.py")))
        else:
            files.append(pth)
    root_path = Path(root) if root is not None else None
    report = CheckReport(tool="lint")
    for f in files:
        try:
            rel = str(f.relative_to(root_path)) if root_path else str(f)
        except ValueError:
            rel = str(f)
        report.checked.append(rel)
        report.extend(lint_source(f.read_text(encoding="utf-8"), rel,
                                  filename=f.name))
    return report


def lint_tree(src_root: Optional[str] = None) -> CheckReport:
    """Lint the installed ``repro`` package sources (the CI entry)."""
    if src_root is None:
        src_root = str(Path(__file__).resolve().parents[1])
    return lint_paths([src_root], root=str(Path(src_root).parent))
