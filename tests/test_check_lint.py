"""Architecture linter: each rule fires on a known-bad snippet, stays
silent on the idiomatic form, and the shipped tree lints clean.

The clean-tree test IS the acceptance check that used to be a grep
(DESIGN.md: "no ``t.placement =`` outside the state table") — now with
AST precision and ``file:line`` provenance.
"""

import json
import textwrap

import pytest

from repro.check import lint_source, lint_tree
from repro.check.diagnostics import ALL_RULES, Diagnostic, LINT_RULES


def _lint(snippet, filename="fixture.py"):
    return lint_source(textwrap.dedent(snippet), f"repro/{filename}",
                       filename=filename)


def _rules(diags):
    return sorted({d.rule for d in diags})


# --------------------------------------------------------------------------- #
# the grep replacement: the shipped tree must lint clean
# --------------------------------------------------------------------------- #

def test_tree_lints_clean():
    report = lint_tree()
    assert report.ok, report.render()
    assert not report.warnings
    # sanity: the walk actually covered the package, including the
    # modules the rules exist to police
    assert len(report.checked) > 40
    assert any(c.endswith("core/engine.py") for c in report.checked)
    assert any(c.endswith("core/tensor_state.py") for c in report.checked)


# --------------------------------------------------------------------------- #
# LINT001 descriptor-mutation
# --------------------------------------------------------------------------- #

def test_descriptor_mutation_flagged():
    diags = _lint("""
        def evict(t):
            t.placement = "host"
    """)
    assert _rules(diags) == ["LINT001"]
    assert diags[0].line == 3
    assert "SessionTensorState" in diags[0].message


@pytest.mark.parametrize("attr", ["placement", "locked", "host_resident"])
def test_every_scheduler_attr_covered(attr):
    diags = _lint(f"x.{attr} = 1")
    assert _rules(diags) == ["LINT001"]


def test_descriptor_mutation_allowed_in_owner_module():
    assert _lint("t.placement = p", filename="tensor_state.py") == []


def test_descriptor_reads_are_fine():
    assert _lint("""
        def check(state, t):
            return state.placement(t), state.locked(t)
    """) == []


# --------------------------------------------------------------------------- #
# LINT002 unregistered-policy
# --------------------------------------------------------------------------- #

def test_unregistered_policy_flagged():
    diags = _lint("""
        class ShinyPolicy(MemoryPolicy):
            key = "shiny"
    """)
    assert _rules(diags) == ["LINT002"]
    assert "@register_policy" in diags[0].message


def test_registered_policy_passes():
    assert _lint("""
        @register_policy
        class ShinyPolicy(MemoryPolicy):
            key = "shiny"
    """) == []


def test_keyless_intermediate_exempt():
    # mixins/abstract helpers declare no registry key: not registrable
    assert _lint("""
        class BackwardOnlyMixin(MemoryPolicy):
            backward_only = True
    """) == []


# --------------------------------------------------------------------------- #
# LINT003 unguarded-shared-state
# --------------------------------------------------------------------------- #

LOCKED_CLASS = """
    import threading

    class Engineish:
        def __init__(self):
            self._compile_lock = threading.Lock()  # repro-lint: allow LINT005 test fixture
            self.count = 0

        def bump(self):
            {body}
"""


def _locked_class(body):
    return LOCKED_CLASS.format(body=body)


def test_unguarded_shared_write_flagged():
    diags = _lint(_locked_class("self.count += 1"))
    assert _rules(diags) == ["LINT003"]
    assert "Engineish.bump" in diags[0].message


def test_guarded_shared_write_passes():
    assert _lint(_locked_class(
        "with self._compile_lock:\n                self.count += 1")) == []


def test_lock_assertion_accepted_as_guard():
    assert _lint(_locked_class(
        "self._assert_compile_locked()\n            self.count += 1")) == []


def test_lockless_classes_out_of_scope():
    # the rule keys on ownership of the compile lock; ordinary classes
    # mutate their own state freely
    assert _lint("""
        class Plain:
            def __init__(self):
                self.count = 0

            def bump(self):
                self.count += 1
    """) == []


# --------------------------------------------------------------------------- #
# LINT004 bare-lock-acquire
# --------------------------------------------------------------------------- #

def test_bare_acquire_flagged():
    diags = _lint("""
        def grab(lock):
            lock.acquire()
            try:
                pass
            finally:
                lock.release()
    """)
    assert _rules(diags) == ["LINT004"]
    assert "with" in diags[0].message


def test_with_lock_passes():
    assert _lint("""
        def grab(lock):
            with lock:
                pass
    """) == []


# --------------------------------------------------------------------------- #
# LINT005 raw-sync-primitive
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("prim,wrapper", [
    ("Lock", "TracedLock"),
    ("RLock", "TracedLock"),
    ("Condition", "TracedCondition"),
    ("Event", "TracedEvent"),
    ("Thread", "TracedThread"),
])
def test_raw_primitive_flagged(prim, wrapper):
    diags = _lint(f"""
        import threading

        lock = threading.{prim}()
    """)
    assert _rules(diags) == ["LINT005"]
    assert wrapper in diags[0].message


def test_raw_primitive_via_module_alias_flagged():
    diags = _lint("""
        import threading as th

        ev = th.Event()
    """)
    assert _rules(diags) == ["LINT005"]


def test_raw_primitive_via_from_import_flagged():
    diags = _lint("""
        from threading import Event

        ev = Event()
    """)
    assert _rules(diags) == ["LINT005"]


def test_bare_name_without_threading_import_passes():
    # e.g. device/timeline.py's Event NamedTuple: a bare Event() call
    # with no threading import in sight is not a sync primitive
    assert _lint("""
        class Event:
            pass

        ev = Event()
    """) == []


def test_raw_primitive_allowed_in_instrument_module():
    assert _lint("lock = threading.Lock()",
                 filename="instrument.py") == []


def test_raw_primitive_pragma_with_reason_suppresses():
    assert _lint(
        "lock = threading.Lock()"
        "  # repro-lint: allow LINT005 event-log internal lock\n"
    ) == []


def test_traced_wrappers_pass():
    assert _lint("""
        from repro.check.instrument import TracedCondition, TracedLock

        lock = TracedLock("x")
        cond = TracedCondition("y")
    """) == []


# --------------------------------------------------------------------------- #
# pragma suppression
# --------------------------------------------------------------------------- #

def test_pragma_with_reason_suppresses():
    assert _lint(
        't.placement = p  # repro-lint: allow LINT001 test fixture\n'
    ) == []


def test_pragma_without_reason_does_not_suppress():
    diags = _lint('t.placement = p  # repro-lint: allow LINT001\n')
    assert _rules(diags) == ["LINT001"]
    assert "missing its reason" in diags[0].message


def test_pragma_for_wrong_rule_does_not_suppress():
    diags = _lint(
        't.placement = p  # repro-lint: allow LINT004 wrong rule\n')
    assert _rules(diags) == ["LINT001"]


# --------------------------------------------------------------------------- #
# diagnostics ergonomics
# --------------------------------------------------------------------------- #

def test_render_carries_rule_id_name_and_provenance():
    (d,) = _lint("def f(t):\n    t.placement = 1\n")
    line = d.render()
    assert line.startswith("LINT001 descriptor-mutation @ ")
    assert "repro/fixture.py:2" in line


def test_json_roundtrip():
    (d,) = _lint("t.placement = 1")
    data = json.loads(json.dumps(d.to_dict()))
    assert data["rule"] == "LINT001"
    assert data["name"] == "descriptor-mutation"
    assert data["file"] == "repro/fixture.py"
    assert data["line"] == 1


def test_rule_tables_are_disjoint_and_documented():
    assert set(LINT_RULES) <= set(ALL_RULES)
    assert all(ALL_RULES[r] for r in ALL_RULES)
    with pytest.raises(ValueError):
        Diagnostic(rule="LINT999", message="nope")
    with pytest.raises(ValueError):
        Diagnostic(rule="LINT001", message="x", severity="fatal")
