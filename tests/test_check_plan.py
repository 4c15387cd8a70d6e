"""Static plan verifier: known-good zoo plans pass, seeded-bad plans fail.

The known-bad fixtures tamper *real* extracted traces (or hand-build
symbolic steps), so each PLAN rule is proven against the same schedule
shapes the verifier sees in production, not synthetic strawmen.
"""

import json

import pytest

import repro
from repro.check import (
    CheckReport,
    Diagnostic,
    PlanVerificationError,
    extract_trace,
    verify_compiled_mode,
    verify_engine,
    verify_trace,
)
from repro.check.plan_verifier import PlanTrace, SymStep, SymTensor
from repro.core.config import RuntimeConfig
from repro.core.engine import Engine
from repro.core.plan import plans_by_key
from repro.core.session import Session
from repro.core.tensor_state import SessionTensorState
from repro.zoo import alexnet, lenet
from tests.test_graph import fan_net

LADDER = {
    "baseline": RuntimeConfig.baseline,
    "liveness_only": RuntimeConfig.liveness_only,
    "liveness_offload": RuntimeConfig.liveness_offload,
    "superneurons": RuntimeConfig.superneurons,
}


def _engine(net_builder, rung, **kw):
    return Engine(net_builder(batch=8), LADDER[rung](concrete=False, **kw))


def _trace(net_builder=alexnet, rung="liveness_offload", mode="train"):
    eng = _engine(net_builder, rung)
    cm = eng.compiled(mode)
    return extract_trace(eng.net, cm, eng.config.for_mode(mode),
                        target=f"{eng.net.name}/{mode}")


def _rules(diags):
    return sorted({d.rule for d in diags})


# --------------------------------------------------------------------------- #
# known-good: every zoo rung/mode must verify clean
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("builder", [lenet, alexnet])
@pytest.mark.parametrize("rung", sorted(LADDER))
def test_zoo_plans_verify_clean(builder, rung):
    report = verify_engine(_engine(builder, rung))
    assert report.ok, report.render()
    assert not report.warnings, report.render()
    assert len(report.checked) == 2  # train + infer


def test_report_shape():
    report = verify_engine(_engine(lenet, "superneurons"))
    data = json.loads(report.to_json())
    assert data["tool"] == "plan-verifier"
    assert data["ok"] is True
    assert data["summary"] == {"errors": 0, "warnings": 0}
    assert "lenet/train" in data["checked"]


# --------------------------------------------------------------------------- #
# known-bad: each seeded corruption must be rejected with its rule
# --------------------------------------------------------------------------- #

def _first_producer_consumer_gap(tr):
    """(step j, tensor) where the tensor is written before step j and
    read at step j — the slot to seed a premature free into."""
    written = {}
    for s in tr.steps:
        for t in s.writes:
            written.setdefault(t.tensor_id, s.index)
        for t in s.reads:
            w = written.get(t.tensor_id)
            if w is not None and s.index > w and t.kind == "data" \
                    and t.anchor_id is None:
                return s.index, t
    raise AssertionError("no producer/consumer gap found")


def test_premature_free_rejected_as_use_after_free():
    tr = _trace(rung="liveness_only")
    j, t = _first_producer_consumer_gap(tr)
    tr.steps[j - 1].frees = tr.steps[j - 1].frees + (t,)
    diags = verify_trace(tr)
    assert "PLAN001" in _rules(diags)
    hit = next(d for d in diags if d.rule == "PLAN001")
    assert hit.tensor == t.name
    assert hit.step == j
    assert hit.severity == "error"


def test_dropped_prefetch_rejected_as_missing_prefetch():
    tr = _trace(rung="liveness_offload")
    assert any(s.prefetches for s in tr.steps), "fixture needs prefetches"
    for s in tr.steps:
        s.prefetches = ()
    diags = verify_trace(tr)
    assert _rules(diags) == ["PLAN002"]
    # provenance points at the stalled consumer step
    assert all(d.step is not None and d.op for d in diags)


def test_unbalanced_lock_rejected():
    tr = _trace(rung="liveness_only")
    victim = next(s for s in tr.steps if s.unlocks)
    victim.unlocks = ()
    diags = verify_trace(tr)
    assert "PLAN003" in _rules(diags)
    assert any("barrier" in d.message for d in diags)


def test_unlock_without_lock_rejected():
    tr = _trace(rung="liveness_only")
    victim = next(s for s in tr.steps if s.locks)
    victim.locks = ()
    diags = verify_trace(tr)
    assert "PLAN003" in _rules(diags)


def test_dead_recompute_anchor_rejected():
    tr = _trace(rung="superneurons")
    covered = next(t for s in tr.steps for t in s.reads
                   if t.anchor_id is not None)
    demand = next(s.index for s in tr.steps
                  if any(t.tensor_id == covered.tensor_id
                         for t in s.reads))
    anchor = next(t for s in tr.steps for t in s.writes + s.reads
                  if t.tensor_id == covered.anchor_id)
    tr.steps[demand - 1].frees = tr.steps[demand - 1].frees + (anchor,)
    diags = verify_trace(tr)
    assert "PLAN004" in _rules(diags)


def test_over_capacity_rejected():
    tr = _trace(rung="liveness_only")
    tr.capacity = 1024  # nothing fits in 1 KiB
    diags = verify_trace(tr)
    assert _rules(diags) == ["PLAN005"]
    assert all(d.severity == "error" for d in diags)


def test_over_capacity_is_warning_under_pressure_eviction():
    # cache-mode UTP can shed bytes at runtime the static model keeps,
    # so the same overflow downgrades to a warning there
    tr = _trace(rung="superneurons")
    assert tr.overflow_is_error is False
    tr.capacity = 1024
    diags = verify_trace(tr)
    assert _rules(diags) == ["PLAN005"]
    assert all(d.severity == "warning" for d in diags)
    report = CheckReport(tool="plan-verifier", diagnostics=diags)
    assert report.ok  # warnings do not fail the check


def test_double_free_rejected():
    tr = _trace(rung="liveness_only")
    victim = next(s for s in tr.steps if s.frees)
    nxt = tr.steps[victim.index + 1]
    nxt.frees = nxt.frees + victim.frees
    diags = verify_trace(tr)
    assert "PLAN006" in _rules(diags)


def test_free_before_creation_is_the_legal_noop():
    # the UNALLOCATED -> FREED edge (liveness lists may name tensors no
    # step materializes); the verifier must not cry wolf over it
    t = SymTensor(tensor_id=1, name="ghost", nbytes=64)
    out = SymTensor(tensor_id=2, name="out", nbytes=64)
    tr = PlanTrace(target="handmade/train", steps=[
        SymStep(index=0, op="a:f", frees=(t,)),
        SymStep(index=1, op="b:f", writes=(out,)),
    ])
    assert verify_trace(tr) == []


def test_handmade_use_after_free():
    t = SymTensor(tensor_id=1, name="x", nbytes=64)
    tr = PlanTrace(target="handmade/train", steps=[
        SymStep(index=0, op="a:f", writes=(t,), frees=(t,)),
        SymStep(index=1, op="b:f", reads=(t,)),
    ])
    assert _rules(verify_trace(tr)) == ["PLAN001"]


def test_offloaded_read_without_prefetch_is_flagged():
    t = SymTensor(tensor_id=1, name="x", nbytes=64)
    tr = PlanTrace(target="handmade/train", steps=[
        SymStep(index=0, op="a:f", writes=(t,), offloads=((t, 0),)),
        SymStep(index=1, op="b:f"),
        SymStep(index=2, op="c:b", reads=(t,)),  # host-resident, no fetch
    ])
    assert _rules(verify_trace(tr)) == ["PLAN002"]
    # ... and scheduling the prefetch cures it
    tr.steps[1].prefetches = (t,)
    assert verify_trace(tr) == []


# --------------------------------------------------------------------------- #
# PLAN007: the tensor cache's need order (the return trip's deadlines)
# --------------------------------------------------------------------------- #

def _need_order_trace(net_builder):
    eng = Engine(net_builder(), RuntimeConfig.superneurons(concrete=False))
    cm = eng.compiled("train")
    return eng, cm, extract_trace(eng.net, cm, eng.config.for_mode("train"))


@pytest.mark.parametrize("net_builder", [lambda: alexnet(batch=8), fan_net],
                         ids=["alexnet", "fan"])
def test_need_order_is_each_tensors_first_backward_reader(net_builder):
    """Derived from the route alone: sorted by first backward use, each
    data tensor once, and the named step reads it — as a kernel operand
    or as an outside input of a recompute chain it can trigger."""
    eng, cm, tr = _need_order_trace(net_builder)
    need = plans_by_key(cm.gathered)["offload"].return_trip
    assert need and verify_trace(tr) == []
    steps = [i for i, _ in need]
    assert steps == sorted(steps)
    assert len({t.tensor_id for _, t in need}) == len(need)
    n = eng.compiled("train").route.num_layers
    readers = {}  # tensor id -> backward steps that need it, ascending
    for step in cm.route.steps[n:]:
        for t in cm.liveness.reads_at(step.index):
            readers.setdefault(t.tensor_id, []).append(step.index)
    for i, t in need:
        assert t.kind.value == "data" and readers[t.tensor_id][0] == i
    # nothing a backward step needs is missing, anchors included
    anchors = {seg.anchor.output.tensor_id
               for seg in cm.recompute_plan.segments
               if seg.anchor.output is not None and seg.dropped}
    named = {t.tensor_id for _, t in need}
    assert anchors and anchors <= named


def test_need_order_tampering_is_rejected():
    _, _, tr = _need_order_trace(lambda: alexnet(batch=8))
    good = tr.return_trip
    (i0, t0), (i1, t1) = good[0], good[-1]
    assert i0 < i1
    for bad, says in (
            (good + (good[0],), "twice"),
            ((good[-1],) + good[:-1], "not sorted"),
            (((i0 + 1, t0),) + good[1:], "first backward step"),
            (((0, t0),) + good[1:], "first backward step")):
        tr.return_trip = bad
        diags = verify_trace(tr)
        assert _rules(diags) == ["PLAN007"], says
        assert says in diags[0].message
        assert all(d.severity == "error" for d in diags)
    tr.return_trip = good
    assert verify_trace(tr) == []


def test_eager_mode_has_no_need_order():
    tr = _trace(rung="liveness_offload")
    assert tr.return_trip == () and any(s.prefetches for s in tr.steps)


# --------------------------------------------------------------------------- #
# engine wiring: verify=True gates the compile cache
# --------------------------------------------------------------------------- #

def test_engine_verify_accepts_good_plans():
    eng = Engine(lenet(batch=8),
                 RuntimeConfig.superneurons(concrete=False), verify=True)
    assert eng.verify_plans
    eng.compiled("train")
    eng.compiled("infer")
    assert eng.compiled_modes == ("infer", "train")


def test_config_knob_arms_verification():
    """The one knob is the compile-time argument, off by default."""
    cfg = RuntimeConfig.superneurons(concrete=False)
    assert repro.compile(lenet(batch=8), cfg, verify=True).verify_plans
    assert not repro.compile(lenet(batch=8), cfg).verify_plans
    assert not Engine(lenet(batch=8), cfg).verify_plans


def test_engine_verify_refuses_bad_plan(monkeypatch):
    import repro.check.plan_verifier as pv

    def bad_verify(net, cm, cfg, target=None):
        return [Diagnostic(rule="PLAN001", message="seeded", target=target)]

    monkeypatch.setattr(pv, "verify_compiled_mode", bad_verify)
    eng = Engine(lenet(batch=8),
                 RuntimeConfig.superneurons(concrete=False), verify=True)
    with pytest.raises(PlanVerificationError) as exc:
        eng.compiled("train")
    assert "PLAN001" in str(exc.value)
    assert exc.value.report.errors
    # the failing mode was NOT cached: fixing the verifier lets the
    # same engine compile it cleanly
    assert eng.compiled_modes == ()
    monkeypatch.undo()
    eng.compiled("train")
    assert eng.compiled_modes == ("train",)


def test_verify_compiled_mode_matches_verify_engine():
    eng = _engine(alexnet, "superneurons")
    direct = verify_compiled_mode(eng.net, eng.compiled("train"),
                                  eng.config.for_mode("train"),
                                  target="alexnet/train")
    assert direct == []


# --------------------------------------------------------------------------- #
# satellite: env-armed placement validation
# --------------------------------------------------------------------------- #

def test_state_validation_armed_by_suite_env():
    # conftest.py sets REPRO_VALIDATE_STATE=1 for the whole suite, and
    # validate=None (what every executor builds with) defers to it
    assert SessionTensorState().validate is True
    assert SessionTensorState(validate=False).validate is False
    with Session(lenet(batch=4),
                 RuntimeConfig.superneurons(concrete=False)).executor as ex:
        assert ex.state.validate is True


def test_state_validation_env_resolution(monkeypatch):
    monkeypatch.setenv("REPRO_VALIDATE_STATE", "0")
    assert SessionTensorState().validate is False
    monkeypatch.setenv("REPRO_VALIDATE_STATE", "true")
    assert SessionTensorState().validate is True
    monkeypatch.delenv("REPRO_VALIDATE_STATE")
    assert SessionTensorState().validate is False
    assert SessionTensorState(validate=True).validate is True

