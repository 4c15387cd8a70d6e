"""Plan verifier: known-good zoo plans pass, seeded-bad plans fail.

The verifier runs one iteration of the plan on the simulated executor,
so every known-bad fixture seeds its corruption where a buggy policy
would put it, before the executor links its plan — into a policy's
``compile_plan`` answer, into the planning inputs it is compiled from,
or into the linked iteration plan — and each PLAN rule is proven
through both entry points: ``Engine(verify=True)`` judging its scout,
and ``verify_compiled_mode`` running a compiled mode's planning on a
throwaway executor.
"""

import dataclasses
import json

import pytest

import repro
import repro.core.runtime as runtime
from repro.check import (
    PlanVerificationError,
    verify_compiled_mode,
    verify_engine,
)
from repro.cli import main as cli_main
from repro.core.config import RuntimeConfig
from repro.core.engine import Engine
from repro.core.policy import POLICY_REGISTRY, LivenessPolicy
from repro.core.runtime import Executor
from repro.core.session import Session
from repro.core.tensor_state import ResidencyError, SessionTensorState
from repro.tensors.tensor import TensorKind
from repro.zoo import NETWORK_BUILDERS, alexnet, lenet
from repro.zoo.resnet import resnet_from_units
from tests.test_clean_lines import SMALLEST
from tests.test_graph import fan_net

LADDER = {
    "baseline": RuntimeConfig.baseline,
    "liveness_only": RuntimeConfig.liveness_only,
    "liveness_offload": RuntimeConfig.liveness_offload,
    "superneurons": RuntimeConfig.superneurons,
}


def _engine(net_builder, rung, verify=False, **kw):
    return Engine(net_builder(batch=8), LADDER[rung](concrete=False, **kw),
                  verify=verify)


def _rules(diags):
    return sorted({d.rule for d in diags})


def _layer(eng, name):
    return next(layer for layer in eng.net.layers if layer.name == name)


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


def test_free_before_creation_is_the_legal_noop():
    """The UNALLOCATED -> FREED edge (a liveness list may name a tensor
    no step has materialised yet) stays legal under the verifier's
    strict validator: the tensor is simply created later."""
    def bad(eng):
        late = _layer(eng, "conv2").output
        return "liveness", lambda p: _with(p, "step_frees", 0, late)
    assert both_entry_points(alexnet, "liveness_only", bad) == ([], [])


# --------------------------------------------------------------------------- #
# known-bad: each seeded corruption is refused with its rule, both ways
# --------------------------------------------------------------------------- #

def _with(plan, field, i, t):
    """``plan`` with ``t`` appended to schedule ``field`` at step ``i``."""
    sched = getattr(plan, field)
    return dataclasses.replace(plan, **{field: {**sched,
                                                i: sched.get(i, ()) + (t,)}})


def _corrupted(m, key, bad):
    """Have policy ``key``'s ``compile_plan`` answer ``bad(its plan)``
    from now on (``m`` is a monkeypatch): the corruption reaches every
    executor that links after this."""
    cls = POLICY_REGISTRY[key]
    real = cls.compile_plan
    m.setattr(cls, "compile_plan", lambda p, ctx: bad(real(p, ctx)))


def both_entry_points(builder, rung, seed, mode="train"):
    """Run the corruption ``seed(engine) -> (policy key, bad)`` — where
    ``bad`` rewrites that policy's ``compile_plan`` answer — through
    both entry points; returns ``(scout findings, replay findings)``.
    A refusing engine must leave the mode uncompiled and compile it
    cleanly once the corruption is gone."""
    eng = _engine(builder, rung, verify=True)
    key, bad = seed(eng)
    scout = []
    with pytest.MonkeyPatch.context() as m:
        _corrupted(m, key, bad)
        try:
            eng.compiled(mode)
        except PlanVerificationError as exc:
            scout = exc.report.diagnostics
            assert eng.compiled_modes == ()
    eng.compiled(mode)
    assert eng.compiled_modes == (mode,)

    clean = _engine(builder, rung)
    key, bad = seed(clean)
    cm = clean.compiled(mode)  # a clean scout, then a corrupted link
    with pytest.MonkeyPatch.context() as m:
        _corrupted(m, key, bad)
        return scout, verify_compiled_mode(clean.net, cm,
                                           clean.config.for_mode(mode))


def _first_producer_consumer_gap(route):
    """(step j, tensor) where the tensor is written before step j and
    read at step j — the slot to seed a premature free into."""
    written = {}
    for s in route.steps:
        for t in route.step_writes(s):
            written.setdefault(t.tensor_id, s.index)
        for t in route.step_reads(s):
            w = written.get(t.tensor_id)
            if w is not None and s.index > w and t.kind is TensorKind.DATA:
                return s.index, t
    raise AssertionError("no producer/consumer gap found")


def test_premature_free_rejected_as_use_after_free():
    def seed(eng):
        j, t = _first_producer_consumer_gap(
            eng.planning("train").route)
        return "liveness", lambda p: _with(p, "step_frees", j - 1, t)

    for diags in both_entry_points(alexnet, "liveness_only", seed):
        assert _rules(diags) == ["PLAN001"]
        (hit,) = diags
        assert (hit.step, hit.tensor, hit.severity) == \
            (1, "data:out", "error")


def test_dropped_prefetch_rejected_as_missing_prefetch():
    def seed(eng):
        return "offload", lambda p: dataclasses.replace(p, step_prefetch={})

    for diags in both_entry_points(alexnet, "liveness_offload", seed):
        assert diags and _rules(diags) == ["PLAN002"]
        # provenance points at the stalled consumer step
        assert all(d.step is not None and d.op and d.tensor for d in diags)


def test_unbalanced_lock_rejected(monkeypatch):
    """Seeded into the linked iteration plan: conv1's backward step, the
    last to pin its output gradient, no longer releases that pin."""
    real = runtime.link_iteration_plan

    def leaky(ex):
        plan = real(ex)
        cs = plan.steps[-2]
        grad = cs.layer.grad_output
        cs.pinned = tuple(t for t in cs.pinned if t is not grad)
        return plan

    clean = _engine(alexnet, "liveness_only")
    cm = clean.compiled("train")
    eng = _engine(alexnet, "liveness_only", verify=True)
    monkeypatch.setattr(runtime, "link_iteration_plan", leaky)
    with pytest.raises(PlanVerificationError) as exc:
        eng.compiled("train")
    replayed = verify_compiled_mode(clean.net, cm,
                                    clean.config.for_mode("train"))
    monkeypatch.undo()
    assert eng.compiled_modes == ()
    eng.compiled("train")
    for diags in (exc.value.report.diagnostics, replayed):
        assert [(d.rule, d.tensor) for d in diags] == \
            [("PLAN003", "conv1:grad")]
        assert "barrier" in diags[0].message


def test_dead_recompute_anchor_rejected():
    """conv1's output anchors the relu1/lrn1/pool1 recompute segment;
    freed after pool1's backward, relu1's backward cannot be served.
    Before the fix recomputation re-ran conv1 as if the tensor cache had
    dropped it, and the run went on with 15 extra forwards."""
    def seed(eng):
        anchor = _layer(eng, "conv1").output
        return "liveness", lambda p: _with(p, "step_frees", 43, anchor)

    for diags in both_entry_points(alexnet, "superneurons", seed):
        assert [(d.rule, d.step, d.op, d.tensor) for d in diags] == \
            [("PLAN004", 45, "relu1:b", "conv1:out")]

    # unverified, the same corruption is a scheduling bug, not a rebuild
    eng = _engine(alexnet, "superneurons")
    eng.planning("train").liveness_plan.free_after.setdefault(43, []).append(
        _layer(eng, "conv1").output)
    with pytest.raises(ResidencyError, match="scheduling bug") as exc:
        with eng.session("train") as sess:
            sess.run_iteration(0)
    assert exc.value.rule == "PLAN004"


def test_over_capacity_rejected():
    eng = _engine(alexnet, "liveness_only")
    # the parameters alone; then room for them and no activation
    params = sum(p.nbytes for layer in eng.net.layers for p in layer.params)
    for capacity, step in ((1024, None), (params + (1 << 20), 0)):
        cfg = dataclasses.replace(eng.config.for_mode("train"),
                                  gpu_capacity=capacity)
        replayed = verify_compiled_mode(eng.net, eng.compiled("train"), cfg)
        bad = Engine(eng.net, cfg, verify=True)
        with pytest.raises(PlanVerificationError) as exc:
            bad.compiled("train")
        assert bad.compiled_modes == ()
        for diags in (exc.value.report.diagnostics, replayed):
            assert [(d.rule, d.severity, d.step) for d in diags] == \
                [("PLAN005", "error", step)]
        bad.config.gpu_capacity = None
        bad.compiled("train")


def test_cache_mode_overflow_is_judged_by_the_run():
    """The tensor cache sheds what its static peak keeps: at the
    smallest capacity the small resnet trains in, the scout evicts and
    the plan verifies; below what eviction can reach it is an error."""
    def engine(capacity):
        return Engine(
            resnet_from_units((1, 1, 0, 0), batch=4, image=32,
                              num_classes=10),
            RuntimeConfig.superneurons(concrete=False, gpu_capacity=capacity),
            verify=True, cost_report=True)

    eng = engine(SMALLEST)
    eng.compiled("train")
    assert eng.cost_reports["train"].metrics[
        f"{eng.net.name}/train"]["pressure_evictions"] > 0
    with pytest.raises(PlanVerificationError) as exc:
        engine(SMALLEST // 2).compiled("train")
    assert _rules(exc.value.report.errors) == ["PLAN005"]


def test_double_free_rejected():
    def freed_twice(eng):
        live = eng.planning("train").liveness_plan
        k = min(i for i, ts in live.free_after.items() if ts)
        t = live.free_after[k][0]
        return "liveness", lambda p: _with(p, "step_frees", k + 1, t)

    def offloaded_before_made(eng):
        late = _layer(eng, "conv5").output
        return "offload", lambda p: _with(p, "step_offloads", 0, late)

    for rung, seed in (("liveness_only", freed_twice),
                       ("liveness_offload", offloaded_before_made)):
        for diags in both_entry_points(alexnet, rung, seed):
            assert _rules(diags) == ["PLAN006"]
            assert diags[0].tensor and diags[0].step is not None


# --------------------------------------------------------------------------- #
# PLAN007: the tensor cache's need order (the return trip's deadlines)
# --------------------------------------------------------------------------- #

def _offload_plan(eng):
    """The offload policy's plan, as a session of ``eng`` links it."""
    with eng.session("train") as sess:
        sess.run_iteration(0)
        return sess.executor.iteration_plan.plans["offload"]


def _need_order(net_builder):
    eng = Engine(net_builder(), RuntimeConfig.superneurons(concrete=False))
    return eng, eng.compiled("train"), _offload_plan(eng).return_trip


@pytest.mark.parametrize("net_builder", [lambda: alexnet(batch=8), fan_net],
                         ids=["alexnet", "fan"])
def test_need_order_is_each_tensors_first_backward_reader(net_builder):
    """Derived from the route alone: sorted by first backward use, each
    data tensor once, and the named step reads it — as a kernel operand
    or as an outside input of a recompute chain it can trigger."""
    eng, cm, need = _need_order(net_builder)
    assert need and verify_compiled_mode(
        eng.net, cm, eng.config.for_mode("train")) == []
    steps = [i for i, _ in need]
    assert steps == sorted(steps)
    assert len({t.tensor_id for _, t in need}) == len(need)
    n = cm.route.num_layers
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
    eng, cm, good = _need_order(lambda: alexnet(batch=8))
    (i0, t0), (i1, t1) = good[0], good[-1]
    assert i0 < i1
    cfg = eng.config.for_mode("train")
    for bad, says in (
            (good + (good[0],), "twice"),
            ((good[-1],) + good[:-1], "not sorted"),
            (((i0 + 1, t0),) + good[1:], "first backward step"),
            (((0, t0),) + good[1:], "first backward step")):
        with pytest.MonkeyPatch.context() as m:
            _corrupted(m, "offload", lambda p, bad=bad: dataclasses.replace(
                p, return_trip=bad))
            diags = verify_compiled_mode(eng.net, cm, cfg)
        assert _rules(diags) == ["PLAN007"], says
        assert says in diags[0].message
        assert all(d.severity == "error" for d in diags)

    def twice(eng):
        return "offload", lambda p: dataclasses.replace(
            p, return_trip=p.return_trip + p.return_trip[:1])
    for diags in both_entry_points(alexnet, "superneurons", twice):
        assert _rules(diags) == ["PLAN007"]


def test_eager_mode_has_no_need_order():
    off = _offload_plan(_engine(alexnet, "liveness_offload"))
    assert off.return_trip == () and off.step_prefetch


# --------------------------------------------------------------------------- #
# engine wiring: verify=True judges the scout and gates the compile cache
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


def test_engine_verify_refuses_bad_plan():
    """A premature free seeded into the planning inputs — the liveness
    plan the scout's free lists are compiled from — is refused with its
    rule, and the mode is not cached until the plan is fixed."""
    eng = _engine(alexnet, "liveness_only", verify=True)
    frees = eng.planning("train").liveness_plan.free_after
    j, t = _first_producer_consumer_gap(eng.planning("train").route)
    frees.setdefault(j - 1, []).append(t)
    with pytest.raises(PlanVerificationError) as exc:
        eng.compiled("train")
    assert "PLAN001" in str(exc.value)
    assert exc.value.report.errors
    assert eng.compiled_modes == ()
    frees[j - 1].remove(t)
    eng.compiled("train")
    assert eng.compiled_modes == ("train",)


def test_verify_compiled_mode_matches_verify_engine():
    eng = _engine(alexnet, "superneurons")
    direct = verify_compiled_mode(eng.net, eng.compiled("train"),
                                  eng.config.for_mode("train"),
                                  target="alexnet/train")
    assert direct == []


def test_verified_scout_is_the_unverified_scout(monkeypatch):
    """Judging the scout changes nothing it computes: its iteration, the
    planning it compiles, the cost prediction and the planning count."""
    results = []
    real = Executor.run_iteration

    def spy(ex, *args, **kw):
        res = real(ex, *args, **kw)
        results.append(res.to_dict())
        return res
    monkeypatch.setattr(Executor, "run_iteration", spy)
    net = alexnet(batch=8)
    runs = []
    for verify in (False, True):
        del results[:]
        eng = Engine(net, RuntimeConfig.superneurons(concrete=False),
                     verify=verify, cost_report=True)
        for mode in ("train", "infer"):
            assert eng.compiled(mode) is eng.planning(mode)
        runs.append((list(results), eng.compile_count,
                     {m: r.metrics for m, r in eng.cost_reports.items()}))
    assert runs[0] == runs[1]
    assert len(runs[0][0]) == 2


# --------------------------------------------------------------------------- #
# check plan: one target's findings never stop the sweep
# --------------------------------------------------------------------------- #

def test_check_plan_reports_each_target(monkeypatch, tmp_path):
    real = LivenessPolicy.compile_plan

    def corrupt_alexnet(self, ctx):
        plan = real(self, ctx)
        if ctx.net.name != "alexnet":
            return plan
        j, t = _first_producer_consumer_gap(ctx.route)
        return _with(plan, "step_frees", j - 1, t)
    monkeypatch.setattr(LivenessPolicy, "compile_plan", corrupt_alexnet)
    out = tmp_path / "plan.json"
    code = cli_main(["check", "plan", "--all", "--batch", "2",
                     "--configs", "liveness_only", "--modes", "train",
                     "--serve-batches", "", "--format", "json",
                     "--output", str(out)])
    report = json.loads(out.read_text())
    assert code == 1
    assert len(report["checked"]) == len(NETWORK_BUILDERS)
    assert [(d["target"], d["rule"]) for d in report["diagnostics"]] == \
        [("alexnet/train@liveness_only", "PLAN001")]


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
