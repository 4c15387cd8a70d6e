"""Cost model (``repro check cost``): the prediction is an *exact*
reconstruction of the simulated executor, every PERF rule fires on a
seeded-pathology fixture while the default ablation ladder stays
clean, the advisor recommends the cheapest fitting rung, and the
engine/CLI wiring works end to end.

The pathology fixtures perturb the *device model* (PCIe bandwidth,
compute throughput) rather than the schedules: the same compiled plans
become uneconomic on different hardware, which is exactly the
what-if question the static model exists to answer.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.check.advisor import advise, assess_ladder, recommend
from repro.check.cost_model import (
    CostThresholds,
    analyze_prediction,
    cost_compiled_mode,
    cost_engine,
    fold,
    predict_compiled_mode,
    serving_fill_check,
)
from repro.check.diagnostics import PERF_RULES
from repro.check.plan_verifier import verify_compiled_mode
from repro.cli import main
from repro.core.config import RuntimeConfig
from repro.core.engine import Engine
from repro.core.runtime import Executor
from repro.device.fabric import LOCAL_CPU, PEER_GPU, REMOTE_RDMA
from repro.device.model import K40_MODEL
from repro.zoo import NETWORK_BUILDERS

MiB = 1024 * 1024

#: train/infer peak bytes of the nine-net zoo at b8 under the full stack
ZOO_PEAKS = json.loads(
    (Path(__file__).resolve().parent / "data" / "zoo_peaks.json")
    .read_text())

RUNGS = ("baseline", "liveness_only", "liveness_offload", "superneurons")


def _engine(net="alexnet", rung="superneurons", batch=8, **kw):
    cfg = getattr(RuntimeConfig, rung)(concrete=False, **kw)
    return Engine(NETWORK_BUILDERS[net](batch=batch), cfg)


def _predict(engine, mode="train"):
    return predict_compiled_mode(engine.net, engine.compiled(mode),
                                 engine.config.for_mode(mode))


def _measure(engine, mode="train", iters=4):
    with engine.session(mode=mode) as sess:
        for i in range(iters):
            res = sess.run_iteration(i)
    return res


def _rules(diags):
    return sorted({d.rule for d in diags})


# --------------------------------------------------------------------------- #
# calibration: predicted == measured (the ±10% acceptance bound is met
# with exact equality — the model replays the same latency model the
# executor runs on)
# --------------------------------------------------------------------------- #
class TestCalibration:
    @pytest.mark.parametrize("net", ["lenet", "alexnet"])
    @pytest.mark.parametrize("rung", RUNGS)
    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_prediction_reconstructs_measured_iteration(
            self, net, rung, mode):
        engine = _engine(net, rung)
        pred = _predict(engine, mode)
        meas = _measure(engine, mode)
        assert pred.sim_time == pytest.approx(meas.sim_time, rel=1e-9)
        assert pred.peak_gpu_bytes == meas.peak_bytes
        assert pred.d2h_bytes == meas.d2h_bytes
        assert pred.h2d_bytes == meas.h2d_bytes
        assert pred.stall_seconds == pytest.approx(meas.stall_seconds,
                                                   abs=1e-12)
        assert pred.extra_forwards == meas.extra_forwards

    @pytest.mark.parametrize("net,rung,kw", [
        ("resnet50", "superneurons", {"gpu_capacity": 1 << 30}),
        ("resnet50", "superneurons", {"gpu_capacity": 700 << 20}),
        ("alexnet", "liveness_offload",
         {"external_pools": (PEER_GPU, LOCAL_CPU)}),
        ("alexnet", "liveness_offload",
         {"external_pools": (REMOTE_RDMA,)}),
    ], ids=["1GiB", "700MiB", "peer+cpu", "rdma"])
    def test_pressure_and_external_pools_reconstruct_too(
            self, net, rung, kw):
        """LRU eviction order, first-fit fragmentation, lock sets and
        the fabric's per-pool copy rates: where a second implementation
        of the residency machine used to drift by 3-6%.  The prediction
        is a recorded first iteration of the compiled mode, which starts
        from the scout's tensor cache outcome: it cleans the scout's
        victims at their producers and rebuilds the ones the scout
        dropped, as every iteration of a session does, so it equals the
        first measured iteration and the steady one."""
        engine = _engine(net, rung, batch=32, **kw)
        pred = _predict(engine)
        with engine.session() as sess:
            meas, steady = sess.run_iteration(0), sess.run_iteration(1)
        assert (steady.cache_dropped > 0) is ("gpu_capacity" in kw)
        for res in (meas, steady):
            assert pred.sim_time == pytest.approx(res.sim_time, rel=1e-9)
            assert pred.peak_gpu_bytes == res.peak_bytes
            assert pred.d2h_bytes == res.d2h_bytes
            assert pred.h2d_bytes == res.h2d_bytes
            assert pred.stall_seconds == pytest.approx(res.stall_seconds,
                                                       rel=1e-9)
            assert pred.extra_forwards == res.extra_forwards
            assert pred.pressure_evictions == res.cache_evictions
            # the bytes reconcile: an eviction that finds its line clean
            # or cleaning is counted and logs no copy and no record —
            # every other eviction that copied stalled compute on it,
            # and a dropped one copied nothing
            assert pred.clean_evictions == res.cache_clean_evictions
        assert pred.to_dict()["clean_evictions"] == pred.clean_evictions
        assert (pred.clean_evictions > 0) == ("gpu_capacity" in kw)
        copies = sum(1 for s in pred.stalls if s.kind == "evict")
        assert copies == pred.pressure_evictions - pred.clean_evictions \
            - meas.cache_dropped
        assert not (pred.pressure_evictions and pred.offloads)

    @pytest.mark.parametrize("record", ZOO_PEAKS, ids=lambda r: r["net"])
    def test_zoo_peaks_equal_the_committed_baseline(self, record):
        """The one anchor that is independent of both sides of the
        identity above: prediction and executor cannot drift together
        past the byte columns committed in ``tests/data``."""
        engine = _engine(record["net"], batch=record["batch"])
        for mode in ("train", "infer"):
            committed = record[f"{mode}_peak_bytes"]
            assert _measure(engine, mode, iters=1).peak_bytes == committed
            assert _predict(engine, mode).peak_gpu_bytes == committed

    def test_eager_offload_stack_reconstructs_too(self):
        engine = _engine("alexnet", "superneurons",
                         use_tensor_cache=False)
        pred = _predict(engine)
        meas = _measure(engine)
        assert pred.sim_time == pytest.approx(meas.sim_time, rel=1e-9)
        assert pred.peak_gpu_bytes == meas.peak_bytes

    def test_prediction_is_per_iteration_steady_state(self):
        """Two predictions of the same compiled mode are identical
        (pure function of the frozen schedules)."""
        engine = _engine("lenet")
        a, b = _predict(engine), _predict(engine)
        assert a.sim_time == b.sim_time
        assert a.peak_gpu_bytes == b.peak_gpu_bytes
        assert a.alloc_calls == b.alloc_calls


# --------------------------------------------------------------------------- #
# recording never changes the iteration, and the scout recorded at
# compile time is the same iteration a replay records
# --------------------------------------------------------------------------- #
class TestRecorder:
    @pytest.mark.parametrize("net,concrete", [("lenet", True),
                                              ("alexnet", False)])
    @pytest.mark.parametrize("plan", ["recording", "compiled"])
    def test_recorder_never_changes_the_iteration(self, net, concrete,
                                                  plan):
        cfg = RuntimeConfig.superneurons(concrete=concrete)
        engine = Engine(NETWORK_BUILDERS[net](batch=8), cfg)

        if plan == "compiled":
            engine.compiled("train")  # the scout has run: no difference

        def run(record):
            with engine.executor() as ex:
                if record:
                    log = ex._run_recorded(0)
                    res, pred = log.result, fold(ex, log)
                    assert len(pred.steps) == len(ex.route.steps)
                    assert pred.sim_time == res.sim_time
                else:
                    res = ex.run_iteration(0)
                assert ex.replayed_iterations == 0
                return res.to_dict()

        assert run(record=True) == run(record=False)

    @pytest.mark.parametrize("case", ["eager-slow-pcie", "cache-1GiB"])
    def test_the_fold_places_every_record(self, case):
        """The fold's records agree with each other and with the route:
        each step's stall plus the barrier's sum to the iteration's, a
        stall and a rebuild name the step they happened at, and a
        prefetch's idle gap is its stream's since the copy before."""
        if case == "cache-1GiB":
            engine = Engine(NETWORK_BUILDERS["resnet50"](batch=32),
                            RuntimeConfig.superneurons(
                                concrete=False, gpu_capacity=1 << 30))
        else:
            engine = _engine("alexnet", "liveness_offload", device=replace(
                K40_MODEL, pcie_h2d=4e9, pcie_d2h=4e9))
        pred = _predict(engine)
        steps = engine.compiled("train").route.steps
        assert pred.stalls and pred.prefetches and (
            pred.recomputes if case == "cache-1GiB" else pred.offloads)
        barrier = sum(s.seconds for s in pred.stalls if s.op == "<barrier>")
        assert sum(s.stall for s in pred.steps) + barrier \
            == pytest.approx(pred.stall_seconds)
        for index, op in [(s.step, s.op) for s in pred.stalls] + [
                (r.trigger_step, r.trigger_op) for r in pred.recomputes]:
            step = steps[index]
            assert op in (f"{step.layer.name}:{step.phase.value[0]}",
                          "<barrier>")
        landed = 0.0
        for p in sorted(pred.prefetches, key=lambda p: p.copy_start):
            assert 0 <= p.idle_gap <= p.copy_start - landed + 1e-12
            landed = p.arrival

    @pytest.mark.parametrize("net", ["lenet", "alexnet"])
    @pytest.mark.parametrize("rung", RUNGS)
    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_scout_recording_equals_replay_recording(self, net, rung,
                                                     mode):
        cfg = getattr(RuntimeConfig, rung)(concrete=False)
        engine = Engine(NETWORK_BUILDERS[net](batch=8), cfg,
                        cost_report=True)
        target = f"{engine.net.name}/{mode}"
        pred = predict_compiled_mode(
            engine.net, engine.compiled(mode),
            engine.config.for_mode(mode), target=target)
        assert engine.cost_reports[mode].metrics[target] == pred.to_dict()
        assert "oom_events" not in pred.to_dict()

    def test_a_seeded_compile_stashes_the_seeded_iteration(self):
        """Under pressure the scout seeds the mode, and a costed compile
        stashes the seeded iteration's report: the one
        ``predict_compiled_mode`` records, not the scout's own."""
        engine = Engine(NETWORK_BUILDERS["resnet50"](batch=32),
                        RuntimeConfig.superneurons(
                            concrete=False, gpu_capacity=1 << 30),
                        cost_report=True)
        compiled = engine.compiled("train")
        assert compiled.cache_seed is not None
        target = f"{engine.net.name}/train"
        pred = predict_compiled_mode(engine.net, compiled,
                                     engine.config.for_mode("train"),
                                     target=target)
        assert engine.cost_reports["train"].metrics[target] \
            == pred.to_dict()
        assert pred.to_dict()["stall_ms"] == pytest.approx(7.688, abs=1e-3)


# --------------------------------------------------------------------------- #
# the default ladder is clean; every PERF rule fires on its pathology
# --------------------------------------------------------------------------- #
class TestRules:
    @pytest.mark.parametrize("rung", RUNGS)
    def test_default_ladder_is_clean(self, rung):
        engine = _engine("alexnet", rung)
        for mode in ("train", "infer"):
            _, diags = cost_compiled_mode(
                engine.net, engine.compiled(mode),
                engine.config.for_mode(mode))
            assert diags == [], _rules(diags)

    def test_perf001_perf004_late_prefetch_on_slow_pcie(self):
        dev = replace(K40_MODEL, pcie_h2d=4e9, pcie_d2h=4e9)
        engine = _engine("alexnet", "liveness_offload", device=dev)
        pred, diags = cost_compiled_mode(
            engine.net, engine.compiled("train"),
            engine.config.for_mode("train"))
        assert "PERF001" in _rules(diags)   # stalls dominate
        assert "PERF004" in _rules(diags)   # with idle DMA headroom
        assert pred.stall_seconds > 0

    def test_perf002_offload_without_payback(self):
        dev = replace(K40_MODEL, pcie_h2d=2e9, pcie_d2h=2e9)
        engine = _engine("alexnet", "superneurons", device=dev,
                         use_tensor_cache=False)
        _, diags = cost_compiled_mode(
            engine.net, engine.compiled("train"),
            engine.config.for_mode("train"))
        assert "PERF002" in _rules(diags)

    def test_perf003_uneconomic_recompute_on_weak_compute(self):
        dev = replace(K40_MODEL, compute_tflops=1e10, mem_bandwidth=1e9)
        engine = _engine("alexnet", "superneurons", device=dev)
        pred, diags = cost_compiled_mode(
            engine.net, engine.compiled("train"),
            engine.config.for_mode("train"))
        assert _rules(diags) == ["PERF003"]
        assert pred.recompute_seconds > 0

    def test_perf005_over_budget_is_an_error(self):
        engine = _engine("alexnet", "superneurons")
        _, diags = cost_compiled_mode(
            engine.net, engine.compiled("train"),
            engine.config.for_mode("train"), budget=100 * MiB)
        over = [d for d in diags if d.rule == "PERF005"]
        assert over and all(d.severity == "error" for d in over)

    def test_perf006_serving_padding_waste(self):
        assert _rules(serving_fill_check(64, 4)) == ["PERF006"]
        assert serving_fill_check(8, 16) == []

    def test_perf007_exposed_dma_is_an_aggregate(self):
        """resnet50 b32 at 1 GiB: seventeen stalls, none of them 10% of
        the iteration, so PERF001/PERF004 see nothing — at PR 24's
        parent this configuration reported no finding on an iteration
        that was 47% stall.  The iteration a session runs there stalls
        1.7%: quiet at the default threshold, and one PERF007 finding
        when the threshold is below it."""
        engine = _engine("resnet50", "superneurons", batch=32,
                         gpu_capacity=1 << 30)
        pred, diags = cost_compiled_mode(
            engine.net, engine.compiled("train"),
            engine.config.for_mode("train"))
        assert diags == []
        assert 0.016 < pred.exposed_dma_share <= 0.018
        assert pred.exposed_dma_share \
            == pred.stall_seconds / pred.sim_time
        diags = analyze_prediction(pred, thresholds=CostThresholds(
            exposed_dma_share=0.01, exposed_dma_min_seconds=0.0))
        assert _rules(diags) == ["PERF007"]
        # compute-bound: both copy streams fit under the kernels
        assert pred.overlap_floor_s == pred.compute_seconds \
            > max(pred.d2h_busy_seconds, pred.h2d_busy_seconds)
        assert {s.kind for s in pred.stalls} == {"clean", "prefetch"}
        top = max(pred.stalls, key=lambda s: s.seconds)
        assert repr(top.tensor) in diags[0].message
        assert "stream idle" in diags[0].message
        data = pred.to_dict()
        assert data["exposed_dma_share"] == pred.exposed_dma_share
        assert data["overlap_floor_ms"] == pred.overlap_floor_s * 1e3
        # the stall by copy kind: every kind named, summing to the whole
        by_kind = data["stall_ms_by_kind"]
        assert list(by_kind) == ["fetch", "prefetch", "clean", "evict",
                                 "reap"]
        assert sum(by_kind.values()) == pytest.approx(data["stall_ms"])
        assert [kind for kind, ms in by_kind.items() if ms > 0] \
            == ["prefetch", "clean"]

    def test_perf007_eager_offload_fires_at_b32_not_in_the_b8_sweep(self):
        """The eager rung's prefetch hides nothing at any batch size;
        the seconds floor keeps the b8 sweep CI runs quiet about it."""
        for batch, fires in ((32, True), (8, False)):
            engine = _engine("resnet50", "liveness_offload", batch=batch)
            pred = _predict(engine)
            assert pred.exposed_dma_share > 0.3
            assert ("PERF007" in _rules(analyze_prediction(pred))) is fires
        everywhere = CostThresholds(exposed_dma_min_seconds=0.0)
        diags = analyze_prediction(pred, thresholds=everywhere)
        assert "PERF007" in _rules(diags)

    def test_thresholds_are_tunable(self):
        """A zero stall threshold flags even the clean ladder's known
        overlap stalls — proving the defaults, not the detector, keep
        the zoo quiet."""
        engine = _engine("alexnet", "liveness_offload")
        pred = _predict(engine)
        strict = CostThresholds(late_stall_frac=0.0,
                                overlap_stall_frac=0.0)
        assert "PERF001" in _rules(analyze_prediction(pred,
                                                      thresholds=strict))
        assert analyze_prediction(pred) == []

    def test_every_perf_rule_has_a_catalog_entry(self):
        fired = set()
        dev = replace(K40_MODEL, pcie_h2d=2e9, pcie_d2h=2e9)
        engine = _engine("alexnet", "liveness_offload", device=dev)
        pred = predict_compiled_mode(
            engine.net, engine.compiled("train"),
            engine.config.for_mode("train"))
        fired.update(_rules(analyze_prediction(
            pred, budget=100 * MiB,
            thresholds=CostThresholds(exposed_dma_min_seconds=0.0))))
        dev = replace(K40_MODEL, compute_tflops=1e10, mem_bandwidth=1e9)
        engine = _engine("alexnet", "superneurons", device=dev)
        _, diags = cost_compiled_mode(
            engine.net, engine.compiled("train"),
            engine.config.for_mode("train"))
        fired.update(_rules(diags))
        fired.update(_rules(serving_fill_check(64, 4)))
        assert fired == set(PERF_RULES)


# --------------------------------------------------------------------------- #
# the policy advisor (static Alg. 2): rank the ladder under a budget
# --------------------------------------------------------------------------- #
class TestAdvisor:
    def _ladder(self, net="lenet", batch=8):
        return assess_ladder(lambda: NETWORK_BUILDERS[net](batch=batch))

    def test_assess_ladder_covers_every_rung(self):
        ladder = self._ladder()
        assert [r.rung for r in ladder] == list(RUNGS)
        for rung in ladder:
            assert set(rung.predictions) == {"train", "infer"}
            assert rung.peak_bytes > 0

    def test_recommend_fastest_fitting_rung(self):
        ladder = self._ladder()
        roomy = max(r.peak_bytes for r in ladder) + 1
        pick = recommend(ladder, budget=roomy)
        fastest = min(ladder, key=lambda r: r.time_for("train"))
        assert pick == fastest.rung
        tight = min(r.peak_bytes for r in ladder)
        fitting = [r for r in ladder if r.peak_bytes <= tight]
        assert recommend(ladder, budget=tight) == min(
            fitting, key=lambda r: r.time_for("train")).rung
        assert recommend(ladder, budget=1) is None

    def test_advise_renders_recommendation(self):
        adv = advise(lambda: NETWORK_BUILDERS["lenet"](batch=8),
                     "lenet", budget=1024 * MiB)
        text = adv.render()
        assert "recommended" in text
        assert adv.recommended is not None
        assert adv.to_dict()["net"] == "lenet"

    def test_advise_times_the_iteration_users_run(self):
        """Under pressure the advisor ranks a rung by the iteration a
        session of it repeats, its first included."""
        adv = advise(lambda: NETWORK_BUILDERS["resnet50"](batch=32),
                     "resnet50", modes=("train",), rungs=("superneurons",),
                     gpu_capacity=1 << 30)
        with _engine("resnet50", batch=32,
                     gpu_capacity=1 << 30).session() as sess:
            runs = [sess.run_iteration(i).sim_time for i in range(2)]
        assert adv.ladder[0].time_for("train") == pytest.approx(
            runs[0], rel=1e-9) == pytest.approx(runs[1], rel=1e-9)
        assert "recommended" in adv.render().splitlines()[-1]

    def test_a_refused_mode_runs_its_iteration_once(self, monkeypatch):
        """At 1 GiB resnet50 b32 refuses four modes of the default
        ladder.  Each finding is the scout's own refusal, placed as
        ``check plan`` places it: one iteration per refused mode, not
        the scout's and then a verifier's re-run."""
        refused = {("baseline", "train"): (15, "s1u0_join:f"),
                   ("baseline", "infer"): (15, "s1u0_join:f"),
                   ("liveness_only", "train"): (15, "s1u0_join:f"),
                   ("liveness_offload", "train"): (32, "s1u2_r2:f")}
        runs = []
        run_iteration = Executor.run_iteration

        def counted(ex, *args, **kw):
            runs.append(ex)
            return run_iteration(ex, *args, **kw)
        monkeypatch.setattr(Executor, "run_iteration", counted)
        found = {}
        for rung, mode in refused:
            a, = assess_ladder(
                lambda: NETWORK_BUILDERS["resnet50"](batch=32),
                modes=(mode,), rungs=(rung,), gpu_capacity=1 << 30)
            assert not a.predictions
            found[rung, mode] = a.refused[mode]
        assert len(runs) == len(refused) == 4
        monkeypatch.undo()
        for (rung, mode), diags in found.items():
            assert [(d.rule, d.step, d.op) for d in diags] \
                == [("PLAN005", *refused[rung, mode])]
            engine = Engine(NETWORK_BUILDERS["resnet50"](batch=32),
                            getattr(RuntimeConfig, rung)(
                                concrete=False, gpu_capacity=1 << 30))
            assert diags == verify_compiled_mode(
                engine.net, engine.planning(mode),
                engine.config.for_mode(mode),
                target=f"resnet50/{mode}@{rung}")

    def test_advise_reports_no_fit(self):
        adv = advise(lambda: NETWORK_BUILDERS["lenet"](batch=8),
                     "lenet", budget=1)
        assert adv.recommended is None
        assert "no rung fits the budget" in adv.render()


# --------------------------------------------------------------------------- #
# engine + module-level wiring
# --------------------------------------------------------------------------- #
class TestEngineHook:
    def test_cost_report_hook_stashes_reports(self):
        engine = Engine(NETWORK_BUILDERS["lenet"](batch=8),
                        RuntimeConfig.superneurons(concrete=False),
                        cost_report=True)
        engine.compiled("train")
        report = engine.cost_reports["train"]
        assert report.tool == "cost-model"
        assert report.metrics["lenet/train"]["peak_gpu_bytes"] > 0

    def test_cost_report_config_knob(self):
        """The one knob is the compile-time argument, off by default."""
        cfg = RuntimeConfig.superneurons(concrete=False)
        net = NETWORK_BUILDERS["lenet"](batch=8)
        engine = repro.compile(net, cfg, modes=("infer",), cost_report=True)
        assert "infer" in engine.cost_reports
        assert repro.compile(net, cfg, modes=("infer",)).cost_reports == {}

    def test_cost_report_is_advisory(self):
        """Over-budget findings never block compilation or execution
        (unlike ``verify=True``) — the mode still caches and runs."""
        engine = Engine(NETWORK_BUILDERS["lenet"](batch=8),
                        RuntimeConfig.superneurons(concrete=False),
                        cost_report=True)
        res = _measure(engine, "train", iters=2)
        assert res.peak_bytes > 0
        assert "train" in engine.cost_reports

    def test_cost_engine_sweeps_modes(self):
        engine = _engine("lenet")
        report = cost_engine(engine)
        assert report.tool == "cost-model"
        assert len(report.checked) == 2
        assert report.ok
        assert len(report.metrics) == 2


# --------------------------------------------------------------------------- #
# CLI: repro check cost
# --------------------------------------------------------------------------- #
class TestCheckCostCLI:
    def test_clean_net_exits_zero(self, capsys):
        rc = main(["check", "cost", "--net", "lenet"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 error(s)" in out

    def test_prints_the_stall_by_kind(self, capsys):
        rc = main(["check", "cost", "--net", "resnet50", "--batch", "32",
                   "--gpu-gb", "1", "--configs", "superneurons",
                   "--modes", "train"])
        out = capsys.readouterr().out
        assert rc == 0
        (line,) = [ln for ln in out.splitlines()
                   if ln.startswith("resnet50/train@superneurons: stall ")]
        assert line == ("resnet50/train@superneurons: stall 7.7 ms = "
                        "fetch 0.0 + prefetch 5.4 + clean 2.3 + "
                        "evict 0.0 + reap 0.0")

    def test_advise_lists_the_dropped_victims(self, tmp_path, capsys):
        """Under pressure the advisor lists each victim the tensor cache
        drops with the two modelled costs the choice weighed: its
        rebuild is the cheaper.  resnet50 b32 at 1 GiB drops 11."""
        out_path = tmp_path / "cost.json"
        rc = main(["check", "cost", "--net", "resnet50", "--batch", "32",
                   "--gpu-gb", "1", "--configs", "superneurons",
                   "--modes", "train", "--advise", "--format", "json",
                   "--output", str(out_path)])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        start = lines.index(next(ln for ln in lines if ln.startswith(
            "  dropped by superneurons (train), modelled")))
        rows = [ln.split() for ln in lines[start + 1:]
                if ln.startswith("    ")]
        assert len(rows) == 11
        assert all(name.endswith(":out") and float(rebuild) < float(copy)
                   for name, rebuild, _, copy, _ in rows)
        (rung,) = json.loads(out_path.read_text())["metrics"][
            "resnet50/advice"]["ladder"]
        assert [[d["tensor"], f"{d['rebuild_ms']:.2f}",
                 f"{d['exposed_copy_ms']:.2f}"]
                for d in rung["dropped"]["train"]] == \
            [[name, rebuild, copy] for name, rebuild, _, copy, _ in rows]

    def test_a_refused_rung_is_reported_not_crashed(self, tmp_path,
                                                    capsys):
        """At 1 GiB resnet50 b32 runs only with the tensor cache: the
        baseline's first iteration is refused.  ``check cost`` reports
        the refusal as ``check plan`` does (PLAN005 at the step in
        flight, exit 1, not an internal error), costs the rung that
        runs, and the advisor recommends only that one."""
        out_path = tmp_path / "cost.json"
        rc = main(["check", "cost", "--net", "resnet50", "--batch", "32",
                   "--gpu-gb", "1", "--configs", "baseline,superneurons",
                   "--modes", "train", "--advise", "--format", "json",
                   "--output", str(out_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "refused (train)" in out
        report = json.loads(out_path.read_text())
        assert [(d["rule"], d["target"], d["step"], d["op"])
                for d in report["diagnostics"]] == [
            ("PLAN005", "resnet50/train@baseline", 15, "s1u0_join:f")]
        assert report["checked"][:2] == ["resnet50/train@baseline",
                                         "resnet50/train@superneurons"]
        assert "resnet50/train@baseline" not in report["metrics"]
        assert "resnet50/train@superneurons" in report["metrics"]
        advice = report["metrics"]["resnet50/advice"]
        assert advice["recommended"] == "superneurons"
        baseline, = [a for a in advice["ladder"] if a["rung"] == "baseline"]
        assert [d["rule"] for d in baseline["refused"]["train"]] \
            == ["PLAN005"]
        assert baseline["peak_bytes"] is None and baseline["modes"] == {}

    def test_budget_violation_exits_one(self, capsys):
        rc = main(["check", "cost", "--net", "alexnet",
                   "--budget", "0.05"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "PERF005" in out

    def test_advise_prints_ladder_table(self, capsys):
        rc = main(["check", "cost", "--net", "lenet",
                   "--budget", "1", "--advise"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "recommended" in out
        assert "superneurons" in out

    def test_advise_sweeps_once(self, monkeypatch, tmp_path, capsys):
        """The advisor ranks the predictions the report already holds:
        4 rungs x 2 modes are costed once, not once per consumer."""
        from repro.check import advisor, cost_model
        calls = []
        real = cost_model.predict_compiled_mode

        def counting(*args, **kw):
            calls.append(kw.get("target"))
            return real(*args, **kw)
        monkeypatch.setattr(cost_model, "predict_compiled_mode", counting)
        monkeypatch.setattr(advisor, "predict_compiled_mode", counting)
        out_path = tmp_path / "cost.json"
        rc = main(["check", "cost", "--net", "lenet", "--advise",
                   "--format", "json", "--output", str(out_path)])
        assert rc == 0 and "recommended" in capsys.readouterr().out
        assert len(calls) == len(set(calls)) == 8
        metrics = json.loads(out_path.read_text())["metrics"]
        for rung in metrics["lenet/advice"]["ladder"]:
            for mode, pred in rung["modes"].items():
                assert pred == metrics[f"lenet/{mode}@{rung['rung']}"]

    def test_json_artifact_carries_metrics(self, tmp_path):
        out_path = tmp_path / "cost.json"
        rc = main(["check", "cost", "--net", "lenet", "--format",
                   "json", "--output", str(out_path)])
        assert rc == 0
        data = json.loads(out_path.read_text())
        assert data["tool"] == "cost-model"
        assert data["schema_version"] == 2
        assert set(PERF_RULES) <= set(data["rules"])
        sample = data["metrics"]["lenet/train@superneurons"]
        assert sample["peak_gpu_bytes"] > 0
        assert sample["sim_time_ms"] > 0

    def test_unknown_rung_is_usage_error(self, capsys):
        rc = main(["check", "cost", "--net", "lenet",
                   "--configs", "bogus"])
        assert rc == 2
        assert "unknown ladder config" in capsys.readouterr().err

    def test_modes_filter(self, tmp_path):
        out_path = tmp_path / "cost.json"
        rc = main(["check", "cost", "--net", "lenet",
                   "--modes", "infer", "--configs", "superneurons",
                   "--format", "json", "--output", str(out_path)])
        assert rc == 0
        data = json.loads(out_path.read_text())
        assert "lenet/infer@superneurons" in data["checked"]
        assert not any("train" in t for t in data["checked"])
