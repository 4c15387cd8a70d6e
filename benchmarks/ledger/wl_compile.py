"""``compile_zoo``: planning does all the work, execution none.

One operation is a cold, verified, costed compile of one zoo net at
batch 8 in both modes — net construction, route, liveness, recompute
segmentation, the scout iteration (the fresh hook-dispatch path), the
plan verifier and the cost model.  One window is one pass over all nine
nets, in an order the seed shuffles.
"""

from __future__ import annotations

import random
import time
from typing import Dict, Sequence

import repro
from repro import Engine, RuntimeConfig
from repro.check import predict_compiled_mode, verify_compiled_mode
from repro.core.liveness import LivenessAnalysis
from repro.core.recompute import plan_segments
from repro.graph.route import ExecutionRoute
from repro.zoo import NETWORK_BUILDERS

from . import measure, stats
from .profiler import LedgerProfiler
from .workload import Outcome, Workload, ledger_rows

BATCH = 8
MODES = ("train", "infer")
MICRO_NET = "resnet152"

#: "zero drift" between the cost model and the executor it mirrors is
#: agreement to the rounding of two differently-ordered float sums (the
#: tolerance tests/test_check_cost.py holds the pair to)
DRIFT_TOLERANCE = 1e-9


def drift(predicted: float, measured: float) -> float:
    """Relative disagreement, 0.0 within :data:`DRIFT_TOLERANCE`."""
    rel = abs(predicted - measured) / measured
    return 0.0 if rel <= DRIFT_TOLERANCE else rel


def config() -> RuntimeConfig:
    return RuntimeConfig.superneurons(concrete=False)


def compile_net(name: str) -> Engine:
    return repro.compile(NETWORK_BUILDERS[name](batch=BATCH), config(),
                         modes=MODES, verify=True, cost_report=True)


class CompileZoo(Workload):
    name = "compile_zoo"

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.nets = sorted(NETWORK_BUILDERS)
        self.engines: Dict[str, Engine] = {}
        self.one_pass(0)

    def one_pass(self, index: int) -> Sequence[float]:
        order = list(self.nets)
        random.Random(f"zoo:{self.seed}:{index}").shuffle(order)
        clock = time.perf_counter
        lat = []
        for name in order:
            t0 = clock()
            self.engines[name] = compile_net(name)
            lat.append(clock() - t0)
        return lat

    def measure(self, seconds: float) -> Outcome:
        out = Outcome()
        windows = measure.run_windows(self.one_pass, seconds)
        out.attempted = (len(windows) + 1) * len(self.nets)
        out.metrics.update(windows.metrics())
        out.spread.update(windows.spreads())
        # nine nets, nine very different compile times: a pass holds one
        # sample of each, so its percentiles jump from net to net, while
        # over the whole run every net is a cluster of equal size and
        # p50 / p95 sit in the middle of the 5th / 9th cluster
        out.metrics["latency_p50_ms"] = \
            stats.percentile(windows.pooled, 50) * 1e3
        out.metrics["latency_p95_ms"] = \
            stats.percentile(windows.pooled, 95) * 1e3
        out.metrics["host_rss_mib"] = measure.rss_mib()
        out.info.update(windows.info())
        # a verifier finding raises out of compile(), so reaching here
        # means every report was ok; what is left to gate is the cost
        # model against the executor it mirrors
        sim_seconds = peak = 0.0
        for name, engine in sorted(self.engines.items()):
            for mode in MODES:
                pred = engine.cost_reports[mode].metrics[
                    f"{engine.net.name}/{mode}"]
                with engine.session(mode) as s:
                    res = s.run_iteration(0)
                out.check(drift(pred["sim_time_ms"],
                                res.sim_time * 1e3) == 0.0
                          and pred["peak_gpu_bytes"] == res.peak_bytes,
                          f"cost model drift 0 on {name}/{mode}")
                if mode == "train":
                    sim_seconds += res.sim_time
                    peak = max(peak, res.peak_bytes)
        out.metrics["sim_img_per_s"] = \
            BATCH * len(self.engines) / sim_seconds
        out.metrics["peak_mib"] = peak / measure.MIB
        return out

    def trace(self, seconds: float) -> Dict[str, float]:
        untraced = sum(self.one_pass(1))
        with LedgerProfiler() as prof:
            self.one_pass(1)
        out = ledger_rows(prof, len(self.nets), self.name,
                          prof.wall_seconds / untraced)
        out.update(micro_drivers())
        return out


def micro_drivers() -> Dict[str, float]:
    """Each planning stage timed alone on resnet152 b8 (median of 5)."""
    net = NETWORK_BUILDERS[MICRO_NET](batch=BATCH)
    cfg = config()

    def ms(fn, repeats: int = 5) -> float:
        return measure.micro_us(fn, 1, repeats) / 1e3

    route = ExecutionRoute(net, training=True)
    segments = plan_segments(route, cfg.recompute, net.max_layer_bytes())
    engine = Engine(net, cfg)
    cm = engine.compiled("train")
    pred = predict_compiled_mode(net, cm, cfg)
    with engine.session("train") as s:
        measured = s.run_iteration(0).sim_time
    return {
        "graph.route_build_ms": ms(
            lambda: ExecutionRoute(net, training=True)),
        "core.recompute.plan_ms": ms(lambda: plan_segments(
            route, cfg.recompute, net.max_layer_bytes())),
        "core.liveness.compile_ms": ms(lambda: LivenessAnalysis(
            route, cfg, segments).compile()),
        # a fresh engine's whole train-mode compile: planning + scout
        "core.engine.scout_ms": ms(
            lambda: Engine(net, cfg).compiled("train")),
        "check.plan_verifier.verify_ms": ms(
            lambda: verify_compiled_mode(net, cm, cfg)),
        "check.cost_model.predict_ms": ms(
            lambda: predict_compiled_mode(net, cm, cfg)),
        "check.cost_model.drift": drift(pred.sim_time, measured),
    }
