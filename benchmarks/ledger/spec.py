"""What the ledger measures: workloads, metrics, layers — one table each.

``BENCHMARK.json`` at the repo root is :func:`benchmark_json` written
out; the unit test holds the two equal, so the contract file and the
harness cannot drift apart.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

#: how long one run measures (``--seconds``); the contract's run_seconds
RUN_SECONDS = 10

#: cold set-ups per run; ``setup_s`` is their median
SETUPS = 5

WORKLOADS: Tuple[Tuple[str, str], ...] = (
    ("train_roomy",
     "resnet50 b32 superneurons sim on 12 GB: steady replay, every cache "
     "lookup a hit, zero DMA; allocator + residency moves are ~75% of "
     "host time, so executor work must win here"),
    ("train_pressured",
     "same net at 1 GiB (~0.4x the roomy peak): ~30 evictions and ~4 GiB "
     "of DMA per iteration; a fast path that only works when nothing is "
     "evicted shows no gain here"),
    ("train_concrete",
     "lenet b32 concrete SGD: NumPy layer math dominates, executor "
     "bookkeeping is a few percent; the bypass workload for executor "
     "changes, and the one with real payloads and a loss check"),
    ("compile_zoo",
     "cold verified+costed compile of all nine zoo nets at b8, both "
     "modes: planning does all the work and steady-state execution none"),
    ("serve_sat_w1",
     "InferenceServer lenet b8 sim, 1 worker, closed backlogs of 1-4 row "
     "requests: ~3 requests ride a step, so queue/batcher/scatter/metrics "
     "/lock wrappers are about a quarter of per-request cost"),
    ("serve_sat_w4",
     "identical trace with 4 workers on 2 cores: more threads than "
     "cores, exposing the negative scaling lock waiting causes"),
    ("fleet_paced",
     "ServingFleet of lenet b4/b8/b16 lanes, open loop at 1000 req/s on "
     "a seeded Poisson schedule timed from due time: latency is mostly "
     "waiting (hold timers, locks), not compute"),
)
WORKLOAD_NAMES = tuple(name for name, _ in WORKLOADS)

#: workloads whose traced call counts must repeat exactly: one thread
#: of program code, a fixed amount of work.  The other three interleave
#: threads (or pace against the wall clock), so their counts wander by
#: a few wake-ups and are reported without the exactness claim.
EXACT_CALLS = ("train_roomy", "train_pressured", "train_concrete",
               "compile_zoo", "serve_sat_w1")

#: workloads on which the simulated figures are a pure function of the
#: code (no thread timing decides what rides which step)
EXACT_SIM = ("train_roomy", "train_pressured", "train_concrete",
             "compile_zoo")


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: allowed worsening as a share of the parent's median (end-to-end
    #: metrics only)
    bound: Optional[float] = None
    what: str = ""


END_TO_END: Tuple[Metric, ...] = (
    # host time is normalised to the reference machine speed (see
    # measure.py) everywhere but on fleet_paced, whose latencies are
    # wall-clock waits on hold timers, not CPU work
    Metric("setup_s", "s", "lower", 0.25,
           "median of 5 cold set-ups, each a fresh process: imports, "
           "build net, Engine, compile, session/server start, first "
           "operation"),
    Metric("ops_per_s", "1/s", "higher", 0.25,
           "operations per host second, median over timed windows "
           "(train_*: iterations; compile_zoo: net compiles; serve_*, "
           "fleet_paced: completed requests)"),
    Metric("latency_p50_ms", "ms", "lower", 0.25,
           "host ms per operation, median over windows of the window "
           "median (serve_sat_*: dispatch to completion; fleet_paced: "
           "from the instant the request was due)"),
    Metric("latency_p95_ms", "ms", "lower", 0.25,
           "same, the windows' 95th percentile"),
    Metric("sim_img_per_s", "img/s", "higher", 0.10,
           "samples per simulated device second (the paper's Fig. 14 "
           "axis): batch / IterationResult.sim_time; serving: useful "
           "rows / simulated step seconds; compile_zoo: predicted"),
    Metric("peak_mib", "MiB", "lower", 0.02,
           "simulated device peak memory (the paper's headline): "
           "peak_bytes; compile_zoo: largest predicted train peak"),
    Metric("host_rss_mib", "MiB", "lower", 0.10,
           "measuring process ru_maxrss after the timed phase"),
    Metric("ok_share", "share", "higher", 0.001,
           "1 - (failed + shed + errored + failed checks) / attempted"),
)

#: this repo's modules, as ledger rows.  ``wait`` is time inside
#: blocking primitives (lock acquire, sleep), ``harness`` the
#: benchmark's own frames, ``other`` everything else (NumPy, stdlib).
LAYERS: Tuple[str, ...] = (
    "graph", "core.runtime", "core.policy", "core.plan", "core.liveness",
    "core.recompute", "core.cache", "core.tensor_state", "core.workspace",
    "core.engine", "core.session", "mempool", "device.timeline",
    "device.dma", "device.gpu", "tensors", "layers", "check.instrument",
    "check.plan_verifier", "check.cost_model", "obs", "serve.queue",
    "serve.batcher", "serve.server", "serve.router", "serve.fleet",
    "serve.metrics", "train", "other", "wait", "harness",
)

#: ``repro.<prefix>`` -> layer; the longest matching prefix wins
MODULE_LAYERS: Dict[str, str] = {
    "graph": "graph",
    "zoo": "graph",
    "core.runtime": "core.runtime",
    "core.policy": "core.policy",
    "core.plan": "core.plan",
    "core.liveness": "core.liveness",
    "core.recompute": "core.recompute",
    "core.cache": "core.cache",
    "core.tensor_state": "core.tensor_state",
    "core.workspace": "core.workspace",
    "core.engine": "core.engine",
    "core.config": "core.engine",
    "core.session": "core.session",
    "mempool": "mempool",
    "device.timeline": "device.timeline",
    "device.dma": "device.dma",
    "device.host": "device.dma",
    "device.fabric": "device.dma",
    "device.gpu": "device.gpu",
    "device.model": "device.gpu",
    "tensors": "tensors",
    "layers": "layers",
    "check.instrument": "check.instrument",
    "check.plan_verifier": "check.plan_verifier",
    "check.diagnostics": "check.plan_verifier",
    "check.cost_model": "check.cost_model",
    "check.advisor": "check.cost_model",
    "obs": "obs",
    "serve.queue": "serve.queue",
    "serve.batcher": "serve.batcher",
    "serve.server": "serve.server",
    "serve.router": "serve.router",
    "serve.fleet": "serve.fleet",
    "serve.metrics": "serve.metrics",
    "train": "train",
}

#: fleet_paced: the reference rate (whole untraced run) and the three
#: other fixed rates of the traced run's sweep, calibrated on the seed
#: commit so the verdicts do not flip between runs: 1000/s passes at
#: ~0.6x the limit, 4000/s overruns it ~20x and 8000/s >100x.  (2000/s
#: sits on the generator-lateness threshold on this machine — in one
#: process the GIL makes the generator late just as the fleet gets
#: busy — so it is left out.)  The ledger is profiled at the lowest
#: rate: a profiled fleet cannot keep up with the reference rate.
FLEET_REFERENCE_RATE = 1000
FLEET_SWEEP_RATES = (500, 4000, 8000)
FLEET_LIMIT_MS = 10.0

#: the ablation ladder timed on alexnet b32 in train_roomy's traced run
RUNGS = ("baseline", "liveness", "liveness_utp", "superneurons")

_COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    ("ledger.coverage", "share", "higher"),
    ("trace.overhead_x", "x", "lower"),
    # public counters
    ("mempool.alloc_calls", "count", "lower"),
    ("mempool.fragmentation", "share", "lower"),
    ("mempool.sim_overhead_ms", "ms", "lower"),
    ("device.dma.d2h_mib", "MiB", "lower"),
    ("device.dma.h2d_mib", "MiB", "lower"),
    ("device.timeline.stall_ms", "ms", "lower"),
    ("core.cache.hits", "count", "higher"),
    ("core.cache.evictions", "count", "lower"),
    ("core.recompute.extra_forwards", "count", "lower"),
    ("core.workspace.at_max_share", "share", "higher"),
    ("core.runtime.iter_ms_p50", "ms", "lower"),
    ("core.runtime.iter_ms_p99", "ms", "lower"),
    ("core.runtime.cpu_ms_per_iter", "ms", "lower"),
    *((f"core.policy.rung_ms.{r}", "ms", "lower") for r in RUNGS),
    # micro-drivers: one public function timed alone, single thread
    ("mempool.replay_us_per_op", "us", "lower"),
    ("device.timeline.submit_us", "us", "lower"),
    ("graph.route_build_ms", "ms", "lower"),
    ("core.liveness.compile_ms", "ms", "lower"),
    ("core.recompute.plan_ms", "ms", "lower"),
    ("core.engine.scout_ms", "ms", "lower"),
    ("check.plan_verifier.verify_ms", "ms", "lower"),
    ("check.cost_model.predict_ms", "ms", "lower"),
    ("check.cost_model.drift", "share", "lower"),
    ("core.session.infer_step_us", "us", "lower"),
    ("serve.queue.submit_us", "us", "lower"),
    ("serve.batcher.next_batch_us", "us", "lower"),
    ("serve.router.route_us", "us", "lower"),
    # serving counters
    ("serve.queue.wait_ms_p50", "ms", "lower"),
    ("serve.queue.wait_ms_p99", "ms", "lower"),
    ("serve.server.compute_ms_p50", "ms", "lower"),
    ("serve.server.overhead_us_per_req", "us", "lower"),
    ("serve.batcher.fill_ratio", "share", "higher"),
    ("serve.batcher.padded_rows", "count", "lower"),
    ("serve.batcher.split_slices", "count", "lower"),
    ("serve.batcher.batches", "count", "lower"),
    ("serve.queue.shed", "count", "lower"),
    ("serve.router.small_lane_share", "share", "higher"),
    ("serve.fleet.goodput_rps", "1/s", "higher"),
    *((f"serve.fleet.latency_p99_ms.r{r}", "ms", "lower")
      for r in (FLEET_REFERENCE_RATE,) + FLEET_SWEEP_RATES),
    ("loadgen.late_ms_p99", "ms", "lower"),
    ("machine.calib_py_ms", "ms", "lower"),
    ("machine.calib_np_ms", "ms", "lower"),
)


def _per_layer() -> Tuple[Metric, ...]:
    rows: List[Metric] = []
    for layer in LAYERS:
        rows.append(Metric(f"{layer}.self_ms", "ms", "lower",
                           what="traced self time per operation"))
        rows.append(Metric(f"{layer}.calls", "count", "lower",
                           what="traced Python calls per operation"))
    rows.extend(Metric(n, u, b) for n, u, b in _COUNTERS)
    return tuple(rows)


PER_LAYER: Tuple[Metric, ...] = _per_layer()


def layer_of(module: str) -> str:
    """The ledger row of a dotted module name (``repro.core.cache`` ->
    ``core.cache``); anything outside ``repro`` is ``other``."""
    if module != "repro" and not module.startswith("repro."):
        return "other"
    rest = module[len("repro."):]
    parts = rest.split(".") if rest else []
    for n in range(len(parts), 0, -1):
        layer = MODULE_LAYERS.get(".".join(parts[:n]))
        if layer is not None:
            return layer
    return "other"


def benchmark_json() -> dict:
    """The contract file's content."""
    return {
        "command": ["python3", "-m", "benchmarks.ledger"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound} for m in END_TO_END],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER],
    }
