"""The three serving workloads.

``serve_sat_w1``/``serve_sat_w4`` saturate one :class:`InferenceServer`
with a closed backlog (the callers wait for every reply before the next
window, so throughput is the figure); ``fleet_paced`` drives a
:class:`ServingFleet` in an open loop at a fixed rate (so latency is).
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro import Engine, RuntimeConfig, zoo
from repro.obs import trace as obs_trace
from repro.obs.export import export_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.serve import (
    DynamicBatcher,
    InferenceServer,
    RequestQueue,
    RequestRejected,
    ServingFleet,
)

from . import loadgen, measure, spec, stats
from .profiler import LedgerProfiler
from .workload import OUT_DIR, Outcome, Workload, ledger_rows

RESULT_TIMEOUT_S = 60.0


def sim_config() -> RuntimeConfig:
    return RuntimeConfig.superneurons(concrete=False)


def device_totals(front) -> Tuple[float, int]:
    """``(simulated device seconds, peak device bytes)`` summed / maxed
    over every worker session of a server or fleet, read through the
    probes its ``register_metrics`` publishes."""
    registry = MetricsRegistry()
    front.register_metrics(registry, "ledger")
    snap = registry.collect()
    seconds = sum(v["value"]["elapsed"] for k, v in snap.items()
                  if k.endswith(".timeline"))
    peak = max(v["value"]["peak_bytes"] for k, v in snap.items()
               if k.endswith(".allocator"))
    return seconds, peak


def wait_all(futures: Sequence) -> int:
    """Resolve every future; returns how many raised or never
    finished."""
    bad = 0
    for f in futures:
        try:
            f.result(timeout=RESULT_TIMEOUT_S)
        except Exception:
            bad += 1
    return bad


def check_concrete(out: Outcome, workers: int, seed: int) -> None:
    """64 payload requests through a concrete server must come back
    row for row equal to running each alone through a solo session."""
    engine = Engine(zoo.lenet(batch=ServeSat.batch),
                    RuntimeConfig.superneurons(concrete=True))
    rng = np.random.default_rng(seed)
    payloads = [rng.standard_normal(
        (int(rng.integers(1, 5)),) + engine.input_shape[1:]
    ).astype(np.float32) for _ in range(64)]
    with InferenceServer(engine, workers=workers, policy="greedy-fill",
                         max_wait=ServeSat.max_wait) as server:
        futures = [server.submit(data=p) for p in payloads]
        served = [f.result(timeout=RESULT_TIMEOUT_S) for f in futures]
    same = True
    with engine.session("infer") as solo:
        for i, (rows, got) in enumerate(zip(payloads, served)):
            feed = np.zeros(engine.input_shape, dtype=np.float32)
            feed[:len(rows)] = rows
            want = solo.infer_batch(feed, iteration=i)[:len(rows)]
            same = same and np.array_equal(want, got)
    out.check(same, "64 served concrete requests equal solo "
                    "session.infer_batch rows")


def export_trace(name: str, make_front, offer) -> None:
    """A short armed run written as a Chrome trace under ``out/`` (one
    Perfetto track per request plus the sessions' device streams)."""
    with obs_trace.capture() as tracer:
        front = make_front()
        with front:
            offer(front)
            front.drain(timeout=RESULT_TIMEOUT_S)
        completed, failed, shed = front.metrics.counts()
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        export_chrome_trace(
            os.path.join(OUT_DIR, f"{name}.trace.json"), tracer,
            timelines=front.session_timelines(),
            counts={"completed": completed, "failed": failed,
                    "shed": shed})
    except ValueError as exc:
        # the exporter validates what it writes and refuses a document
        # it finds malformed; the trace file is a reading aid, so its
        # refusal is reported, not allowed to sink the measured run
        print(f"# {name}: Chrome trace not written: "
              + " ".join(str(exc).split()))


class ServeSat(Workload):
    """lenet b8 simulated engine behind one server, saturated by closed
    backlogs: 4000 requests of seeded sizes 1-4 are queued, the workers
    start, and the window ends when the last reply is in.

    Each window runs on a fresh server whose backlog is complete
    *before* its workers start.  Submitting while the workers run was
    tried first and does not repeat: submitter and worker then fight
    over the interpreter lock and window rates swing by +-25% on this
    2-core machine.  Run back to back instead, the same admission and
    the same steps cost the same every time — and with one worker the
    batches, hence the profiler's call counts, are a pure function of
    the sizes.  Four workers still contend with each other, which is
    what ``serve_sat_w4`` is for.

    Latency here is dispatch -> completion (the step that carried the
    request plus the scatter): how long a request *queues* in a closed
    backlog is set by the backlog the harness piled up, not by the
    server, so the wait is a per-layer figure, not the end-to-end one.
    """

    batch = 8
    max_wait = 0.001
    window_requests = 4000

    def __init__(self, name: str, workers: int):
        self.name = name
        self.workers = workers

    def make_server(self) -> InferenceServer:
        return InferenceServer(self.engine, workers=self.workers,
                               policy="greedy-fill", max_wait=self.max_wait)

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.engine = Engine(zoo.lenet(batch=self.batch), sim_config())
        self.backlog([1])

    def sizes(self, window: int) -> List[int]:
        return loadgen.backlog_sizes(self.seed, window,
                                     self.window_requests)

    def backlog(self, sizes: Sequence[int]
                ) -> Tuple[float, int, InferenceServer]:
        """Serve one closed backlog; ``(seconds from the first submit
        to the last reply, futures that failed, the stopped server)``."""
        server = self.make_server()
        t0 = time.perf_counter()
        futures = [server.submit(size=n) for n in sizes]
        server.start()
        # block once on the reply that is due last, then sweep: a fixed
        # number of calls however the threads interleave
        futures[-1].result(timeout=RESULT_TIMEOUT_S)
        bad = wait_all(futures)
        seconds = time.perf_counter() - t0
        server.stop()
        return seconds, bad, server

    # ------------------------------------------------------------- untraced
    def measure(self, seconds: float) -> Outcome:
        out = Outcome()
        windows = measure.Windows()
        rows = sim_seconds = peak = 0
        accounted = True
        deadline = time.perf_counter() + seconds
        meter = measure.SpeedMeter()
        index = 0
        while len(windows) < measure.MIN_WINDOWS \
                or time.perf_counter() < deadline:
            sizes = self.sizes(index)
            dt, bad, server = self.backlog(sizes)
            slowdown = meter.slowdown()
            out.attempted += len(sizes)
            out.failed += bad
            accounted = accounted \
                and sum(server.metrics.counts()) == len(sizes)
            if index and not bad:       # window 0 is the warm-up
                windows.add(server.metrics.latency_snapshot()["compute"],
                            seconds=dt, slowdown=slowdown)
                sim, peak = device_totals(server)
                sim_seconds += sim
                rows += sum(sizes)
            index += 1
        out.metrics.update(windows.metrics())
        out.spread.update(windows.spreads())
        out.metrics["host_rss_mib"] = measure.rss_mib()
        out.metrics["sim_img_per_s"] = rows / sim_seconds
        out.metrics["peak_mib"] = peak / measure.MIB
        out.info.update(windows.info())
        out.check(accounted, "completed + failed + shed == offered")
        check_concrete(out, self.workers, self.seed)
        return out

    # --------------------------------------------------------------- traced
    def trace(self, seconds: float) -> Dict[str, float]:
        sizes = self.sizes(0)
        runs = [self.backlog(sizes) for _ in range(4)][1:]
        untraced = stats.median([dt for dt, _, _ in runs])
        m = runs[-1][2].metrics.to_dict()
        requests, batches = m["requests"], m["batches"]
        step_us = infer_step_us(self.engine)
        out = {
            "serve.queue.wait_ms_p50": requests["queue_ms"]["p50"],
            "serve.queue.wait_ms_p99": requests["queue_ms"]["p99"],
            "serve.server.compute_ms_p50": requests["compute_ms"]["p50"],
            "serve.batcher.fill_ratio": batches["fill_ratio"],
            "serve.batcher.padded_rows": batches["padded_rows"],
            "serve.batcher.split_slices": batches["split_slices"],
            "serve.batcher.batches": batches["count"],
            "serve.queue.shed": requests["shed"],
            "core.session.infer_step_us": step_us,
            # what a request costs beyond its share of the engine step
            "serve.server.overhead_us_per_req":
                (untraced * 1e6 - step_us * batches["count"]) / len(sizes),
        }
        if self.name == "serve_sat_w1":
            out.update(front_door_micro(self.engine))
        with LedgerProfiler() as prof:
            self.backlog(sizes)
        out.update(ledger_rows(prof, len(sizes), self.name,
                               prof.wall_seconds / untraced))
        export_trace(self.name, self.make_server, lambda server: [
            server.submit(size=n) for n in sizes[:200]])
        return out


def infer_step_us(engine: Engine) -> float:
    """A raw infer step of the engine, no server in front."""
    with engine.session("infer").with_history(0) as s:
        return measure.micro_us(lambda: s.run_iteration(0), 400)


def front_door_micro(engine: Engine) -> Dict[str, float]:
    """Admission and batch hand-out timed alone, single thread."""
    clock = time.perf_counter
    shape = engine.input_shape[1:]
    submit_us, next_us = [], []
    for rep in range(6):
        queue = RequestQueue(sample_shape=shape)
        t0 = clock()
        for _ in range(2000):
            queue.submit(size=2)
        submit_us.append((clock() - t0) / 2000 * 1e6)
        batcher = DynamicBatcher(queue, engine.batch_size,
                                 policy="greedy-fill", max_wait=0.0)
        t0 = clock()
        for _ in range(500):      # 2000 x 2 rows = 500 full batches
            batcher.mark_done(batcher.next_batch(timeout=1.0))
        next_us.append((clock() - t0) / 500 * 1e6)
    return {"serve.queue.submit_us": stats.median(submit_us[1:]),
            "serve.batcher.next_batch_us": stats.median(next_us[1:])}


class FleetPaced(Workload):
    """lenet b4/b8/b16 lanes behind the router, one worker each."""

    name = "fleet_paced"
    lane_batches = (4, 8, 16)
    max_wait = 0.004
    max_pending_rows = 512
    warmup_s = 0.5

    def make_fleet(self) -> ServingFleet:
        return ServingFleet(self.engines, workers=1,
                            max_pending_rows=self.max_pending_rows,
                            policy="greedy-fill", max_wait=self.max_wait)

    def setup(self, seed: int) -> None:
        self.seed = seed
        cfg = sim_config()
        self.engines = [Engine(zoo.lenet(batch=b), cfg)
                        for b in self.lane_batches]
        self.fleet = self.make_fleet().start()
        self.fleet.submit(size=1).result(timeout=RESULT_TIMEOUT_S)

    def close(self) -> None:
        self.fleet.stop()

    def offer(self, fleet: ServingFleet, rate: float, duration: float,
              tag: str = "") -> loadgen.RateResult:
        schedule = loadgen.poisson_schedule(
            f"{self.seed}{tag}", rate, duration)
        return loadgen.run_open_loop(
            lambda rows: fleet.submit(size=rows), RequestRejected,
            schedule, rate, duration, spec.FLEET_LIMIT_MS)

    # ------------------------------------------------------------- untraced
    def measure(self, seconds: float) -> Outcome:
        out = Outcome()
        fleet = self.fleet
        self.offer(fleet, spec.FLEET_REFERENCE_RATE, self.warmup_s, "warm")
        sim0, _ = device_totals(fleet)
        before = fleet.metrics.to_dict()["fleet"]["requests"]
        width = loadgen.WINDOW_S
        duration = max(seconds - self.warmup_s,
                       measure.MIN_WINDOWS * width)
        res = self.offer(fleet, spec.FLEET_REFERENCE_RATE, duration)
        out.metrics["host_rss_mib"] = measure.rss_mib()
        counts = [0] * int(duration / width)
        for offset, _ in res.latencies:
            if int(offset / width) < len(counts):
                counts[int(offset / width)] += 1
        per_window = {
            "ops_per_s": [c / width for c in counts],
            "latency_p50_ms": res.window_latency(50.0),
            "latency_p95_ms": res.window_latency(95.0),
        }
        for key, values in per_window.items():
            out.metrics[key] = stats.median(values)
            out.spread[key] = stats.median_uncertainty(values)
        sim1, peak = device_totals(fleet)
        after = fleet.metrics.to_dict()["fleet"]["requests"]
        out.metrics["sim_img_per_s"] = \
            (after["samples"] - before["samples"]) / (sim1 - sim0)
        out.metrics["peak_mib"] = peak / measure.MIB
        out.attempted = res.sent
        out.failed = res.failed + res.shed + res.backlog_at_end
        out.notes.append(res.describe())
        out.info.update(windows=len(counts), samples=len(res.latencies))
        resolved = sum(after[k] - before[k]
                       for k in ("completed", "failed", "shed"))
        out.check(resolved == res.sent,
                  "completed + failed + shed == offered")
        out.check(res.backlog_at_end == 0, "every future resolved")
        return out

    # --------------------------------------------------------------- traced
    def trace(self, seconds: float) -> Dict[str, float]:
        fleet = self.fleet
        self.offer(fleet, spec.FLEET_REFERENCE_RATE, self.warmup_s, "warm")
        phase = 0.3 * seconds
        reference = self.offer(fleet, spec.FLEET_REFERENCE_RATE, phase)
        # the sweep runs on a fleet of its own, so the counters read
        # below describe the reference rate and not the overload phase
        with self.make_fleet() as sweep_fleet:
            results = [self.offer(sweep_fleet, rate, phase)
                       for rate in spec.FLEET_SWEEP_RATES]
        results.append(reference)
        for r in results:
            print(f"# {r.describe()}")
        m = fleet.metrics.to_dict()
        rollup, engines = m["fleet"], m["engines"].values()
        routed = rollup["routed"]
        out = {f"serve.fleet.latency_p99_ms.r{r.rate:g}": r.latency(99.0)
               for r in results}
        out.update({
            "serve.fleet.goodput_rps": loadgen.goodput(results),
            "loadgen.late_ms_p99": reference.late_ms_p99,
            "serve.queue.shed": sum(r.shed for r in results),
            "serve.queue.wait_ms_p50": rollup["requests"]["queue_ms"]["p50"],
            "serve.queue.wait_ms_p99": rollup["requests"]["queue_ms"]["p99"],
            "serve.server.compute_ms_p50":
                rollup["requests"]["compute_ms"]["p50"],
            "serve.batcher.fill_ratio": rollup["fill_ratio"],
            "serve.batcher.padded_rows":
                sum(e["batches"]["padded_rows"] for e in engines),
            "serve.batcher.split_slices":
                sum(e["batches"]["split_slices"] for e in engines),
            "serve.batcher.batches":
                sum(e["batches"]["count"] for e in engines),
            "serve.router.small_lane_share":
                routed[f"lenet@b{self.lane_batches[0]}"]
                / sum(routed.values()),
            "serve.router.route_us": measure.micro_us(
                lambda: fleet.router.route(3), 2000),
        })
        # the ledger: a fresh fleet started inside the profiled block,
        # so its worker threads carry the profiler too
        with LedgerProfiler() as prof:
            with self.make_fleet() as traced_fleet:
                traced = self.offer(traced_fleet,
                                    spec.FLEET_SWEEP_RATES[0], phase)
        print(f"# traced {traced.describe()}")
        out.update(ledger_rows(
            prof, traced.sent, self.name,
            traced.latency(50.0) / results[0].latency(50.0)))
        export_trace(self.name, self.make_fleet, lambda f: self.offer(
            f, spec.FLEET_REFERENCE_RATE, 0.25, "trace"))
        return out
