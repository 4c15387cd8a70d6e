"""Serving metrics: latency, fill, padding waste, throughput, SLOs.

Each worker thread records into a private shard, once per batch; every
reader folds the shards into the totals under the one ``serve.metrics``
lock and exports via ``to_dict`` exactly like
:class:`~repro.core.runtime.IterationResult` — the CLI, the benchmark
gate and the tests all read the same dict.

Latency decomposes the way the request actually spends it:

* **queue** — enqueue until the request's first slice starts computing
  (what the batcher's ``max_wait`` bounds for a lone request);
* **compute** — first slice start until the last slice's outputs are
  delivered (for a split request this spans several engine steps).

Failed requests get their own ``failed_ms`` distribution (enqueue →
fail) — they never pollute the success percentiles, and an error storm
cannot silently *flatter* p95 by vanishing from every window either.
Each request's latency is also bucketed by its priority class, so the
SLO report reads per-class p50/p95/p99.  :class:`FleetMetrics` rolls N
per-engine :class:`ServerMetrics` up into one fleet-wide report
(routing counts, shed rate, merged percentiles).
"""

from __future__ import annotations

from collections import deque
from time import monotonic
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.check.instrument import TracedLock, trace_read, trace_write
from repro.serve.batcher import AssembledBatch
from repro.serve.queue import PRIORITIES, InferenceRequest

#: latency samples kept per distribution — a rolling window, so a
#: server left up for days holds O(1) memory and the percentiles
#: describe *recent* traffic (the counters stay lifetime-exact)
LATENCY_WINDOW = 65536


def _stats_ms(samples) -> Dict[str, float]:
    if not samples:
        return {"mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
                "max": 0.0}
    arr = np.asarray(samples) * 1e3
    return {
        "mean": float(arr.mean()),
        "p50": float(np.percentile(arr, 50)),
        "p95": float(np.percentile(arr, 95)),
        "p99": float(np.percentile(arr, 99)),
        "max": float(arr.max()),
    }


class _Tally:
    """Request/batch counters plus latency windows: a server's totals,
    and each shard's share of them not yet folded in."""

    COUNTERS = ("completed", "failed", "samples", "batches", "rows",
                "padded_rows", "split_slices")

    def __init__(self) -> None:
        for name in self.COUNTERS:
            setattr(self, name, 0)
        self.compute_seconds = 0.0
        # per priority class: completed/failed counts + latencies
        self.class_completed: Dict[str, int] = dict.fromkeys(PRIORITIES, 0)
        self.class_failed: Dict[str, int] = dict.fromkeys(PRIORITIES, 0)
        self.latency: Dict[str, deque] = {
            k: deque(maxlen=LATENCY_WINDOW)
            for k in ("total", "queue", "compute", "failed")}
        self.class_latency: Dict[str, deque] = {
            c: deque(maxlen=LATENCY_WINDOW) for c in PRIORITIES}

    @property
    def fill_ratio(self) -> float:
        total = self.rows + self.padded_rows
        return self.rows / total if total else 0.0

    def add_step(self, batch: Optional[AssembledBatch], seconds: float,
                 completed: Sequence[InferenceRequest]) -> None:
        if batch is not None:
            self.batches += 1
            self.rows += batch.fill
            self.padded_rows += batch.padding
            self.split_slices += sum(
                1 for s in batch.slices if s.rows != s.request.size)
            self.compute_seconds += seconds
        latency = self.latency
        for req in completed:
            self.completed += 1
            self.samples += req.size
            self.class_completed[req.priority] += 1
            if req.dispatch_time is not None:
                latency["queue"].append(
                    req.dispatch_time - req.enqueue_time)
                if req.complete_time is not None:
                    latency["compute"].append(
                        req.complete_time - req.dispatch_time)
            if req.complete_time is not None:
                total = req.complete_time - req.enqueue_time
                latency["total"].append(total)
                self.class_latency[req.priority].append(total)

    def add_failure(self, req: InferenceRequest) -> None:
        self.failed += 1
        self.class_failed[req.priority] += 1
        if req.complete_time is not None:
            self.latency["failed"].append(
                req.complete_time - req.enqueue_time)

    def absorb(self, other: "_Tally") -> None:
        """Move everything ``other`` holds into this tally."""
        for name in self.COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
            setattr(other, name, 0)
        self.compute_seconds += other.compute_seconds
        other.compute_seconds = 0.0
        for mine, theirs in ((self.class_completed, other.class_completed),
                             (self.class_failed, other.class_failed)):
            for c in PRIORITIES:
                mine[c] += theirs[c]
                theirs[c] = 0
        for mine, theirs in ((self.latency, other.latency),
                             (self.class_latency, other.class_latency)):
            for key, window in theirs.items():
                mine[key].extend(window)
                window.clear()


class MetricsShard:
    """One worker's private share of a :class:`ServerMetrics`.

    The worker writes it once per batch under a lock nobody else
    contends for on that path; readers of the owning metrics move what
    it holds into the totals (lock order metrics -> shard).  The shard
    holds only what no reader has folded yet, so the 65,536-sample
    windows exist once, in the totals.
    """

    def __init__(self) -> None:
        self._lock = TracedLock("serve.metrics.shard")
        self._tally = _Tally()

    def record_step(self, batch: Optional[AssembledBatch], seconds: float,
                    completed: Sequence[InferenceRequest],
                    failed: Sequence[InferenceRequest] = ()) -> None:
        """One engine step and the requests it resolved: ``completed``
        are the ones its deliveries finished, ``failed`` the ones it
        failed.  ``batch`` is ``None`` for a step that raised — what it
        resolved still counts, exactly once; the step itself does not.
        """
        with self._lock:
            trace_write(self, "serve.metrics.shard")
            self._tally.add_step(batch, seconds, completed)
            for req in failed:
                self._tally.add_failure(req)


class ServerMetrics:
    """Thread-safe serving counters + distributions.

    Workers record into private :class:`MetricsShard` s (:meth:`shard`);
    everything off the worker path (sheds, swaps, the failures ``stop``
    hands out) records straight into the totals under ``serve.metrics``.
    Every reader folds the shards in first, so what it reads is what one
    shared lock would have collected.
    """

    def __init__(self, clock: Callable[[], float] = monotonic):
        self.clock = clock
        self._lock = TracedLock("serve.metrics")
        self._started_at: Optional[float] = None
        self._stopped_at: Optional[float] = None
        self._total = _Tally()
        self._shards: List[MetricsShard] = []
        # admission sheds: never on a worker's path
        self.shed = 0
        self.shed_samples = 0
        self._class_shed: Dict[str, int] = dict.fromkeys(PRIORITIES, 0)
        # weight swaps
        self.swaps = 0
        self.weights_version = 0

    # -- recording --------------------------------------------------------
    def note_start(self) -> None:
        with self._lock:
            self._started_at = self.clock()

    def note_stop(self) -> None:
        with self._lock:
            self._stopped_at = self.clock()

    def shard(self) -> MetricsShard:
        """A new private shard for one worker thread."""
        shard = MetricsShard()
        with self._lock:
            self._shards.append(shard)
        return shard

    def record_failure(self, req: InferenceRequest) -> None:
        with self._lock:
            trace_write(self, "serve.metrics.counters")
            self._total.add_failure(req)

    def record_shed(self, samples: int, priority: str = "normal") -> None:
        """A request of ``samples`` rows was rejected at admission."""
        with self._lock:
            trace_write(self, "serve.metrics.counters")
            self.shed += 1
            self.shed_samples += samples
            if priority in self._class_shed:
                self._class_shed[priority] += 1

    def note_swap(self, version: int) -> None:
        with self._lock:
            trace_write(self, "serve.metrics.counters")
            self.swaps += 1
            self.weights_version = version

    # -- export -----------------------------------------------------------
    def _folded(self) -> _Tally:
        """The totals with every shard folded in (caller holds
        ``_lock``; each shard's lock nests inside it)."""
        trace_write(self, "serve.metrics.counters")
        total = self._total
        for shard in self._shards:
            with shard._lock:
                trace_write(shard, "serve.metrics.shard")
                total.absorb(shard._tally)
        return total

    def _elapsed_unlocked(self) -> float:
        if self._started_at is None:
            return 0.0
        end = self._stopped_at if self._stopped_at is not None \
            else self.clock()
        return max(end - self._started_at, 0.0)

    @property
    def elapsed(self) -> float:
        # under _lock: a monitor thread must never see a half-written
        # start/stop pair mid-note (and the race checker must see the
        # read).  TracedLock is not reentrant, so to_dict — which
        # already holds the lock — uses the _unlocked internals.
        with self._lock:
            trace_read(self, "serve.metrics.counters")
            return self._elapsed_unlocked()

    @property
    def fill_ratio(self) -> float:
        with self._lock:
            return self._folded().fill_ratio

    def counts(self) -> tuple:
        """One consistent ``(completed, failed, shed)`` snapshot."""
        with self._lock:
            t = self._folded()
            return t.completed, t.failed, self.shed

    def latency_snapshot(self) -> Dict[str, list]:
        """Copies of the raw latency windows (seconds) — what
        :class:`FleetMetrics` merges across engines so fleet-wide
        percentiles come from samples, not averaged percentiles."""
        with self._lock:
            t = self._folded()
            snap = {k: list(d) for k, d in t.latency.items()}
            snap["classes"] = {c: list(d)
                               for c, d in t.class_latency.items()}
            return snap

    def to_dict(self) -> dict:
        """JSON-serializable summary (the ``IterationResult.to_dict``
        contract: one flat dict the CLI/benchmarks print or gate on)."""
        with self._lock:
            t = self._folded()
            elapsed = self._elapsed_unlocked()
            offered = t.completed + t.failed + self.shed
            return {
                "requests": {
                    "completed": t.completed,
                    "failed": t.failed,
                    "shed": self.shed,
                    "samples": t.samples,
                    "shed_samples": self.shed_samples,
                    "shed_rate":
                        self.shed / offered if offered else 0.0,
                    "latency_ms": _stats_ms(t.latency["total"]),
                    "queue_ms": _stats_ms(t.latency["queue"]),
                    "compute_ms": _stats_ms(t.latency["compute"]),
                    "failed_ms": _stats_ms(t.latency["failed"]),
                },
                "classes": {
                    c: {
                        "completed": t.class_completed[c],
                        "failed": t.class_failed[c],
                        "shed": self._class_shed[c],
                        "latency_ms": _stats_ms(t.class_latency[c]),
                    }
                    for c in PRIORITIES
                },
                "batches": {
                    "count": t.batches,
                    "rows": t.rows,
                    "padded_rows": t.padded_rows,
                    "fill_ratio": t.fill_ratio,
                    "split_slices": t.split_slices,
                    "compute_seconds": t.compute_seconds,
                },
                "throughput": {
                    "elapsed_seconds": elapsed,
                    "requests_per_second":
                        t.completed / elapsed if elapsed else 0.0,
                    "samples_per_second":
                        t.samples / elapsed if elapsed else 0.0,
                },
                "swaps": {
                    "count": self.swaps,
                    "weights_version": self.weights_version,
                },
            }


def _render_classes(classes: Dict[str, dict]) -> List[str]:
    lines = []
    for cls, c in classes.items():
        if c["completed"] or c["failed"] or c["shed"]:
            lines.append(
                f"  {cls:<10} : {c['completed']} done, "
                f"p95 {c['latency_ms']['p95']:.2f} ms, "
                f"p99 {c['latency_ms']['p99']:.2f} ms, "
                f"{c['shed']} shed")
    return lines


def render_slo_report(m: dict) -> str:
    """Render one SLO report from a metrics dict — the single text
    view of serving health, shared by ``cli serve`` (both the
    single-server and ``--fleet`` branches) and the
    :class:`~repro.obs.metrics.MetricsRegistry` probe renderer.

    Accepts either shape: :meth:`ServerMetrics.to_dict` (keys
    ``requests``/``batches``/``throughput``) or
    :meth:`FleetMetrics.to_dict` (key ``fleet`` plus per-engine
    sub-dicts) — detected by the ``"fleet"`` key, so callers never
    branch on which level they hold.
    """
    lines: List[str] = []
    if "fleet" in m:
        fl = m["fleet"]
        req = fl["requests"]
        offered = req["completed"] + req["failed"] + req["shed"]
        lines.append(
            f"requests     : {req['completed']} completed, "
            f"{req['failed']} failed, {req['shed']} shed "
            f"(rate {req['shed_rate']:.1%}) — offered {offered}")
        lines.append(
            f"latency      : p50 {req['latency_ms']['p50']:.2f} ms, "
            f"p95 {req['latency_ms']['p95']:.2f} ms, "
            f"p99 {req['latency_ms']['p99']:.2f} ms")
        lines.extend(_render_classes(fl["classes"]))
        lines.append(f"fill         : {fl['fill_ratio']:.1%} fleet-wide")
        for lane, eng in m["engines"].items():
            er, eb = eng["requests"], eng["batches"]
            lines.append(
                f"  {lane:<12} : {fl['routed'][lane]} routed, "
                f"{er['completed']} done, "
                f"fill {eb['fill_ratio']:.1%}, "
                f"p95 {er['latency_ms']['p95']:.2f} ms")
    else:
        req, bat = m["requests"], m["batches"]
        thr = m["throughput"]
        lines.append(
            f"requests     : {req['completed']} completed, "
            f"{req['failed']} failed, {req['samples']} samples"
            + (f", {req['shed']} shed" if req["shed"] else ""))
        lines.append(
            f"latency      : p50 {req['latency_ms']['p50']:.2f} ms, "
            f"p95 {req['latency_ms']['p95']:.2f} ms, "
            f"max {req['latency_ms']['max']:.2f} ms "
            f"(queue p95 {req['queue_ms']['p95']:.2f} ms)")
        lines.extend(_render_classes(m["classes"]))
        lines.append(
            f"batches      : {bat['count']} steps, fill "
            f"{bat['fill_ratio']:.1%}, {bat['padded_rows']} padded "
            f"rows, {bat['split_slices']} split slices")
        lines.append(
            f"throughput   : {thr['requests_per_second']:.1f} req/s, "
            f"{thr['samples_per_second']:.1f} samples/s over "
            f"{thr['elapsed_seconds']:.2f}s")
        if m["swaps"]["count"]:
            lines.append(
                f"weight swaps : {m['swaps']['count']} "
                f"(now v{m['swaps']['weights_version']})")
    return "\n".join(lines)


class FleetMetrics:
    """Fleet-wide SLO rollup over N per-engine :class:`ServerMetrics`.

    The fleet owns only routing and shed counters; every per-request
    number lives in the engine the request ran on.  ``to_dict`` merges
    the engines' raw latency windows (via ``latency_snapshot``) so the
    fleet percentiles are computed over samples — averaging per-engine
    percentiles would be wrong.  Lock order is fleet → engine, and the
    engine snapshots are taken *outside* the fleet lock, so the two
    levels never nest.
    """

    def __init__(self, engines: Dict[str, ServerMetrics]):
        self._engines = dict(engines)
        self._lock = TracedLock("serve.fleet.metrics")
        self.routed: Dict[str, int] = {n: 0 for n in self._engines}
        self.shed = 0
        self.shed_samples = 0
        self._class_shed: Dict[str, int] = {c: 0 for c in PRIORITIES}

    def engine(self, name: str) -> ServerMetrics:
        return self._engines[name]

    # -- recording --------------------------------------------------------
    def record_routed(self, name: str) -> None:
        with self._lock:
            trace_write(self, "serve.fleet.counters")
            self.routed[name] += 1

    def record_shed(self, samples: int, priority: str = "normal") -> None:
        """Every lane rejected this request: a fleet-level shed."""
        with self._lock:
            trace_write(self, "serve.fleet.counters")
            self.shed += 1
            self.shed_samples += samples
            if priority in self._class_shed:
                self._class_shed[priority] += 1

    # -- export -----------------------------------------------------------
    def counts(self) -> tuple:
        """Fleet ``(completed, failed, shed)``: engine sums + fleet
        sheds (a fleet shed means *no* engine ever saw the request)."""
        completed = failed = 0
        for m in self._engines.values():
            c, f, _ = m.counts()
            completed += c
            failed += f
        with self._lock:
            trace_read(self, "serve.fleet.counters")
            return completed, failed, self.shed

    def to_dict(self) -> dict:
        engines = {n: m.to_dict() for n, m in self._engines.items()}
        snaps = [m.latency_snapshot() for m in self._engines.values()]
        with self._lock:
            trace_read(self, "serve.fleet.counters")
            routed = dict(self.routed)
            shed = self.shed
            shed_samples = self.shed_samples
            class_shed = dict(self._class_shed)
        completed = sum(e["requests"]["completed"]
                        for e in engines.values())
        failed = sum(e["requests"]["failed"] for e in engines.values())
        samples = sum(e["requests"]["samples"]
                      for e in engines.values())
        rows = sum(e["batches"]["rows"] for e in engines.values())
        padded = sum(e["batches"]["padded_rows"]
                     for e in engines.values())
        offered = completed + failed + shed
        merged = {k: [x for s in snaps for x in s[k]]
                  for k in ("total", "queue", "compute", "failed")}
        classes = {}
        for c in PRIORITIES:
            classes[c] = {
                "completed": sum(e["classes"][c]["completed"]
                                 for e in engines.values()),
                "failed": sum(e["classes"][c]["failed"]
                              for e in engines.values()),
                "shed": class_shed[c],
                "latency_ms": _stats_ms(
                    [x for s in snaps for x in s["classes"][c]]),
            }
        return {
            "engines": engines,
            "fleet": {
                "requests": {
                    "completed": completed,
                    "failed": failed,
                    "shed": shed,
                    "samples": samples,
                    "shed_samples": shed_samples,
                    "shed_rate": shed / offered if offered else 0.0,
                    "latency_ms": _stats_ms(merged["total"]),
                    "queue_ms": _stats_ms(merged["queue"]),
                    "compute_ms": _stats_ms(merged["compute"]),
                    "failed_ms": _stats_ms(merged["failed"]),
                },
                "classes": classes,
                "routed": routed,
                "fill_ratio":
                    rows / (rows + padded) if rows + padded else 0.0,
            },
        }
