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
SLO report reads per-class p50/p95/p99.  One :class:`_Tally` holds all
of it at every level — a worker's shard, a server's totals, the fleet's
fold of its lanes — so every report is one builder over merged samples.
"""

from __future__ import annotations

from collections import deque
from time import monotonic
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.check import instrument as _ins
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
    p50, p95, p99 = np.percentile(arr, (50, 95, 99))
    return {"mean": float(arr.mean()), "p50": float(p50),
            "p95": float(p95), "p99": float(p99), "max": float(arr.max())}


class _Tally:
    """Request/batch/shed counters plus latency windows: a shard's
    share not yet folded, a server's totals, a fleet's rollup.
    ``window`` bounds each latency distribution; the fleet rollup passes
    ``None`` because it holds every lane's (bounded) samples at once."""

    COUNTERS = ("completed", "failed", "samples", "batches", "rows",
                "padded_rows", "split_slices", "shed", "shed_samples")

    def __init__(self, window: Optional[int] = LATENCY_WINDOW) -> None:
        for name in self.COUNTERS:
            setattr(self, name, 0)
        self.compute_seconds = 0.0
        # per priority class: completed/failed/shed counts + latencies
        self.class_completed: Dict[str, int] = dict.fromkeys(PRIORITIES, 0)
        self.class_failed: Dict[str, int] = dict.fromkeys(PRIORITIES, 0)
        self.class_shed: Dict[str, int] = dict.fromkeys(PRIORITIES, 0)
        self.latency: Dict[str, deque] = {
            k: deque(maxlen=window)
            for k in ("total", "queue", "compute", "failed")}
        self.class_latency: Dict[str, deque] = {
            c: deque(maxlen=window) for c in PRIORITIES}

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

    def add_shed(self, samples: int, priority: str) -> None:
        """A request of ``samples`` rows was rejected at admission (its
        priority was validated before admission was asked)."""
        self.shed += 1
        self.shed_samples += samples
        self.class_shed[priority] += 1

    def absorb(self, other: "_Tally") -> None:
        """Add everything ``other`` holds to this tally (``other`` is
        left as it was: a caller that *moves* drops it afterwards)."""
        for name in self.COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.compute_seconds += other.compute_seconds
        for mine, theirs in ((self.class_completed, other.class_completed),
                             (self.class_failed, other.class_failed),
                             (self.class_shed, other.class_shed)):
            for c in PRIORITIES:
                mine[c] += theirs[c]
        for mine, theirs in ((self.latency, other.latency),
                             (self.class_latency, other.class_latency)):
            for key, window in theirs.items():
                mine[key].extend(window)

    def report(self) -> dict:
        """The ``requests``/``classes``/``batches`` blocks of every
        serving report — a server's and the fleet's alike."""
        offered = self.completed + self.failed + self.shed
        return {
            "requests": {
                "completed": self.completed,
                "failed": self.failed,
                "shed": self.shed,
                "samples": self.samples,
                "shed_samples": self.shed_samples,
                "shed_rate": self.shed / offered if offered else 0.0,
                "latency_ms": _stats_ms(self.latency["total"]),
                "queue_ms": _stats_ms(self.latency["queue"]),
                "compute_ms": _stats_ms(self.latency["compute"]),
                "failed_ms": _stats_ms(self.latency["failed"]),
            },
            "classes": {
                c: {
                    "completed": self.class_completed[c],
                    "failed": self.class_failed[c],
                    "shed": self.class_shed[c],
                    "latency_ms": _stats_ms(self.class_latency[c]),
                }
                for c in PRIORITIES
            },
            "batches": {
                "count": self.batches,
                "rows": self.rows,
                "padded_rows": self.padded_rows,
                "fill_ratio": self.fill_ratio,
                "split_slices": self.split_slices,
                "compute_seconds": self.compute_seconds,
            },
        }


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
            if _ins.ACTIVE is not None:
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
            if _ins.ACTIVE is not None:
                trace_write(self, "serve.metrics.counters")
            self._total.add_failure(req)

    def record_shed(self, samples: int, priority: str = "normal") -> None:
        """A request of ``samples`` rows was rejected at admission."""
        with self._lock:
            if _ins.ACTIVE is not None:
                trace_write(self, "serve.metrics.counters")
            self._total.add_shed(samples, priority)

    def note_swap(self, version: int) -> None:
        with self._lock:
            if _ins.ACTIVE is not None:
                trace_write(self, "serve.metrics.counters")
            self.swaps += 1
            self.weights_version = version

    # -- export -----------------------------------------------------------
    def _folded(self) -> _Tally:
        """The totals with every shard folded in (caller holds
        ``_lock``; each shard's lock nests inside it)."""
        if _ins.ACTIVE is not None:
            trace_write(self, "serve.metrics.counters")
        total = self._total
        for shard in self._shards:
            with shard._lock:
                if _ins.ACTIVE is not None:
                    trace_write(shard, "serve.metrics.shard")
                total.absorb(shard._tally)
                shard._tally = _Tally()
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
            if _ins.ACTIVE is not None:
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
            return t.completed, t.failed, t.shed

    def latency_snapshot(self) -> Dict[str, list]:
        """Copies of the raw latency windows (seconds), for a reader
        that computes its own statistics over the samples."""
        with self._lock:
            t = self._folded()
            snap = {k: list(d) for k, d in t.latency.items()}
            snap["classes"] = {c: list(d)
                               for c, d in t.class_latency.items()}
            return snap

    def _report(self) -> dict:
        """``to_dict`` for a caller that holds ``_lock``."""
        t = self._folded()
        elapsed = self._elapsed_unlocked()
        return {
            **t.report(),
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

    def to_dict(self) -> dict:
        """JSON-serializable summary (the ``IterationResult.to_dict``
        contract: one flat dict the CLI/benchmarks print or gate on)."""
        with self._lock:
            return self._report()


def render_slo_report(m: dict) -> str:
    """Render one SLO report from a metrics dict — the single text
    view of serving health, shared by ``cli serve`` (both the
    single-server and ``--fleet`` branches) and the
    :class:`~repro.obs.metrics.MetricsRegistry` probe renderer.

    Accepts either shape: :meth:`ServerMetrics.to_dict` or
    :meth:`FleetMetrics.to_dict` (whose ``fleet`` block holds the same
    ``requests``/``classes``/``batches`` a server reports, so the
    header is one code path) — detected by the ``"fleet"`` key, so
    callers never branch on which level they hold.
    """
    top = m.get("fleet", m)
    req, bat = top["requests"], top["batches"]
    offered = req["completed"] + req["failed"] + req["shed"]
    lines = [
        f"requests     : {req['completed']} completed, "
        f"{req['failed']} failed, {req['shed']} shed "
        f"(rate {req['shed_rate']:.1%}) — offered {offered}, "
        f"{req['samples']} samples",
        f"latency      : p50 {req['latency_ms']['p50']:.2f} ms, "
        f"p95 {req['latency_ms']['p95']:.2f} ms, "
        f"p99 {req['latency_ms']['p99']:.2f} ms, "
        f"max {req['latency_ms']['max']:.2f} ms "
        f"(queue p95 {req['queue_ms']['p95']:.2f} ms)"]
    for cls, c in top["classes"].items():
        if c["completed"] or c["failed"] or c["shed"]:
            lines.append(
                f"  {cls:<10} : {c['completed']} done, "
                f"p95 {c['latency_ms']['p95']:.2f} ms, "
                f"p99 {c['latency_ms']['p99']:.2f} ms, "
                f"{c['shed']} shed")
    lines.append(
        f"batches      : {bat['count']} steps, fill "
        f"{bat['fill_ratio']:.1%}{'' if top is m else ' fleet-wide'}, "
        f"{bat['padded_rows']} padded rows, "
        f"{bat['split_slices']} split slices")
    if top is m:
        thr = m["throughput"]
        lines.append(
            f"throughput   : {thr['requests_per_second']:.1f} req/s, "
            f"{thr['samples_per_second']:.1f} samples/s over "
            f"{thr['elapsed_seconds']:.2f}s")
        if m["swaps"]["count"]:
            lines.append(
                f"weight swaps : {m['swaps']['count']} "
                f"(now v{m['swaps']['weights_version']})")
    else:
        for lane, eng in m["engines"].items():
            er, eb = eng["requests"], eng["batches"]
            lines.append(
                f"  {lane:<12} : {top['routed'][lane]} routed, "
                f"{er['completed']} done, "
                f"fill {eb['fill_ratio']:.1%}, "
                f"p95 {er['latency_ms']['p95']:.2f} ms")
    return "\n".join(lines)


class FleetMetrics:
    """Fleet-wide SLO rollup over N per-engine :class:`ServerMetrics`.

    The fleet owns only routing counters and its own sheds (every lane
    refused); every other number lives in the lane the request ran on.
    ``to_dict`` reads each lane once — its report and its totals under
    one hold of the lane's lock — and folds the totals into a fresh
    :class:`_Tally`, so the fleet blocks are the server's builder over
    merged samples (averaging per-engine percentiles would be wrong).
    The lanes are read *outside* the fleet lock, so the two levels
    never nest.
    """

    def __init__(self, engines: Dict[str, ServerMetrics]):
        self._engines = dict(engines)
        self._lock = TracedLock("serve.fleet.metrics")
        self.routed: Dict[str, int] = {n: 0 for n in self._engines}
        self._sheds = _Tally()      # only its shed counters ever move

    # -- recording --------------------------------------------------------
    def record_routed(self, name: str) -> None:
        with self._lock:
            if _ins.ACTIVE is not None:
                trace_write(self, "serve.fleet.counters")
            self.routed[name] += 1

    def record_shed(self, samples: int, priority: str = "normal") -> None:
        """Every lane rejected this request: a fleet-level shed."""
        with self._lock:
            if _ins.ACTIVE is not None:
                trace_write(self, "serve.fleet.counters")
            self._sheds.add_shed(samples, priority)

    # -- export -----------------------------------------------------------
    def counts(self) -> tuple:
        """Fleet ``(completed, failed, shed)``: lane sums + fleet sheds
        (a fleet shed means *no* lane ever admitted the request)."""
        completed = failed = shed = 0
        for m in self._engines.values():
            c, f, s = m.counts()
            completed, failed, shed = completed + c, failed + f, shed + s
        with self._lock:
            if _ins.ACTIVE is not None:
                trace_read(self, "serve.fleet.counters")
            return completed, failed, shed + self._sheds.shed

    def to_dict(self) -> dict:
        total = _Tally(window=None)
        engines = {}
        for name, m in self._engines.items():
            with m._lock:   # one read: the lane's counts and its windows
                engines[name] = m._report()
                total.absorb(m._total)
        with self._lock:
            if _ins.ACTIVE is not None:
                trace_read(self, "serve.fleet.counters")
            total.absorb(self._sheds)
            routed = dict(self.routed)
        return {
            "engines": engines,
            "fleet": {**total.report(), "routed": routed,
                      "fill_ratio": total.fill_ratio},
        }
