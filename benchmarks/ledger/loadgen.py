"""Seeded request traces and the open-loop driver for ``fleet_paced``.

Independent users do not wait for one another, so the paced workload is
an *open loop*: one submitter thread sends on a seeded Poisson schedule
whatever the fleet's state, one collector thread stamps completions.
Latency runs from the instant a request was **due**, not from when the
generator got round to sending it — a stall therefore counts against
every request it delayed — and how late the generator itself ran is
reported next to the latencies (a rate whose generator lateness is a
large share of the limit says nothing about the fleet).
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

from . import stats

#: the size mix of the paced trace (the PERF006 regime bench_fleet uses)
SMALL_SHARE = 0.85
SMALL_SIZES = (1, 6)
LARGE_SIZE = 16

#: the collector blocks on the oldest outstanding future at most this
#: long before it sweeps the rest, which bounds the stamping error of a
#: request that completed out of order
COLLECT_SLICE_S = 0.0005

#: a rate is *invalid* (neither passed nor failed) when the generator's
#: own p99 lateness exceeds this share of the latency limit
LATE_SHARE_LIMIT = 0.20


def poisson_schedule(seed: int, rate: float, duration: float
                     ) -> List[Tuple[float, int]]:
    """``(due offset in seconds, rows)`` per request: exponential gaps
    at ``rate`` req/s for ``duration`` seconds, 85% sizes 1-6 and 15%
    size 16.  A pure function of its arguments."""
    rng = random.Random(f"paced:{seed}:{rate}:{duration}")
    out, t = [], 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= duration:
            return out
        if rng.random() < SMALL_SHARE:
            size = rng.randint(*SMALL_SIZES)
        else:
            size = LARGE_SIZE
        out.append((t, size))


def backlog_sizes(seed: int, window: int, count: int,
                  lo: int = 1, hi: int = 4) -> List[int]:
    """Request sizes of one closed-backlog window (pure in its
    arguments; each window of a run gets its own draw)."""
    rng = random.Random(f"backlog:{seed}:{window}")
    return [rng.randint(lo, hi) for _ in range(count)]


#: width of the windows a rate's percentiles are taken over; the
#: reported figure is the median window, which one machine stall
#: cannot move
WINDOW_S = 0.5


def windowed(samples: Sequence[Tuple[float, float]], p: float,
             width: float, duration: float) -> List[float]:
    """Percentile ``p`` of each full ``width``-second window of
    ``(due offset, value)`` samples."""
    bins: List[List[float]] = [[] for _ in range(int(duration / width))]
    for offset, value in samples:
        index = int(offset / width)
        if index < len(bins):
            bins[index].append(value)
    return [stats.percentile(b, p) for b in bins if b]


@dataclass
class RateResult:
    """What one open-loop phase at one offered rate observed."""

    rate: float
    limit_ms: float
    duration: float
    sent: int = 0
    succeeded: int = 0
    failed: int = 0
    shed: int = 0
    backlog_at_end: int = 0
    #: (due offset s, ms from due time to completion) per success
    latencies: List[Tuple[float, float]] = field(default_factory=list)
    #: (due offset s, ms the generator sent it late) per request
    late: List[Tuple[float, float]] = field(default_factory=list)

    def window_latency(self, p: float) -> List[float]:
        return windowed(self.latencies, p, WINDOW_S, self.duration)

    def latency(self, p: float) -> float:
        """Median over windows of the windows' ``p``-th percentile."""
        per_window = self.window_latency(p)
        return stats.median(per_window) if per_window else 0.0

    def pooled_latency(self, p: float) -> float:
        return stats.percentile([v for _, v in self.latencies], p) \
            if self.latencies else 0.0

    @property
    def late_ms_p99(self) -> float:
        per_window = windowed(self.late, 99.0, WINDOW_S, self.duration)
        return stats.median(per_window) if per_window else 0.0

    @property
    def verdict(self) -> str:
        """``pass`` / ``fail`` / ``invalid`` against the p99 limit.

        A rate whose generator ran late by more than
        :data:`LATE_SHARE_LIMIT` of the limit measured the generator,
        not the fleet: it neither passes nor fails.  Failed and shed
        requests miss the limit by definition, so more than 1% of them
        fails the rate whatever the latencies of the rest; so does a
        backlog left at the end (the rate is not sustained)."""
        if self.late_ms_p99 > LATE_SHARE_LIMIT * self.limit_ms:
            return "invalid"
        if self.backlog_at_end \
                or self.failed + self.shed > 0.01 * self.sent \
                or self.latency(99.0) > self.limit_ms:
            return "fail"
        return "pass"

    def describe(self) -> str:
        # pooled: the highest percentile the sample count supports
        tail = stats.supported_tail(len(self.latencies))
        return (f"rate {self.rate:g}/s: sent {self.sent} succeeded "
                f"{self.succeeded} failed {self.failed} shed {self.shed} "
                f"backlog {self.backlog_at_end}; p50 "
                f"{self.latency(50):.3f} ms p99 {self.latency(99):.3f} ms "
                f"(median {WINDOW_S:g} s window; pooled p{tail:g} "
                f"{self.pooled_latency(tail):.3f} ms over "
                f"{len(self.latencies)} samples); generator late p99 "
                f"{self.late_ms_p99:.3f} ms -> {self.verdict}")


def goodput(results: Sequence[RateResult]) -> float:
    """Highest offered rate that passed (0 when none did)."""
    return max((r.rate for r in results if r.verdict == "pass"),
               default=0.0)


def run_open_loop(submit: Callable[[int], object], rejected: type,
                  schedule: Sequence[Tuple[float, int]], rate: float,
                  duration: float, limit_ms: float,
                  drain_s: float = 2.0) -> RateResult:
    """Drive ``schedule`` against ``submit(rows) -> future``.

    ``rejected`` is the exception type an admission shed raises.  The
    collector blocks on the oldest outstanding future for at most
    :data:`COLLECT_SLICE_S`, then sweeps ``done()`` over everything
    outstanding so a request that finished out of order is stamped
    within that slice instead of when the oldest finally lands.
    Whatever is still outstanding ``drain_s`` after the last due time
    is the backlog.
    """
    res = RateResult(rate=rate, limit_ms=limit_ms, duration=duration)
    outstanding: deque = deque()      # (due, future); submitter appends
    sending = threading.Event()
    sending.set()
    clock = time.perf_counter
    t0 = clock() + 0.01               # both threads are up before t=0

    def settle(due: float, fut, now: float) -> None:
        try:
            fut.result(timeout=0)
        except Exception:
            res.failed += 1
        else:
            res.succeeded += 1
            res.latencies.append((due - t0, (now - due) * 1e3))

    def collect() -> None:
        deadline = None
        while True:
            if not outstanding:
                if not sending.is_set():
                    return
                time.sleep(COLLECT_SLICE_S)
                continue
            if deadline is None and not sending.is_set():
                deadline = clock() + drain_s
            if deadline is not None and clock() > deadline:
                res.backlog_at_end = len(outstanding)
                return
            due, oldest = outstanding[0]
            try:
                oldest.result(timeout=COLLECT_SLICE_S)
            except TimeoutError:
                pass
            except Exception:
                pass                  # settled (as failed) below
            now = clock()
            # only the collector removes, so a snapshot walk is safe
            # against the submitter's concurrent appends
            for item in list(outstanding):
                if item[1].done():
                    outstanding.remove(item)
                    settle(item[0], item[1], now)

    collector = threading.Thread(target=collect, name="ledger-collector")
    collector.start()
    try:
        for offset, rows in schedule:
            due = t0 + offset
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            sent_at = clock()
            res.late.append((offset, max(0.0, sent_at - due) * 1e3))
            res.sent += 1
            try:
                fut = submit(rows)
            except rejected:
                res.shed += 1
                continue
            outstanding.append((due, fut))
    finally:
        sending.clear()
        collector.join()
    return res
