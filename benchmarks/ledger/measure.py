"""Timing discipline shared by every workload.

Single 150-iteration windows wander by ~10% on a small container while
a median over seven or more repeats within a few percent, so every
host-time figure here is a **median over timed windows after a
discarded warm-up window** — never a minimum, never one long average
that a single stall can drag.

That handles a stall.  It does not handle a slow *minute*: this VM
runs whole runs 20-35% slow now and then, every process on it alike.
So each window is bracketed by one pass of the machine calibrator's
fixed Python loop, and the window's times are divided by how much
slower than the reference speed those two passes say the machine was
running — the ROADMAP's machine-speed normaliser.  A change in the
program moves the normalised figure exactly as it moves the raw one
(the loop is not program code); a slow minute moves only the raw one.
The raw medians are reported beside the normalised ones.
"""

from __future__ import annotations

import resource
import time
from typing import Callable, Dict, List, Optional, Sequence

from . import machine, stats

#: fewest timed windows a run reports from, however short ``--seconds``
MIN_WINDOWS = 3

MIB = float(1 << 20)


class Windows:
    """Accumulates timed windows of per-operation latencies."""

    def __init__(self) -> None:
        self.rates: List[float] = []
        self.raw_rates: List[float] = []
        self.p50_ms: List[float] = []
        self.p95_ms: List[float] = []
        #: every operation's normalised latency (seconds), all windows
        self.pooled: List[float] = []

    def add(self, latencies_s: Sequence[float],
            seconds: Optional[float] = None,
            slowdown: float = 1.0) -> None:
        """One window: its operations' latencies, the wall time they
        took together (default: their sum — operations run back to
        back on one thread) and how much slower than the reference
        speed the machine ran meanwhile."""
        if not latencies_s:
            return
        wall = sum(latencies_s) if seconds is None else seconds
        lat = [x / slowdown for x in latencies_s]
        self.raw_rates.append(len(lat) / wall)
        self.rates.append(len(lat) / wall * slowdown)
        self.p50_ms.append(stats.percentile(lat, 50) * 1e3)
        self.p95_ms.append(stats.percentile(lat, 95) * 1e3)
        self.pooled.extend(lat)

    def __len__(self) -> int:
        return len(self.rates)

    @property
    def samples(self) -> int:
        return len(self.pooled)

    def metrics(self) -> Dict[str, float]:
        return {
            "ops_per_s": stats.median(self.rates),
            "latency_p50_ms": stats.median(self.p50_ms),
            "latency_p95_ms": stats.median(self.p95_ms),
        }

    def info(self) -> Dict[str, float]:
        """What a run prints beside its metrics: how many windows and
        samples they rest on, and the rate before normalisation."""
        return {"windows": len(self), "samples": self.samples,
                "raw_ops_per_s": round(stats.median(self.raw_rates), 3)}

    def spreads(self) -> Dict[str, float]:
        """Each figure's own uncertainty: what ``--compare`` reads to
        say *unresolved*."""
        return {
            "ops_per_s": stats.median_uncertainty(self.rates),
            "latency_p50_ms": stats.median_uncertainty(self.p50_ms),
            "latency_p95_ms": stats.median_uncertainty(self.p95_ms),
        }


class SpeedMeter:
    """Times the calibration loop at window edges: ``slowdown()`` after
    a window is the mean of the pass before it and the pass after it
    (which doubles as the next window's pass before)."""

    def __init__(self) -> None:
        self.last = machine.py_loop()

    def slowdown(self) -> float:
        before, self.last = self.last, machine.py_loop()
        return machine.slowdown((before + self.last) / 2.0)


def run_windows(window: Callable[[int], Sequence[float]],
                seconds: float) -> Windows:
    """Call ``window(index)`` (returns its operations' latencies in
    seconds) until ``seconds`` have passed; window 0 is the warm-up and
    is discarded, and at least :data:`MIN_WINDOWS` are kept."""
    out = Windows()
    deadline = time.perf_counter() + seconds
    window(0)
    meter = SpeedMeter()
    index = 1
    while len(out) < MIN_WINDOWS or time.perf_counter() < deadline:
        latencies = window(index)
        out.add(latencies, slowdown=meter.slowdown())
        index += 1
    return out


def micro_us(fn: Callable[[], object], calls: int, repeats: int = 5
             ) -> float:
    """Median microseconds per call of ``fn`` over ``repeats`` timed
    loops of ``calls`` calls (after one untimed loop)."""
    clock = time.perf_counter
    per_call = []
    for rep in range(repeats + 1):
        t0 = clock()
        for _ in range(calls):
            fn()
        dt = clock() - t0
        if rep:
            per_call.append(dt / calls * 1e6)
    return stats.median(per_call)


def rss_mib() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
