"""The harness's own arithmetic: percentiles, window medians, spreads.

Pure Python on purpose — the parent process that orchestrates the
workload children never imports NumPy for its statistics, and every
function here is unit-tested without timing anything.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: candidate tail percentiles, highest first
TAILS = (99.9, 99.0, 95.0, 90.0)
#: the choosing-metrics rule: report the highest percentile that still
#: has at least this many samples beyond it
MIN_BEYOND = 10


def percentile(samples: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (NumPy's default definition)."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    xs = sorted(samples)
    rank = (len(xs) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def supported_tail(n: int) -> float:
    """The highest percentile of :data:`TAILS` with at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it (50 when none is)."""
    for p in TAILS:
        # in tenths of a percent, so 10000 samples beyond p99.9 are
        # exactly 10 and not 9.999...
        if n * round((100.0 - p) * 10) >= MIN_BEYOND * 1000:
            return p
    return 50.0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the spread the benchmark contract bounds."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0


def median_uncertainty(values: Sequence[float]) -> float:
    """Roughly how far the median of these windows could be from the
    median of as many others, as a share of it: the windows' quartile
    distance over the root of their number.  ``--compare`` calls a
    metric *unresolved* when this exceeds its bound — one run cannot
    then tell a change of that size from its own noise."""
    return iqr_share(values) / math.sqrt(len(values))
