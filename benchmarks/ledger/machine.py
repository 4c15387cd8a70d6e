"""How fast is this machine right now?  A fixed pure-Python loop and a
fixed NumPy loop, timed in the parent before and after the workloads,
so absolute numbers from two runners (or two noisy minutes of one) can
be told apart from a change in the code."""

from __future__ import annotations

import os
import platform
import subprocess
import time
from typing import Dict

from . import stats

#: the two calibrations of one run may differ by this much before the
#: run's host-time figures are flagged
NOISE_LIMIT = 0.10

#: timed loops per calibration; the median is kept
LOOPS = 16

#: the parent sleeps while a child measures, and the first ~100 ms
#: after waking run up to 40% slow on this VM (a cold core): spin this
#: long before timing, or every run would look like a noisy machine
WARM_SECONDS = 0.25


#: the pure-Python loop's time on this repo's 2-core VM in a quiet
#: minute: the speed host-time figures are normalised *to* (any fixed
#: value would do; this one keeps normalised and raw numbers close)
REFERENCE_PY_MS = 6.0


def py_loop() -> float:
    """Seconds one pass of the fixed interpreter-bound loop takes."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(60000):
        table[i & 255] = acc
        acc += (i * 7) % 13 + len(table)
    return time.perf_counter() - t0


def calib_py_ms() -> float:
    """A fixed interpreter-bound loop (dict, arithmetic, calls)."""
    return stats.median([py_loop() for _ in range(LOOPS)]) * 1e3


def slowdown(loop_seconds: float) -> float:
    """How much slower than the reference machine a loop time says
    this one is running (1.0 = the reference speed)."""
    return loop_seconds * 1e3 / REFERENCE_PY_MS


def calib_np_ms() -> float:
    """A fixed NumPy loop (matmul + elementwise on 128x128 float32)."""
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((128, 128)).astype(np.float32)
    times = []
    for _ in range(LOOPS + 1):
        t0 = time.perf_counter()
        b = a
        for _ in range(40):
            b = np.tanh(b @ a * np.float32(0.01)) + a
        times.append(time.perf_counter() - t0)
    return stats.median(times[1:]) * 1e3     # the first call warms BLAS


def calibrate() -> Dict[str, float]:
    deadline = time.perf_counter() + WARM_SECONDS
    while time.perf_counter() < deadline:
        py_loop()
    return {"machine.calib_py_ms": calib_py_ms(),
            "machine.calib_np_ms": calib_np_ms()}


def noisy(before: Dict[str, float], after: Dict[str, float]) -> bool:
    """Whether the machine changed speed under the run."""
    return any(abs(after[k] - before[k]) / before[k] > NOISE_LIMIT
               for k in before)


def describe(root: str) -> Dict[str, object]:
    """Where the numbers came from."""
    import numpy as np
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "commit": commit}
