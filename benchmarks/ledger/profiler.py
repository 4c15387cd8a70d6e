"""The deterministic profiler behind the traced run's ledger rows.

``src/`` is not edited to be measured: the harness starts ``cProfile``
around the calls it makes into the program (and, through
``threading.setprofile``, inside every thread the program starts while
the block is open), then folds the per-function records into one row
per layer — this repo's module names.  A C builtin has no module of
its own, so its time is charged to the layer of the Python function
that called it; blocking primitives (lock acquire, sleep) are the
exception and land in ``wait``, because a thread parked on a lock is
not *working* in the layer that asked for it.
"""

from __future__ import annotations

import cProfile
import os
import threading
import time
from typing import Dict, List, Optional, Tuple

from . import spec

_HARNESS_DIR = os.path.dirname(os.path.abspath(__file__))


def is_blocking(builtin: str) -> bool:
    """Whether a builtin's repr names a primitive that parks the
    thread (its time is waiting, not work)."""
    if "time.sleep" in builtin:
        return True
    return ("_thread.lock" in builtin or "_thread.RLock" in builtin) \
        and ("acquire" in builtin or "__enter__" in builtin)


def layer_of_file(filename: str, repro_root: Optional[str]) -> str:
    """The ledger row of a source file: ``repro`` modules by
    :func:`spec.layer_of`, the harness's own files, else ``other``."""
    path = os.path.abspath(filename)
    if repro_root and path.startswith(repro_root + os.sep):
        rel = path[len(repro_root) + 1:]
        if rel.endswith(".py"):
            rel = rel[:-3]
        parts = [p for p in rel.split(os.sep) if p != "__init__"]
        return spec.layer_of(".".join(["repro"] + parts))
    if path.startswith(_HARNESS_DIR + os.sep):
        return "harness"
    return "other"


def fold(entries, repro_root: Optional[str]
         ) -> Tuple[Dict[str, List[float]], List[tuple]]:
    """Fold raw ``cProfile`` entries (``Profile.getstats()``) into
    ``{layer: [self seconds, calls]}`` plus the per-function list
    ``(layer, name, where, self seconds, calls)``.

    Python functions count their own inline time and calls.  Builtin
    callees are charged to the calling function's layer (or ``wait``);
    what a builtin spent under callers the profiler never saw enter is
    the remainder of its top-level record, charged to ``other``/``wait``.
    """
    rows: Dict[str, List[float]] = {l: [0.0, 0] for l in spec.LAYERS}
    funcs: List[tuple] = []
    charged: Dict[str, float] = {}
    builtins: Dict[str, Tuple[float, int]] = {}
    for e in entries:
        if isinstance(e.code, str):
            t, n = builtins.get(e.code, (0.0, 0))
            builtins[e.code] = (t + e.inlinetime, n + e.callcount)
            continue
        layer = layer_of_file(e.code.co_filename, repro_root)
        self_s = e.inlinetime
        for sub in e.calls or ():
            if not isinstance(sub.code, str):
                continue
            charged[sub.code] = charged.get(sub.code, 0.0) + sub.inlinetime
            if is_blocking(sub.code):
                rows["wait"][0] += sub.inlinetime
            else:
                self_s += sub.inlinetime
        rows[layer][0] += self_s
        rows[layer][1] += e.callcount
        funcs.append((layer, e.code.co_name,
                      f"{os.path.basename(e.code.co_filename)}:"
                      f"{e.code.co_firstlineno}", self_s, e.callcount))
    for name, (total, calls) in builtins.items():
        left = max(0.0, total - charged.get(name, 0.0))
        if is_blocking(name):
            rows["wait"][0] += left
            rows["wait"][1] += calls
        else:
            rows["other"][0] += left
    return rows, funcs


class LedgerProfiler:
    """``with LedgerProfiler() as prof:`` profiles the calling thread
    and every thread started inside the block.  Threads must have ended
    when the block closes (stop the server inside it)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._profiles: List[cProfile.Profile] = []
        self._starts: List[float] = []
        self.thread_seconds = 0.0
        self.wall_seconds = 0.0

    def _enable_here(self) -> None:
        prof = cProfile.Profile()
        with self._lock:
            self._profiles.append(prof)
            self._starts.append(time.perf_counter())
        prof.enable()

    def _thread_hook(self, frame, event, arg) -> None:
        # the first profile event of a new thread: swap this Python
        # hook for that thread's own C profiler
        self._enable_here()

    def __enter__(self) -> "LedgerProfiler":
        threading.setprofile(self._thread_hook)
        self._enable_here()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._profiles[0].disable()
        end = time.perf_counter()
        threading.setprofile(None)
        self.wall_seconds = end - self._starts[0]
        self.thread_seconds = sum(end - s for s in self._starts)

    @property
    def threads(self) -> int:
        return len(self._profiles)

    def ledger(self, repro_root: Optional[str]):
        """``(rows, functions)`` over every profiled thread."""
        entries = []
        for prof in self._profiles:
            entries.extend(prof.getstats())
        return fold(entries, repro_root)
