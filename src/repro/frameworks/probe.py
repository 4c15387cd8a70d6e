"""Capacity probes: largest batch / deepest net before device OOM.

These drive the going-wider (Table 5) and going-deeper (Table 4)
experiments.  Probes run in simulated mode (descriptor-only) so a
"12 GB" device costs laptop-trivial resources, and use exponential
growth + binary search, mirroring how one actually hunts OOM limits.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.core.config import RuntimeConfig
from repro.core.engine import Engine
from repro.core.runtime import IterationResult
from repro.device.gpu import OutOfMemoryError
from repro.graph.network import Net


def try_run(net: Net, config: RuntimeConfig) -> Optional[IterationResult]:
    """One simulated iteration; None when the device OOMs.

    The iteration is the mode's record-less one, the iteration an
    engine's scout runs, on an executor of a private engine: the peak
    and the fit answer are the scout's, and no scout runs before it.
    The context manager guarantees the executor's pool slab goes back
    to the device ledger on every exit path (probes build hundreds of
    executors, so a leak here compounds fast).
    """
    try:
        with Engine(net, config).executor() as ex:
            return ex.run_iteration(0)
    except (OutOfMemoryError, MemoryError):
        return None


def peak_memory(net: Net, config: RuntimeConfig) -> Optional[int]:
    res = try_run(net, config)
    return None if res is None else res.peak_bytes


def _search_max(fits: Callable[[int], bool], lo: int, hi_cap: int) -> int:
    """Largest n in [lo, hi_cap] with fits(n); 0 if even lo fails.

    Grows exponentially from ``lo`` and binary-searches the bracket.
    An empty range (``lo > hi_cap``) is a caller error, not a 0.
    """
    if lo > hi_cap:
        raise ValueError(f"empty search range: start {lo} > limit {hi_cap}")
    if not fits(lo):
        return 0
    hi = lo
    while hi < hi_cap and fits(min(hi * 2, hi_cap)):
        hi = min(hi * 2, hi_cap)
        if hi == hi_cap:
            return hi_cap
    lo_ok, hi_bad = hi, min(hi * 2, hi_cap)
    while hi_bad - lo_ok > 1:
        mid = (lo_ok + hi_bad) // 2
        if fits(mid):
            lo_ok = mid
        else:
            hi_bad = mid
    return lo_ok


def max_batch(
    builder: Callable[..., Net],
    config_factory: Callable[[], RuntimeConfig],
    start: int = 8,
    limit: int = 4096,
    **builder_kw,
) -> int:
    """Largest trainable batch size (Table 5's quantity)."""

    def fits(b: int) -> bool:
        net = builder(batch=b, **builder_kw)
        return try_run(net, config_factory()) is not None

    return _search_max(fits, start, limit)


def max_resnet_depth(
    config_factory: Callable[[], RuntimeConfig],
    batch: int = 16,
    image: int = 224,
    limit_n3: int = 4096,
) -> Tuple[int, int]:
    """Deepest trainable ResNet via the paper's n3 sweep (Table 4).

    Returns ``(depth, n3)`` with ``depth = 3*(6+32+n3+6)+2``.
    """
    from repro.zoo.resnet import resnet

    def fits(n3: int) -> bool:
        net = resnet(n3, batch=batch, image=image)
        return try_run(net, config_factory()) is not None

    best_n3 = _search_max(fits, 1, limit_n3)
    if best_n3 == 0:
        return 0, 0
    return 3 * (6 + 32 + best_n3 + 6) + 2, best_n3
