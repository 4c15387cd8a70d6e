"""Table 3 — offload traffic with/without the LRU tensor cache.

Paper (AlexNet, 12 GB K40): without the cache, transfers grow linearly
with batch (2.56 GB at b=256 up to 9.50 GB at b=1024); with the cache
every batch up to 896 moves ZERO bytes and b=1024 moves only 0.88 GB.
"""

from repro.analysis.report import Table
from repro.core.config import RuntimeConfig, WorkspacePolicy
from repro.core.session import Session
from repro.zoo import alexnet

from benchmarks.common import GiB, once, write_result

BATCHES = [256, 384, 512, 640, 896, 1024]


def _traffic(batch: int, use_cache: bool) -> float:
    net = alexnet(batch=batch, image=227)
    ex = Session(net, RuntimeConfig.liveness_offload(
        use_tensor_cache=use_cache, concrete=False,
        workspace_policy=WorkspacePolicy.NONE)).executor
    r = ex.run_iteration(0)
    ex.close()
    return (r.d2h_bytes + r.h2d_bytes) / GiB


def _measure():
    tab = Table("Table 3: AlexNet offload traffic (GB/iter), 12 GB GPU",
                ["batch", "without cache", "with cache"])
    out = {}
    for b in BATCHES:
        no_cache = _traffic(b, use_cache=False)
        cache = _traffic(b, use_cache=True)
        out[b] = (no_cache, cache)
        tab.add(b, f"{no_cache:.2f}", f"{cache:.2f}")
    write_result("table3_cache_traffic", tab.render())
    return out


def test_table3_cache_traffic(benchmark):
    out = once(benchmark, _measure)
    # paper shape 1: eager traffic grows monotonically with batch size
    eager = [out[b][0] for b in BATCHES]
    assert all(b > a for a, b in zip(eager, eager[1:]))
    assert eager[0] > 1.0  # gigabytes, not crumbs

    # paper shape 2: the cache eliminates traffic while the net fits
    for b in BATCHES[:4]:
        assert out[b][1] == 0.0, f"batch {b}: cache moved {out[b][1]} GB"

    # paper shape 3: even when the cache must spill, it moves far less
    for b in BATCHES:
        assert out[b][1] <= 0.5 * out[b][0]
