"""Fig. 2 — network memory usage with/without conv workspaces + speedup.

Paper: AlexNet at batch 200 and six other nets at batch 32; convolution
workspaces add GBs of demand but speed training up by 1.3-2.6x.
"""

import pytest

from repro.analysis.report import Table
from repro.core.config import RuntimeConfig, WorkspacePolicy
from repro.device.model import K40_MODEL
from repro.frameworks.probe import try_run
from repro.layers.conv import Conv2D

from benchmarks.common import GiB, MiB, PAPER_NETWORKS, img_per_sec, once, write_result


def _measure():
    table = Table(
        "Fig. 2: memory w/ and w/o conv workspaces; speedup with workspaces",
        ["network", "mem (GB)", "mem+ws (GB)", "img/s no-ws", "img/s ws",
         "speedup"],
    )
    rows = {}
    for name, (builder, kw) in PAPER_NETWORKS.items():
        net = builder(**kw)
        func = (net.baseline_peak_bytes() + net.total_param_bytes())
        ws = sum(l.max_speed_algo(K40_MODEL).workspace_bytes
                 for l in net.layers if isinstance(l, Conv2D))
        # speed: full runtime (fits 12 GB for every net) with dynamic
        # workspaces vs the zero-workspace algorithm everywhere
        slow = try_run(builder(**kw), RuntimeConfig.superneurons(
            concrete=False, workspace_policy=WorkspacePolicy.NONE))
        fast = try_run(builder(**kw), RuntimeConfig.superneurons(
            concrete=False, workspace_policy=WorkspacePolicy.DYNAMIC))
        s_slow = img_per_sec(net, slow)
        s_fast = img_per_sec(net, fast)
        speedup = (s_fast / s_slow) if s_slow and s_fast else None
        rows[name] = (func, ws, s_slow, s_fast, speedup)
        table.add(name, f"{func / GiB:.2f}", f"{(func + ws) / GiB:.2f}",
                  f"{s_slow:.1f}" if s_slow else "-",
                  f"{s_fast:.1f}" if s_fast else "-",
                  f"{speedup:.2f}x" if speedup else "-")
    write_result("fig02_workspace_memory", table.render())
    return rows


def test_fig02_workspace_memory(benchmark):
    rows = once(benchmark, _measure)

    # paper shape 1: workspaces add substantial memory on conv-heavy nets
    for name in ("vgg16", "resnet50", "inception_v4"):
        func, ws, *_ = rows[name]
        assert ws > 0.1 * func, f"{name}: workspace demand implausibly small"

    # paper shape 2: workspaces speed every network up
    for name, (_f, _w, s_slow, s_fast, speedup) in rows.items():
        assert speedup is not None and speedup > 1.0, \
            f"{name}: no speedup with workspaces ({speedup})"

    # paper shape 3: the nonlinear giants dominate the memory ranking
    assert rows["inception_v4"][0] > rows["alexnet"][0]
    assert rows["resnet152"][0] > rows["resnet50"][0]
