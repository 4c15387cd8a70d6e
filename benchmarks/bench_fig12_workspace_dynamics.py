"""Fig. 12 — dynamic conv-workspace allocation under pool pressure.

Paper (AlexNet, 5 CONV layers, steps 1f..5f then 5b..1b):
 (a) batch 100, 3 GB pool: every conv gets its max-speed workspace;
 (b) batch 300, 3 GB pool: the runtime shrinks workspaces to fit the
     functional tensors first;
 (c/d) the same workload speeds up from 203 to 240 img/s when the pool
     grows from 3 GB to 5 GB because more workspace fits.
"""

from repro.analysis.report import Table
from repro.core.config import RuntimeConfig
from repro.core.session import Session
from repro.zoo import alexnet

from benchmarks.common import GiB, MiB, img_per_sec, once, write_result


def _run(batch: int, pool_gb: int):
    net = alexnet(batch=batch, image=227)
    ex = Session(net, RuntimeConfig.superneurons(
        concrete=False, pool_slab_bytes=pool_gb * GiB)).executor
    r = ex.run_iteration(0)
    speed = img_per_sec(net, r)
    choices = [w for w in r.workspace_choices]
    ex.close()
    return speed, choices


def _measure():
    out = {}
    tabs = []
    # The paper squeezes at batch 300 with cuDNN's workspace sizes; our
    # analytic workspace table is leaner, so the equivalent pressure
    # point lands at batch 500 on the same 3 GB pool.
    for batch, pool in ((100, 3), (500, 3), (500, 5)):
        speed, choices = _run(batch, pool)
        out[(batch, pool)] = (speed, choices)
        tab = Table(
            f"Fig. 12: conv workspaces, batch={batch}, pool={pool} GB "
            f"({speed:.0f} img/s)",
            ["conv step", "assigned WS (MiB)", "max-speed WS (MiB)",
             "algo chosen"],
        )
        for w in choices:
            step = f"{w.layer_name}:{'f' if w.phase == 'forward' else 'b'}"
            tab.add(step, f"{w.assigned_ws / MiB:.0f}",
                    f"{w.max_speed_ws / MiB:.0f}", w.algo.name)
        tabs.append(tab.render())
    write_result("fig12_workspace_dynamics", "\n\n".join(tabs))
    return out


def test_fig12_workspace_dynamics(benchmark):
    out = once(benchmark, _measure)
    s100_3, ch100_3 = out[(100, 3)]
    s300_3, ch300_3 = out[(500, 3)]
    s300_5, ch300_5 = out[(500, 5)]

    # paper shape (a): at batch 100 / 3 GB every conv runs at max speed
    assert all(w.got_max_speed for w in ch100_3), \
        [w.layer_name for w in ch100_3 if not w.got_max_speed]

    # paper shape (b): at batch 300 / 3 GB some convs get squeezed
    squeezed = [w for w in ch300_3 if not w.got_max_speed]
    assert squeezed, "no workspace pressure at batch 500 / 3 GB"

    # paper shape (c/d): growing the pool 3 -> 5 GB buys speed back
    assert s300_5 > s300_3
    # and at least as many convs reach their max-speed algorithm
    n3 = sum(w.got_max_speed for w in ch300_3)
    n5 = sum(w.got_max_speed for w in ch300_5)
    assert n5 >= n3
