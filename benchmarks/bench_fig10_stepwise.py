"""Fig. 10 — stepwise memory usage and live tensor counts, AlexNet b=200.

Paper (a/b/c): baseline 2189 MB; liveness peaks 1489 MB (31.9% saved);
+offload/prefetch 1132 MB (48.3%); +cost-aware recomputation 886 MB,
which equals max(l_i) measured at the backward of LRN1 — the minimum
any layer-wise runtime can reach.
"""

from repro.analysis.report import Table, series_to_text
from repro.core.config import RuntimeConfig, WorkspacePolicy
from repro.core.session import Session

from benchmarks.common import MiB, once, write_result
from repro.zoo import alexnet


def _mk():
    return alexnet(batch=200, image=227)


CONFIGS = {
    "liveness": lambda: RuntimeConfig.liveness_only(
        concrete=False, workspace_policy=WorkspacePolicy.NONE),
    "liveness+offload": lambda: RuntimeConfig.liveness_offload(
        concrete=False, workspace_policy=WorkspacePolicy.NONE),
    "all-three": lambda: RuntimeConfig.superneurons(
        use_tensor_cache=False, concrete=False,
        workspace_policy=WorkspacePolicy.NONE),
}


def _measure():
    out = {}
    traces = {}
    for name, cfg in CONFIGS.items():
        ex = Session(_mk(), cfg()).executor
        r = ex.run_iteration(0)
        peak_tr = max(r.traces, key=lambda t: t.activation_high)
        out[name] = (r.activation_peak_bytes, peak_tr.label)
        traces[name] = r.traces
        ex.close()

    net = _mk()
    baseline = net.baseline_peak_bytes()
    l_peak = net.max_layer_bytes()

    tab = Table("Fig. 10: AlexNet b=200 peak memory ladder",
                ["configuration", "peak (MiB)", "% of baseline", "peak at"])
    tab.add("baseline (Σ l_f + Σ l_b)", f"{baseline / MiB:.1f}", "100.0", "-")
    for name, (peak, where) in out.items():
        tab.add(name, f"{peak / MiB:.1f}", f"{100 * peak / baseline:.1f}",
                where)
    tab.add("max(l_i) floor", f"{l_peak / MiB:.1f}",
            f"{100 * l_peak / baseline:.1f}", "lrn1 working set")

    # stepwise series (the actual Fig. 10 curves)
    n = len(net)
    xs = list(range(2 * n))
    series = {
        name: [f"{t.activation_high / MiB:.0f}" for t in trs]
        for name, trs in traces.items()
    }
    live = {f"live:{name}": [t.live_tensors for t in trs]
            for name, trs in traces.items()}
    text = tab.render() + "\n\n" + series_to_text(
        "Fig. 10 stepwise memory (MiB per step; 0..N-1 fwd, N..2N-1 bwd)",
        xs, {**series, **live}, x_label="step")
    write_result("fig10_stepwise", text)
    return out, baseline, l_peak, traces


def test_fig10_stepwise(benchmark):
    out, baseline, l_peak, traces = once(benchmark, _measure)
    live_peak = out["liveness"][0]
    off_peak = out["liveness+offload"][0]
    all3_peak, all3_where = out["all-three"]

    # the paper's ladder: each technique strictly improves on the last
    assert live_peak < baseline
    assert off_peak < live_peak
    assert all3_peak < off_peak

    # liveness alone saves the paper's 30-50%
    assert 0.30 < 1 - live_peak / baseline < 0.60

    # the floor: all three techniques land exactly on max(l_i)...
    assert all3_peak == l_peak
    # ...measured at the backward of LRN1, as in Fig. 10c
    assert all3_where == "lrn1:b"

    # live-tensor counts return to zero at the final step
    for trs in traces.values():
        assert trs[-1].live_tensors == 0
