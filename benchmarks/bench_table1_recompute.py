"""Table 1 — recomputation counts and peak_m for the three strategies.

Paper (AlexNet / ResNet50 / ResNet101):
  speed-centric   extra 14 / 84 / 169, peak 993 / 455.1 / 455.1 MB
  memory-centric  extra 23 / 118 / 237, peak 886 / 401 / 401 MB
  cost-aware      extra 17 / 85 / 170, peak 886 / 401 / 401 MB

The headline: cost-aware pays (almost) speed-centric's recompute count
while achieving memory-centric's peak.  We report the measured extra
forwards of our engine plus the paper's closed-form prediction.
"""

from repro.analysis.report import Table
from repro.core.config import RecomputeStrategy, RuntimeConfig, WorkspacePolicy
from repro.core.recompute import plan_segments
from repro.core.session import Session
from repro.graph.route import ExecutionRoute
from repro.zoo import alexnet, resnet50, resnet101

from benchmarks.common import MiB, once, write_result

NETS = {
    "alexnet": lambda: alexnet(batch=128, image=227),
    "resnet50": lambda: resnet50(batch=16),
    "resnet101": lambda: resnet101(batch=16),
}

STRATS = {
    "speed": RecomputeStrategy.SPEED_CENTRIC,
    "memory": RecomputeStrategy.MEMORY_CENTRIC,
    "cost-aware": RecomputeStrategy.COST_AWARE,
}


def _measure():
    tab = Table(
        "Table 1: extra recomputations and peak_m per strategy",
        ["network", "strategy", "extra (measured)", "extra (closed form)",
         "peak_m (MiB)"],
    )
    out = {}
    for net_name, mk in NETS.items():
        for strat_name, strat in STRATS.items():
            net = mk()
            plan = plan_segments(ExecutionRoute(net), strat)
            ex = Session(net, RuntimeConfig.superneurons(
                use_tensor_cache=False, recompute=strat, concrete=False,
                workspace_policy=WorkspacePolicy.NONE)).executor
            r = ex.run_iteration(0)
            ex.close()
            out[(net_name, strat_name)] = (
                r.extra_forwards,
                plan.total_extra_forwards(),
                r.activation_peak_bytes,
            )
            tab.add(net_name, strat_name, r.extra_forwards,
                    plan.total_extra_forwards(),
                    f"{r.activation_peak_bytes / MiB:.1f}")
    write_result("table1_recompute", tab.render())
    return out


def test_table1_recompute(benchmark):
    out = once(benchmark, _measure)
    for net in ("alexnet", "resnet50", "resnet101"):
        sp_x, sp_cf, sp_pk = out[(net, "speed")]
        me_x, me_cf, me_pk = out[(net, "memory")]
        ca_x, ca_cf, ca_pk = out[(net, "cost-aware")]
        # paper shape 1: extras ordering speed <= cost-aware < memory
        assert sp_x <= ca_x < me_x, f"{net}: extras {sp_x}/{ca_x}/{me_x}"
        # paper shape 2: peaks ordering memory == cost-aware <= speed.
        # 5% tolerance: the paper's segment criterion (Σ l_f + l_b ≤
        # l_peak) slightly under-predicts the realized backward working
        # set, so a borderline segment can keep speed-centric and land
        # a few percent above the memory-centric peak.
        assert ca_pk <= sp_pk * 1.01, net
        assert abs(ca_pk - me_pk) <= 0.05 * me_pk, \
            f"{net}: cost-aware peak {ca_pk} != memory peak {me_pk}"
    # paper's exact AlexNet closed forms
    assert out[("alexnet", "speed")][1] == 14
    assert out[("alexnet", "memory")][1] == 23
    # AlexNet measured speed-centric matches the paper exactly
    assert out[("alexnet", "speed")][0] == 14
