"""The compiled policy stack against its hook-dispatching references.

``core/plan.py``'s op builders are the only code that frees, offloads,
prefetches and provisions workspaces for the built-in policies, from
iteration 0.  ``tests/reference_policies.py`` keeps the hook bodies
those ops replaced; a stack of them answers the empty plan everywhere
and does all its work in hooks.
Both stacks must report the same iterations, bit for bit: every
``IterationResult.to_dict()`` field (peaks, traces, DMA bytes, stalls,
cache counters, workspace picks) and, on real payloads, every loss.
"""

import pytest

from repro import Engine, RuntimeConfig, SGD
from repro.core.plan import PolicyPlan
from repro.core.policy import resolve_policies
from repro.core.runtime import Executor
from repro.zoo import alexnet, lenet, resnet_from_units
from tests.reference_policies import reference_stack

ITERS = 3

# the ablation ladder plus the eager-offload full stack
ABLATION = {
    "baseline": RuntimeConfig.baseline,
    "liveness": RuntimeConfig.liveness_only,
    "liveness+utp": RuntimeConfig.liveness_offload,
    "superneurons": RuntimeConfig.superneurons,
    "superneurons-eager":
        lambda **kw: RuntimeConfig.superneurons(use_tensor_cache=False, **kw),
}


def run(mk_net, config, stack_of):
    """``ITERS`` iterations under the stack ``stack_of(effective
    config)`` builds, over an engine's planning as ``Engine.executor``
    hands it over; returns the result dicts and the plans linked for
    the last iteration."""
    engine = Engine(mk_net(), config)
    eff = engine.config.for_mode("train")
    opt = SGD(0.05) if eff.concrete else None
    with Executor(engine.net, eff, stack_of(eff),
                  engine.planning("train")) as ex:
        dicts = [ex.run_iteration(i, optimizer=opt).to_dict()
                 for i in range(ITERS)]
        return dicts, ex.iteration_plan.plans


def assert_stacks_agree(mk_net, config):
    shipped, compiled = run(mk_net, config, resolve_policies)
    reference, dispatching = run(mk_net, config, reference_stack)
    # the comparison is between the two implementations, not one twice:
    # the shipped plans carry ops, the reference plans none
    keys = [p.key for p in resolve_policies(config)]
    assert list(compiled) == list(dispatching) == keys
    assert any(plan != PolicyPlan() for plan in compiled.values())
    assert all(plan == PolicyPlan() for plan in dispatching.values())
    assert shipped == reference
    return shipped


@pytest.mark.parametrize("rung", list(ABLATION))
def test_concrete_lenet(rung):
    dicts = assert_stacks_agree(lambda: lenet(batch=2, image=12),
                                ABLATION[rung]())
    assert len({d["loss"] for d in dicts}) == ITERS  # SGD moved the loss


@pytest.mark.parametrize("rung", list(ABLATION))
def test_simulated_alexnet(rung):
    assert_stacks_agree(lambda: alexnet(batch=4, image=67, num_classes=10),
                        ABLATION[rung](concrete=False))


#: rung -> a capacity below its roomy peak (5,134,632) that still runs:
#: the eager rung blocks on copies in flight.  Eager only — under
#: pressure the cache rung's schedule is the return trip, which never
#: was a hook body (the twin fetches on demand there; its pressured twin
#: is ``WriteBehindCachePolicy``, in ``test_overlap_sweep.py``), and
#: the rungs without offload have nothing to give and OOM instead.
PRESSURED = {"superneurons-eager": 5_000_000}


@pytest.mark.parametrize("rung", list(PRESSURED))
def test_pressured_resnet(rung):
    dicts = assert_stacks_agree(
        lambda: resnet_from_units((1, 1, 0, 0), batch=4, image=32,
                                  num_classes=10),
        ABLATION[rung](concrete=False, gpu_capacity=PRESSURED[rung]))
    for d in dicts:
        assert d["stall_seconds"] > 0 and d["d2h_bytes"] > 0
