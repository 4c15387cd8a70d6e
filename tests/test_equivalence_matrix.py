"""The happy-path contract, stated once: liveness (§3.2), the tensor
pool and its cache (§3.3), recomputation (§3.4) and workspaces (§3.5)
move bytes, never what is computed.  One net table (plus 25 drawn
``build_net`` topologies per random cell), one stack table, one run
helper (:func:`observe_all`), one comparison (:func:`assert_same_run`);
each contract is one test over a table of cells."""

import functools
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine, RuntimeConfig, SGD, Session
from repro.check.cost_model import predict_compiled_mode
from repro.check.plan_verifier import verify_compiled_mode
from repro.core.config import RecomputeStrategy, WorkspacePolicy
from repro.device.fabric import ExternalPool, LOCAL_CPU, PEER_GPU, REMOTE_RDMA
from repro.serve import InferenceServer
from repro.zoo import alexnet, lenet, resnet50, resnet_from_units

from tests.test_clean_lines import ROOMY_PEAK, SMALLEST, small_resnet
from tests.test_graph import fan_net, join_net
from tests.test_property_equivalence import BLOCKS, block_ids, build_net
from tests.test_serving import make_requests, solo_outputs

P = functools.partial
NETS = {
    "lenet": P(lenet, batch=4, image=12),
    "alexnet": P(alexnet, batch=2, image=67, num_classes=10),
    "resnet": P(resnet_from_units, (1, 1, 1, 1), batch=2, image=32,
                num_classes=4),
    "fan": fan_net, "join": join_net, "small_resnet": small_resnet,
    # a residual block: the join reads the data layer's output again
    "skip": P(build_net, [BLOCKS.index("residual")], 0),
    "resnet50": P(resnet50, batch=32), "lenet_b8": P(lenet, batch=8),
}

_live, _utp, _sn = (RuntimeConfig.liveness_only,
                    RuntimeConfig.liveness_offload, RuntimeConfig.superneurons)
STACKS = {
    "baseline": RuntimeConfig.baseline,
    "liveness": _live,
    "offload_eager": _utp,
    "offload_cache": P(_utp, use_tensor_cache=True),
    "recompute_speed": P(_live, recompute=RecomputeStrategy.SPEED_CENTRIC),
    "recompute_memory": P(_live, recompute=RecomputeStrategy.MEMORY_CENTRIC),
    "superneurons": _sn,
    "superneurons_eager": P(_sn, use_tensor_cache=False),
    **{f"fabric_{name}": P(_sn, use_tensor_cache=False, external_pools=pools,
                           workspace_policy=WorkspacePolicy.NONE)
       for name, pools in (
           ("peer_cpu", (PEER_GPU, LOCAL_CPU)), ("rdma", (REMOTE_RDMA,)),
           ("tiny_cpu", (ExternalPool("t", 4 << 20), LOCAL_CPU)))},
}
RANDOM_STACKS = tuple(STACKS)[1:8]  # all but baseline and the fabrics
LADDER = ("baseline", "liveness", "offload_eager", "superneurons")
EAGER = ("offload_eager", "superneurons_eager")
RUNGS = LADDER + EAGER[1:]

_sn_chain = [("offload", {"cache": "lru"}),
             ("recompute", {"strategy": "cost_aware"})]
#: stack -> ``with_policy`` chains that resolve to it (None: ``without``);
#: the second superneurons chain leaves liveness as the defaults arm it
FLUENT = {"baseline": [[("liveness", None)]],
          # as armed, as the defaults arm it, armed with offload disarmed
          "liveness": [[("liveness", {})], [], [("offload", {}),
                                               ("offload", None)]],
          "offload_eager": [[("liveness", {}), ("offload", {"cache": None})]],
          "superneurons": [[("liveness", {}), *_sn_chain], _sn_chain]}


class Cell(NamedTuple):
    """A row; ``net`` is a :data:`NETS` name (or, in a random cell's
    check, the drawn builder), ``axis`` the contract's own axis."""

    net: object
    stack: str
    mode: str = "train"
    concrete: bool = True
    iters: int = 2
    capacity: Optional[int] = None
    axis: str = ""


def cells(table):
    return pytest.mark.parametrize("cell", table, ids=lambda c: "-".join(
        [c.net, c.stack] + [c.mode] * (c.mode != "train")
        + ["sim"] * (not c.concrete) + [c.axis] * bool(c.axis)))


def build(cell):
    return NETS[cell.net]() if isinstance(cell.net, str) else cell.net()


def config(cell, **kw) -> RuntimeConfig:
    kw.setdefault("concrete", cell.concrete)
    return STACKS[cell.stack](gpu_capacity=cell.capacity, **kw)


def standalone(cell, **kw) -> Session:
    return Session(build(cell), config(cell, **kw), mode=cell.mode)


def each_net(cell, check, stacks=RANDOM_STACKS) -> None:
    """``check(cell)``; on a random cell, on 25 drawn topologies, each
    under a stack drawn from ``stacks``."""
    if cell.net != "random":
        return check(cell)

    @given(blocks=block_ids(6), stack=st.sampled_from(stacks),
           seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def drawn(blocks, stack, seed):
        check(cell._replace(net=P(build_net, blocks, seed), stack=stack))
    drawn()


# -- the run record, the one comparison, the one run helper -------------------

@dataclass(frozen=True)
class Run:
    """Iterations' ``to_dict()``, substrates, infer outputs; final params."""

    dicts: tuple
    params: Optional[tuple] = None
    substrate: Optional[tuple] = None
    outputs: Optional[tuple] = None
    replayed: int = field(default=0, compare=False)
    tabled: int = field(default=0, compare=False)

    def values(self) -> "Run":
        """What is computed: losses and trained parameters."""
        return Run(tuple({"loss": d["loss"]} for d in self.dicts),
                   params=self.params)

    def accounting(self) -> "Run":
        """Everything else: bytes, times, counters, traces, substrate."""
        return Run(tuple({k: v for k, v in d.items() if k != "loss"}
                         for d in self.dicts), substrate=self.substrate)


def assert_same_run(a: Run, b: Run) -> None:
    """Bit for bit, each part recorded by both runs or by neither."""
    assert a.dicts == b.dicts
    for x, y in ((a.params, b.params), (a.outputs, b.outputs)):
        assert (x is None) == (y is None)
        assert x is None or len(x) == len(y) and all(
            u.dtype == v.dtype and np.array_equal(u, v) for u, v in zip(x, y))
    assert a.substrate == b.substrate


def substrate(ex) -> tuple:
    """What an iteration leaves in the executor besides its result."""
    a, tl = ex.allocator, ex.timeline
    return (a.used_bytes, a.peak_bytes, vars(a.stats).copy(),
            dict(tl.clock), dict(tl.busy), vars(ex.dma.stats).copy(),
            ex.state.snapshot(t for layer in ex.net.layers for t in (
                layer.output, layer.grad_output, *layer.params,
                *layer.param_grads) if t is not None))


def observe_all(sessions, iters, lr=0.05):
    """``iters`` iterations of every session, an iteration of each in
    turn, then each closed: one :class:`Run` per session.  Concrete
    training steps plain SGD(``lr``) unless ``lr`` is None."""
    logs = [(sess, [], [], []) for sess in sessions]
    for i in range(iters):
        for sess, dicts, subs, outs in logs:
            ex, train = sess.executor, sess.mode == "train"
            concrete = ex.config.concrete
            res = sess.run_iteration(
                i, optimizer=SGD(lr) if lr and train and concrete else None,
                capture_output=concrete and not train)
            dicts.append(res.to_dict())
            subs.append(substrate(ex))
            if concrete and not train:
                outs.append(np.array(res.output))
    runs = []
    for sess, dicts, subs, outs in logs:
        ex = sess.executor  # reading a lazy parameter initialises it
        params = tuple(np.array(layer.param_values[p.tensor_id])
                       for layer in ex.net.layers for p in layer.params
                       ) if ex.config.concrete else None
        runs.append(Run(tuple(dicts), params, tuple(subs), tuple(outs) or None,
                        ex.replayed_iterations, ex.table_iterations))
        sess.close()
    return runs


def observe(sess, iters, lr=0.05) -> Run:
    return observe_all([sess], iters, lr)[0]


@functools.lru_cache(maxsize=1)
def reference(cell) -> Run:
    """``cell``'s values; a table lists a reference's readers in a row,
    so one entry trains each reference once."""
    return observe(standalone(cell), cell.iters).values()


# -- the contracts, one table each -------------------------------------------

VALUES = [
    *(Cell("lenet", s, iters=3) for s in STACKS if "fabric" not in s),
    *(Cell("alexnet", s) for s in
      ("superneurons", "recompute_memory", "offload_cache")),
    *(Cell("resnet", s) for s in ("superneurons", "recompute_speed",
                                  *(s for s in STACKS if "fabric" in s))),
    Cell("fan", "superneurons"), Cell("join", "superneurons"),
    Cell("random", "any"),
]


@cells(VALUES)
def test_values(cell):
    """Every stack trains like the baseline."""
    each_net(cell, lambda cell: assert_same_run(
        observe(standalone(cell), cell.iters).values(),
        reference(cell._replace(stack="baseline"))))


#: the ledger's train_pressured and the small net at the smallest
#: capacity it runs in: every iteration evicts, copies and drops
PRESSURED = [Cell("resnet50", "superneurons", concrete=False, iters=5,
                  capacity=1 << 30, axis="pressured"),
             Cell("small_resnet", "superneurons", concrete=False, iters=5,
                  capacity=SMALLEST, axis="pressured")]

REPLAY = [
    *(Cell("lenet", s, iters=5) for s in RUNGS),
    Cell("lenet", "superneurons", mode="infer", iters=5),
    *(Cell("alexnet", s, concrete=False, iters=5) for s in RUNGS),
    # the ledger's train_roomy and serving shapes
    Cell("resnet50", "superneurons", concrete=False, iters=5),
    Cell("lenet_b8", "superneurons", mode="infer", concrete=False, iters=5),
    *PRESSURED,
]


@cells(REPLAY)
def test_replay(cell):
    """The linked-once plan, and from iteration 2 the residency table of
    a simulated stack, calm or pressured (eager offload's cache is never
    at a fixed point), equal a session that re-links before every
    iteration."""
    fresh = observe(standalone(cell, steady_state_replay=False), cell.iters)
    replay = observe(standalone(cell), cell.iters)
    tabled = not cell.concrete and cell.stack not in EAGER
    assert (fresh.replayed, fresh.tabled) == (0, 0)
    assert (replay.replayed, replay.tabled) == \
        (cell.iters - 1, cell.iters - 2 if tabled else 0)
    assert_same_run(replay, fresh)


FACADE = [*(Cell("lenet", s, iters=4) for s in LADDER),
          *(Cell("alexnet", s, concrete=False, iters=4) for s in LADDER)]


@cells(FACADE)
def test_facade(cell):
    """A standalone ``Session``, an engine lane and fluent chains agree."""
    solo = observe(standalone(cell), cell.iters)
    lane = observe(Engine(build(cell), config(cell)).session(), cell.iters)
    assert lane.replayed == cell.iters - 1
    assert_same_run(lane, solo)
    for chain in FLUENT[cell.stack]:
        sess = Session(build(cell)).with_config(concrete=cell.concrete)
        for name, options in chain:
            sess = sess.without_policy(name) if options is None \
                else sess.with_policy(name, **options)
        assert_same_run(observe(sess, cell.iters), solo)


MODE = [Cell("lenet", "superneurons", iters=3),
        Cell("lenet", "baseline", iters=3)]


@cells(MODE)
def test_mode(cell):
    """With no optimizer, infer iteration i's loss is train's."""
    infer = observe(Engine(build(cell), config(cell)).session("infer"),
                    cell.iters)
    train = observe(standalone(cell), cell.iters, lr=None)
    assert all(d["loss"] is not None for d in infer.dicts)
    assert_same_run(infer.values(), train.values())


DRIVE = [Cell("lenet", "superneurons", mode="infer", iters=4, axis=axis)
         for axis in ("parallel", "interleaved")] + [
    Cell("lenet", "superneurons", concrete=False, iters=4, axis="parallel")]


@cells(DRIVE)
def test_drive(cell):
    """Two lanes of one engine, run by ``parallel_run`` or interleaved,
    each equal a standalone session; the engine plans once."""
    shared = Engine(build(cell), config(cell))
    lanes = [shared.session(cell.mode) for _ in range(2)]
    want = observe(standalone(cell), cell.iters)
    if cell.axis == "parallel":
        got = [Run(tuple(r.to_dict() for r in rs)) for rs in
               shared.parallel_run(lanes, iters=cell.iters, timeout=180)]
        want = Run(want.dicts)
        for lane in lanes:
            lane.close()
    else:
        got = observe_all(lanes, cell.iters)
    for run in got:
        assert_same_run(run, want)
    assert shared.compile_count == 1


SERVED = [Cell("lenet_b8", "superneurons", mode="infer",
               axis="greedy-fill")]


@cells(SERVED)
def test_served(cell):
    """Random-sized requests — padded, split, coalesced over three
    workers, arriving raggedly — get the rows solo sessions compute."""
    served = Engine(build(cell), config(cell))
    rng = np.random.default_rng(42)
    sizes = [int(s) for s in
             rng.integers(1, int(2.5 * served.batch_size) + 1, size=20)]
    datas = make_requests(served, sizes, seed=3)
    refs = tuple(solo_outputs(served, d) for d in datas)
    with InferenceServer(served, workers=3, max_wait=0.002) as server:
        futures = []
        for d in datas:
            futures.append(server.submit(d))
            if rng.random() < 0.3:   # ragged arrivals
                time.sleep(0.001)
        outs = tuple(f.result(timeout=60.0) for f in futures)
    assert all(out.dtype == np.float32 for out in outs)
    assert_same_run(Run((), outputs=outs), Run((), outputs=refs))


SIM_CONCRETE = [
    *(Cell("lenet", s, iters=3) for s in STACKS if "fabric" not in s),
    Cell("alexnet", "superneurons", iters=1), Cell("resnet", "fabric_peer_cpu"),
    Cell("small_resnet", "superneurons", iters=3, capacity=SMALLEST,
         axis="pressured"),
]


@cells(SIM_CONCRETE)
def test_sim_concrete(cell):
    """Simulated runs account every byte, time and placement alike."""
    sim, real = (observe(standalone(cell, concrete=c), cell.iters)
                 for c in (False, True))
    assert_same_run(sim.accounting(), real.accounting())


CAPACITY = [Cell("small_resnet", "superneurons", iters=3, capacity=SMALLEST,
                 axis="pressured"),
            Cell("small_resnet", "superneurons", iters=3, axis="any"),
            *PRESSURED]


@cells(CAPACITY)
def test_capacity(cell):
    """Concrete losses and parameters at any capacity that runs are the
    roomy run's; at the smallest (one byte less is OOM) every iteration
    evicts and drops, so the axis is live — simulated, the residency
    table makes them from iteration 2."""
    def check(cell):
        run = observe(standalone(cell), cell.iters)
        assert_same_run(run.values(),
                        reference(cell._replace(capacity=None, axis="")))
        return run

    if cell.axis == "pressured":
        run = check(cell)
        assert all(d["cache"]["evictions"] > 0 and d["cache"]["dropped"] > 0
                   for d in run.dicts)
        assert run.tabled == (0 if cell.concrete else cell.iters - 2)
        return

    @settings(max_examples=20, deadline=None)
    @given(capacity=st.integers(SMALLEST, ROOMY_PEAK))
    def drawn(capacity):
        check(cell._replace(capacity=capacity))
    drawn()

#: prediction counter -> the measured ``to_dict()`` path
COUNTERS = {**{k: k for k in ("param_bytes", "activation_peak_bytes",
                              "d2h_bytes", "h2d_bytes", "alloc_calls",
                              "extra_forwards")},
            "peak_gpu_bytes": "peak_bytes",
            "pressure_evictions": "cache.evictions",
            "clean_evictions": "cache.clean_evictions"}

#: eager offload fetches on demand each recomputation anchor (as DESIGN.md
#: says) and an output a later forward step reads again ("skip"); the
#: plan verifier calls each such fetch a missing prefetch
ON_DEMAND = pytest.mark.xfail(strict=True, reason="PLAN002 on demand")
EAGER_RECOMPUTE = [s for s in STACKS if s == "superneurons_eager"
                   or s.startswith("fabric")]
CHECKERS = [
    *(cell for cell in VALUES if cell.stack not in EAGER_RECOMPUTE),
    Cell("small_resnet", "superneurons"), CAPACITY[0],
    *(pytest.param(cell, marks=ON_DEMAND) for cell in (
        *(cell for cell in VALUES if cell.stack in EAGER_RECOMPUTE),
        Cell("skip", "offload_eager"))),
]


@cells(CHECKERS)
def test_checkers(cell):
    """The cost model counts what the compiled mode's iteration 0 does,
    and the plan verifier finds nothing."""
    def check(cell):
        compiler = Engine(build(cell), config(cell, concrete=False))
        net, compiled = compiler.net, compiler.compiled(cell.mode)
        eff = compiler.config.for_mode(cell.mode)
        pred = predict_compiled_mode(net, compiled, eff).to_dict()
        measured = observe(compiler.session(cell.mode), 1).dicts[0]
        assert {k: pred[k] for k in COUNTERS} == {
            k: functools.reduce(dict.get, path.split("."), measured)
            for k, path in COUNTERS.items()}
        assert verify_compiled_mode(net, compiled, eff) == []
    each_net(cell, check, stacks=tuple(
        s for s in RANDOM_STACKS if s not in EAGER))
