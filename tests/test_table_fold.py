"""The residency table's folded blocks (DESIGN.md "The residency table").

A table cuts its moves into blocks once, when it is built
(``core/plan.py::table_blocks``); each maximal run of calm moves is
folded into its net effect, and ``Executor._run_table`` applies that
effect at once wherever its guard holds.  The contract: a folded block
leaves the executor exactly as its moves run one by one would — the
state table, the compute clock and event ids, the allocator's books and
the executor's maps — and wherever the guard fails the moves run one by
one.  An allocator replaced on the instance (a pass-through wrapper)
forces the move-by-move path, so it is the reference lane.

Here: hand-made move lists, each run folded and through a wrapped
allocator; then whole sessions, folded against wrapped, iteration by
iteration, at the roomy, pressured and serving points
(``tests/test_overlap_sweep.py`` holds every point of the 5 x 5
capacity sweep to a lane that never replays, on the same substrate;
``tests/test_property_equivalence.py`` random nets at drawn
capacities to a wrapped lane).
"""

from types import SimpleNamespace

import pytest

from repro import Engine, RuntimeConfig, Session
from repro.core.plan import (
    ALLOC, COPY, FREE, PREFETCH, READ, SCRATCH, SUBMIT, UNSCRATCH, WAIT,
    MoveLog, ResidencyTable, table_blocks)
from repro.check import instrument
from repro.core.tensor_state import (
    ALLOWED_TRANSITIONS, IllegalPlacementTransition, ResidencyError,
    SessionTensorState)
from repro.device.gpu import OutOfMemoryError
from repro.device.timeline import Stream, Timeline
from repro.mempool.allocator import Allocation
from repro.tensors.tensor import Placement
from repro.zoo import NETWORK_BUILDERS, lenet

from tests.conftest import compiled_executor

GiB = 1 << 30


def wrap(allocator) -> None:
    """Replace ``alloc`` and ``free`` on the instance with pass-throughs:
    the table then calls them for every recorded move, one by one."""
    alloc, free = allocator.alloc, allocator.free
    allocator.alloc = lambda nbytes, tag="": alloc(nbytes, tag)
    allocator.free = lambda a: free(a)


def substrate(ex) -> tuple:
    """Everything a table run moves in the executor, besides its result:
    the compute clock and busy time, the next event id, the allocator's
    books, the state tables and the executor's maps, tensors by name (a
    net's tensor ids are its own)."""
    name = {t.tensor_id: t.name for layer in ex.net.layers for t in (
        layer.output, layer.grad_output, *layer.params, *layer.param_grads)
        if t is not None}
    tl, a, st = ex.timeline, ex.allocator, ex.state
    return (dict(tl.clock), dict(tl.busy), repr(tl._events),
            vars(a.stats).copy(), a.used_bytes, a.peak_bytes,
            [(name[tid], p) for tid, p in st._placement.items()],
            *({name[tid] for tid in ids}
              for ids in (st._live, st._host, st.arrivals, st._cleaning)),
            [(name[tid], h.nbytes, h.tag) for tid, h in ex._alloc_of.items()],
            [(h.nbytes, h.tag) for h in ex._ctx._scratch])


@pytest.fixture
def applied(monkeypatch):
    """The blocks :meth:`SessionTensorState.apply` folds, in order."""
    seen = []
    apply = SessionTensorState.apply

    def counted(self, block):
        seen.append(block)
        return apply(self, block)
    monkeypatch.setattr(SessionTensorState, "apply", counted)
    return seen


# -- hand-made move lists ------------------------------------------------------

T_ALLOC, T_FREE = 1.5e-6, 1.0e-6


class Rig:
    """A roomy simulated lenet session at rest after one iteration (its
    plan linked, the parameters its only allocations), into which a
    hand-made move list runs as a residency table."""

    def __init__(self, wrapped: bool) -> None:
        self.sess = Session(lenet(batch=2, image=12),
                            RuntimeConfig.superneurons(concrete=False))
        self.ex = ex = self.sess.executor
        self.sess.run_iteration(0)
        if wrapped:
            wrap(ex.allocator)
        layers = [l for l in ex.net.layers if l.output is not None]
        #: layer outputs and gradients to move: the barrier sweeps them
        self.t = [l.output for l in layers[1:]] \
            + [l.grad_output for l in layers[1:] if l.grad_output]

    def run(self, moves) -> None:
        ex = self.ex
        log = MoveLog(ex.timeline)
        log.moves = list(moves)
        log.result = SimpleNamespace(
            traces=(), workspace_choices=(), cache_hits=0, cache_misses=0,
            cache_evictions=0, cache_dropped=0, cache_clean_evictions=0,
            extra_forwards=0)
        a = ex.allocator
        table = ResidencyTable(ex._plan, a.signature(), log, len(moves),
                               (a._alloc_latency, a._free_latency))
        ex._run_table(table, ex._ctx)

    def barrier(self) -> None:
        """What ends an iteration: the sweep and its leak check."""
        self.ex.timeline.sync_all()
        self.ex._end_of_iteration_cleanup()


def both(moves, prepare=None):
    """Run ``moves(rig)`` folded and through a wrapped allocator, each
    on a fresh rig readied by ``prepare(rig)``; the two lanes' substrates
    after the run and after the barrier must be equal.  Returns the
    folding lane's rig, closed."""
    out = []
    for wrapped in (True, False):
        rig = Rig(wrapped)
        if prepare is not None:
            prepare(rig)
        rig.run(moves(rig))
        mid = substrate(rig.ex)
        rig.barrier()
        out.append((mid, substrate(rig.ex)))
        rig.sess.close()
    assert out[0] == out[1]
    return rig


def alloc_of(t, handle=1):
    return Allocation(handle, t.nbytes, t.name)


def next_event_id(timeline) -> int:
    """The id the timeline's next event takes, without taking it."""
    return int(repr(timeline._events)[len("count("):-1])


def test_alloc_then_free_of_one_tensor_in_one_block(applied):
    def moves(rig):
        t = rig.t[0]
        return [(ALLOC, t, alloc_of(t)), (SUBMIT, 2e-4, "k"), (READ, t, None),
                (FREE, t, None)]
    rig = both(moves)
    [block] = applied
    tid = rig.t[0].tensor_id
    assert block.ends == {tid: Placement.FREED}
    assert block.freed == {tid} and block.adds == () and block.reads == ()
    assert (block.used, block.rise) == (0, rig.t[0].nbytes)
    assert block.pops == () and block.assigns == {}
    assert block.increments == (T_ALLOC, 2e-4, T_FREE)
    assert rig.ex.state.placement(rig.t[0]) is Placement.FREED


def test_free_then_realloc_of_one_tensor_in_one_block(applied):
    """The tensor an earlier block allocated is freed and allocated
    again: its first allocation is popped from the executor's map, the
    second assigned, and it leaves the live set and joins it again."""
    def moves(rig):
        t = rig.t[0]
        return [(ALLOC, t, alloc_of(t, 1)), (SUBMIT, 1e-4, "named"),
                (FREE, t, None), (ALLOC, t, alloc_of(t, 2)),
                (WAIT, t, ("evict", 0))]
    rig = both(moves)
    first, second = applied
    t = rig.t[0]
    assert first.assigns == {t.tensor_id: alloc_of(t, 1)}
    assert second.pops == (t.tensor_id,)
    assert second.assigns == {t.tensor_id: alloc_of(t, 2)}
    assert second.freed == {t.tensor_id} and second.adds == (t.tensor_id,)
    assert (second.used, second.rise) == (0, 0)


def test_scratch_held_across_a_copy(applied):
    """A workspace reserved before a prefetch is given back after it:
    the first block ends holding it, as the copy sees, the last frees
    it."""
    scratch = Allocation(9, 4096)
    held = []

    def prepare(rig):
        copy = rig.ex._copy

        def seen(t, kind, after=None):
            held.append([(h.nbytes, h.tag) for h in rig.ex._ctx._scratch])
            return copy(t, kind, after=after)
        rig.ex._copy = seen

    def moves(rig):
        t, u = rig.t[0], rig.t[1]
        return [(ALLOC, t, alloc_of(t)), (SCRATCH, None, scratch),
                (PREFETCH, u, alloc_of(u, 2)), (COPY, u, ("prefetch", None)),
                (UNSCRATCH, None, None), (FREE, t, None)]
    rig = both(moves, prepare)
    assert held == [[(4096, "")]] * 2
    first, last = applied
    assert first.scratch == (scratch,)
    assert last.scratch == () and last.frees == 2
    assert last.used == -(rig.t[0].nbytes + scratch.nbytes)


def test_a_referenced_submit_closes_its_block(applied):
    """A kernel whose event a later wait names is not folded: it ends
    the calm run before it, whose kernels leave holes in the event
    list, so the wait still finds its event by ordinal."""
    def moves(rig):
        t = rig.t[0]
        return [(ALLOC, t, alloc_of(t)), (SUBMIT, 1e-4, "k0"),
                (SUBMIT, 2e-4, "k1"), (FREE, t, None), (WAIT, t, ("evict", 1))]
    waited = []

    def prepare(rig):
        wait = rig.ex._wait
        rig.ex._wait = lambda t, kind, ev: (waited.append(
            (ev.event_id - next_event_id(rig.ex.timeline), ev.label)),
            wait(t, kind, ev))
    rig = both(moves, prepare)
    blocks = table_blocks(moves(rig), T_ALLOC, T_FREE)
    assert [(b.calm, len(b.moves)) for b in blocks] == \
        [(True, 2), (False, 1), (True, 1), (False, 1)]
    assert blocks[0].holes == (None,) and blocks[0].kernels == 1
    assert waited == [(-1, "k1")] * 2  # the newest event, in either lane
    assert len(applied) == 2  # the folding lane's two calm blocks


def test_a_free_of_a_host_held_tensor_runs_move_by_move(applied):
    def prepare(rig):
        t = rig.t[0]
        rig.ex.state.to_gpu(t)
        rig.ex.state.to_host(t)
        rig.ex.fabric.stash(t.tensor_id, t.nbytes)
        evict = rig.ex.fabric.evict
        rig.evicted = []
        rig.ex.fabric.evict = lambda tid: (rig.evicted.append(tid),
                                           evict(tid))

    def moves(rig):
        t, u = rig.t[0], rig.t[1]
        return [(ALLOC, u, alloc_of(u)), (FREE, t, None), (FREE, u, None)]
    rig = both(moves, prepare)
    assert applied == []
    assert rig.evicted == [rig.t[0].tensor_id]
    assert not rig.ex.fabric.contains(rig.t[0].tensor_id)


@pytest.mark.parametrize("freed_first", [False, True],
                         ids=["never-placed", "freed-in-block"])
def test_a_read_off_the_gpu_raises_at_the_same_move(applied, freed_first):
    """The read of a tensor not on the GPU — one the block never placed,
    or one it freed itself — refuses as it would move by move, with
    the moves before it made and none after."""
    def moves(rig):
        t, u, v = rig.t[:3]
        head = [(ALLOC, t, alloc_of(t)), (FREE, t, None)] if freed_first \
            else []
        return head + [(ALLOC, u, alloc_of(u)), (READ, t, None),
                       (ALLOC, v, alloc_of(v))]
    seen = []
    for wrapped in (False, True):
        rig = Rig(wrapped)
        [block] = table_blocks(moves(rig), T_ALLOC, T_FREE)
        assert block.calm is not freed_first
        with pytest.raises(ResidencyError) as exc:
            rig.run(moves(rig))
        assert exc.value.rule == "PLAN001" and exc.value.tensor is rig.t[0]
        seen.append((str(exc.value), substrate(rig.ex)))
        assert rig.ex.state.on_gpu(rig.t[1])
        assert not rig.ex.state.on_gpu(rig.t[2])
        rig.ex._abort_iteration()
        rig.sess.close()
    assert seen[0] == seen[1]
    assert applied == []


def test_a_strict_validator_runs_move_by_move(applied):
    """The plan verifier's validator refuses FREED -> FREED, which a
    fold would not see: under it every move is checked."""
    for wrapped in (False, True):
        rig = Rig(wrapped)
        rig.ex.state.strict = True
        t = rig.t[0]
        assert rig.ex.state.placement(t) is Placement.FREED
        with pytest.raises(IllegalPlacementTransition):
            rig.run([(ALLOC, rig.t[1], alloc_of(rig.t[1])), (FREE, t, None)])
        rig.ex._abort_iteration()
        rig.sess.close()
    assert applied == []


def test_an_armed_race_trace_sees_every_move(applied):
    def moves(rig):
        t = rig.t[0]
        return [(ALLOC, t, alloc_of(t)), (FREE, t, None)]
    with instrument.capture():
        both(moves)
    assert applied == []


def test_advance_equals_as_many_submits():
    """Dependency-free kernels and allocator latencies advanced at once:
    the same clock and busy time, to the bit, and the same next id."""
    increments = [0.1, 1.5e-6, 0.2, 1e-6, 3.3e-4, 0.3, 7.77e-9] * 5
    one, many = Timeline(record_ops=False), Timeline(record_ops=False)
    for tl in (one, many):
        tl.submit(Stream.COMPUTE, 0.7)
    for d in increments:
        many.submit(Stream.COMPUTE, d)
    one.advance(Stream.COMPUTE, increments, len(increments))
    assert one.clock == many.clock and one.busy == many.busy
    assert next_event_id(one) == next_event_id(many) == 1 + len(increments)


def test_a_non_strict_validator_refuses_no_folded_move():
    """Why the fold may run with the placement validator armed: every
    placement may move to GPU and to FREED (or already is there)."""
    for old in Placement:
        for new in (Placement.GPU, Placement.FREED):
            assert old is new or (old, new) in ALLOWED_TRANSITIONS


# -- whole sessions: folded == wrapped, iteration by iteration -----------------

def lane(engine, mode, iters, validate, wrapped):
    """``iters`` iterations of a lane of ``engine``'s compiled ``mode``:
    each iteration's result and substrate, up to a refusal that ends
    the lane (its type and message); and the table iterations."""
    with compiled_executor(engine, mode) as ex:
        ex.state.validate = validate
        if wrapped:
            wrap(ex.allocator)
        run = []
        for i in range(iters):
            try:
                res = ex.run_iteration(i)
            except (OutOfMemoryError, ResidencyError) as exc:
                run.append((type(exc), str(exc)))
                break
            run.append((res.to_dict(), substrate(ex)))
        return run, ex.table_iterations


@pytest.mark.parametrize("net,batch,mode,gib", [
    ("resnet50", 32, "train", None),
    ("resnet50", 32, "train", 1.0),
    ("resnet50", 32, "train", 0.75),
    ("lenet", 8, "infer", None),
], ids=["resnet50-roomy", "resnet50@1GiB", "resnet50@0.75GiB", "lenet-infer"])
def test_folded_equals_move_by_move(applied, net, batch, mode, gib):
    """Four iterations, the last one or two from the table, folded with
    the validator armed and with it disarmed, each equal to a wrapped
    lane's (armed == disarmed move by move is
    ``tests/test_steady_state.py``'s)."""
    engine = Engine(NETWORK_BUILDERS[net](batch=batch),
                    RuntimeConfig.superneurons(
                        concrete=False,
                        gpu_capacity=None if gib is None else int(gib * GiB)))
    wrapped, tabled = lane(engine, mode, 4, True, True)
    for validate in (True, False):
        del applied[:]
        assert lane(engine, mode, 4, validate, False) == (wrapped, tabled)
        assert applied  # the folding lane folds
    assert tabled >= 1
