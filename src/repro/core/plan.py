"""The compiled iteration plan: every policy action, written once.

The paper's central observation (§3) is that liveness, offload/prefetch,
recomputation, and workspace decisions are *deterministic per topology*:
once the route is fixed, the same tensors die at the same steps, the
same checkpoints offload after the same kernels, the same segments
recompute on the same backward demands, and the same conv algorithms fit
the same free-byte landscape — every iteration.

So a policy *decides* and this module *acts*.  A decision is a schedule,
a :class:`PolicyPlan` the policy returns from ``compile_plan``; an act
is one of the op builders below, the only code that frees, offloads,
prefetches or provisions scratch on a built-in policy's behalf.  Every
built-in schedule follows from the route alone — the liveness free
lists, the UTP's eager offload and prefetch-ahead steps, the tensor
cache's return-trip need order and its victims' producer steps, the
conv steps whose workspace is picked — so every built-in policy answers
before iteration 0.  What depends on the moment is decided at the step:
a workspace op picks its algorithm from the bytes free then (memoised
on them), and recomputation's cleanup sweep is its ``after_step`` hook.

One dispatch rule holds for every policy, built-in or custom: every
hook a policy overrides fires, in its stack position, on every
iteration, and its plan only adds ops — at a hook site, a position's
plan ops run before its own hook.  :func:`link_iteration_plan` asks
each stack position for its plan and merges them, *in stack order*,
into one :class:`IterationPlan`: an array of :class:`CompiledStep`
records whose hook sites are prebound closure lists.  The executor has
one step loop and it always runs a linked plan, linked once, before its
first iteration (with ``steady_state_replay=False``, before every
iteration).  The rule's one exception is the :class:`ResidencyTable`:
an iteration run from one applies the recorded effect of a built-in
stack's hooks instead of dispatching them.

The ops keep every dynamic guard (offload-in-flight checks,
host-residency checks before prefetch, the workspace fragmentation
fallback); ``tests/reference_policies.py`` holds the hook-dispatch
bodies they replaced, and a differential test holds the two equal.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from repro.core.workspace import WorkspaceChoice
from repro.device.dma import CopyDirection
from repro.device.timeline import Stream
from repro.graph.route import Phase, Step
from repro.layers.base import Layer
from repro.layers.data import DataLayer
from repro.tensors.tensor import Tensor

#: A hook-site closure: ``op(ctx, step)``, prebound to executor internals.
StepOp = Callable[[object, Step], None]

#: The step hooks, in hook-site order: each is a :class:`CompiledStep`
#: site, where a stack position's plan ops run before its own hook.
STEP_HOOKS = (
    "before_step",
    "before_compute",
    "after_step",
    "on_step_settled",
)

#: The hooks no step site carries: the tensor hooks fire from the
#: executor's residency moves, the iteration brackets and the
#: recomputation trigger from its iteration, each through
#: :func:`listener_table`.  (``on_memory_pressure`` walks the stack
#: itself, because each policy's answer decides whether the next is
#: asked.)
LISTENER_HOOKS = (
    "on_tensor_dead",
    "on_tensor_released",
    "on_tensor_resident",
    "on_tensor_access",
    "on_iteration_start",
    "on_iteration_end",
    "on_backward_need",
)


@dataclass(frozen=True)
class PolicyPlan:
    """One policy's per-step decisions, as schedules the ops below run.

    Returned by :meth:`~repro.core.policy.MemoryPolicy.compile_plan`.
    Every field is optional; a policy fills only the schedules it owns.
    The empty ``PolicyPlan`` (the default answer) adds no op.

    Attributes
    ----------
    reap_before_step:
        Reap completed eager offloads before every step (eager UTP).
    step_frees:
        step index -> tensors to discard after the step (skipping any
        with an offload copy in flight) — the liveness free lists.
    step_offloads:
        step index -> checkpoint outputs whose eager D2H copy starts
        right after the step's kernel.
    step_prefetch:
        step index -> the next step's reads, in read order: the tensors
        prefetch-ahead considers once the step's frees settle (each is
        fetched only if host-resident at that moment — a live guard).
        Eager UTP only.
    return_trip:
        the tensor cache's *need order*: ``(step index, tensor)`` for
        every data tensor a backward step reads, at its first backward
        reader (kernel read or recompute-chain input), sorted by that
        step.  Which of them are on the host at the turn is pressure's
        call; :func:`_make_return_trip_ops` times the copies back.
    readers:
        tensor id -> every backward step that reads it, in route order,
        for every tensor in ``return_trip``: where
        :func:`_make_return_trip_ops` finds a line's *next* reader when
        it plans the trip again after a later eviction.  Empty: the turn
        is the only plan.
    producers:
        tensor id -> the forward step that produces it, for every data
        tensor the tensor cache may evict: where
        :func:`_make_recorded_clean_op` may start a recorded victim's
        clean copy.  Which tensors are victims is the session's own
        record, read at run time.
    workspace_steps:
        the conv steps, in route order: each gets a workspace op
        (:func:`make_workspace_op`) that picks its algorithm live.
    """

    reap_before_step: bool = False
    step_frees: Mapping[int, Tuple[Tensor, ...]] = field(default_factory=dict)
    step_offloads: Mapping[int, Tuple[Tensor, ...]] = field(default_factory=dict)
    step_prefetch: Mapping[int, Tuple[Tensor, ...]] = field(default_factory=dict)
    return_trip: Tuple[Tuple[int, Tensor], ...] = ()
    readers: Mapping[int, Tuple[int, ...]] = field(default_factory=dict)
    producers: Mapping[int, int] = field(default_factory=dict)
    workspace_steps: Tuple[int, ...] = ()


def kernel_seconds(step: Step, model) -> float:
    """A step's kernel at the default algorithm (the data layer's
    backward runs none)."""
    layer = step.layer
    if step.phase is Phase.FORWARD:
        return layer.sim_time_forward(model)
    return 0.0 if isinstance(layer, DataLayer) \
        else layer.sim_time_backward(model)


def kernel_clock(steps: Sequence[Step], model) -> List[float]:
    """The stall-free compute clock: entry ``i`` is when step ``i``'s
    kernel starts if nothing ever waits, the last entry when the
    iteration ends."""
    return list(accumulate((kernel_seconds(s, model) for s in steps),
                           initial=0.0))


class CompiledStep:
    """Everything the step loop needs for one step, precomputed."""

    __slots__ = (
        "step", "layer", "is_forward", "is_data", "trace_label",
        "phase_value", "submit_label", "duration", "reads", "output",
        "has_running_stats", "grads", "param_grads",
        "pinned", "before_ops", "compute_ops", "after_ops", "settled_ops",
    )

    def __init__(self, step: Step, model, route) -> None:
        layer = step.layer
        self.step = step
        self.layer = layer
        self.is_forward = step.phase is Phase.FORWARD
        self.is_data = isinstance(layer, DataLayer)
        self.phase_value = step.phase._value_
        self.trace_label = f"{layer.name}:{self.phase_value[0]}"
        self.before_ops: Tuple[StepOp, ...] = ()
        self.compute_ops: Tuple[StepOp, ...] = ()
        self.after_ops: Tuple[StepOp, ...] = ()
        self.settled_ops: Tuple[StepOp, ...] = ()
        self.duration = kernel_seconds(step, model)
        if self.is_forward:
            self.submit_label = f"fw:{layer.name}"
            self.reads = tuple(route.forward_reads(layer))
            self.output = layer.output
            self.has_running_stats = hasattr(layer, "update_running_stats")
            self.grads = ()
            self.param_grads = ()
            pinned = self.reads + (layer.output,)
        else:
            self.submit_label = f"bw:{layer.name}"
            self.reads = tuple(route.backward_reads(layer))
            self.output = layer.output
            self.has_running_stats = False
            #: the gradient read (if a later layer feeds one back), then
            #: the input gradients this step accumulates into
            self.grads = ((layer.grad_output,) if layer.next else ()) \
                + tuple(p.grad_output for p in layer.prev
                        if not isinstance(p, DataLayer))
            self.param_grads = tuple(layer.param_grads)
            pinned = self.reads + self.grads
        #: every tensor the step locks (one by one, as each becomes
        #: resident — lock order decides eviction victims); released in
        #: one sweep once the kernel is submitted
        self.pinned = pinned


@dataclass
class IterationPlan:
    """The merged, executor-ready schedule for one full iteration."""

    steps: List[CompiledStep]
    #: registry name -> plan, for every stack position
    plans: Dict[str, PolicyPlan]

    def __len__(self) -> int:
        return len(self.steps)


# --------------------------------------------------------------------------- #
# op builders: the one body of each built-in policy action, prebound
# --------------------------------------------------------------------------- #

def _make_reap_op(ex) -> StepOp:
    reap = ex._reap_offloads

    def op(ctx, step):
        reap()
    return op


def _make_frees_op(ex, frees: Tuple[Tensor, ...]) -> StepOp:
    discard = ex._discard

    def op(ctx, step):
        for t in frees:
            pending = ex._pending
            if pending and any(p.tensor is t for p in pending):
                continue  # eager offload in flight; reap handles it
            discard(t)
    return op


def _make_offload_op(ex, outputs: Tuple[Tensor, ...]) -> StepOp:
    offload = ex._offload_async

    def op(ctx, step):
        after = [ctx.last_compute_event] if ctx.last_compute_event else None
        for t in outputs:
            offload(t, after=after)
    return op


def _make_prefetch_op(ex, tensors: Tuple[Tensor, ...]) -> StepOp:
    prefetch = ex._prefetch_async
    state = ex.state  # session-local: the guard reads THIS session's view

    def op(ctx, step):
        for t in tensors:
            if state.on_host(t):
                prefetch(t)
    return op


def head_room(layers: Sequence[Layer]
              ) -> Tuple[List[int], List[int], List[int], List[int]]:
    """The return trip's reserve table over the route's steps, given by
    their layers; tabled at most once per link.

    ``sizes[j]`` is step ``j``'s working set ``l_j`` (its layer's
    ``l_i``, the paper's, derived once per net build).  For the route's
    suffix from step ``s`` on, ``top[s]`` is its largest ``l_j``,
    ``only[s]`` the one step that holds it (-1 when two do) and
    ``rest[s]`` its largest with that step left out — so the largest
    working set past a step, one step's excepted, is one lookup::

        rest[s] if only[s] == u else top[s]     # max l_j, j >= s, j != u
    """
    sizes = [layer.l_i for layer in layers]
    n = len(sizes)
    top, only, rest = [0] * (n + 1), [-1] * (n + 1), [0] * (n + 1)
    for s in range(n - 1, -1, -1):
        size, after = sizes[s], top[s + 1]
        if size > after:
            top[s], only[s], rest[s] = size, s, after
        elif size == after:
            top[s], rest[s] = size, size
        else:
            top[s], only[s] = after, only[s + 1]
            rest[s] = max(rest[s + 1], size)
    return sizes, top, only, rest


def _make_return_trip_ops(ex, need: Tuple[Tuple[int, Tensor], ...],
                          readers: Mapping[int, Tuple[int, ...]],
                          steps: List[CompiledStep]
                          ) -> Tuple[StepOp, StepOp]:
    """The just-in-time return trip of evicted lines: ``(turn, drain)``.

    ``turn`` runs once, when the last forward step has settled, and
    plans the trip: it takes the host-resident lines and schedules
    backwards from each one's deadline, its next backward reader,
    latest first, on a stall-free compute clock (the prefix sum of the
    steps' kernel durations)::

        start_k = min(T[use_k], start_{k+1}) - copy_time_k

    so that every copy lands as its reader starts and the H2D stream
    never has two at once — then queues each tensor, in need order,
    with the backward step whose settle precedes ``start_k``.  A chain
    source of a dropped victim is needed by that victim's first backward
    reader if that comes first (the cache's ``sources_due``).  ``drain``
    runs as every backward step settles (and at the turn) and issues
    the copies that have come due through ``_prefetch_async``, which
    allocates without evicting.  A copy for reader ``u``, checked as
    step ``i`` settles, is issued only while the bytes left free cover
    every working set still to come, the line's own counted in its
    reader's::

        free - nbytes >= max(max l_j for i < j != u, l_u - nbytes)

    (:func:`head_room`), which is never above ``l_peak``: after each copy
    the free bytes still cover every step to come.  A line still on the
    host past a reader that did not read it (a recompute chain's input
    the chain did not need) is held to the rule as it stood at that
    reader, ``max(l_u - nbytes, max l_j for j > u)``.  The iteration
    whose trip the drop choice reads reserves ``l_peak`` itself; the
    exact reserve applies once the drop set is chosen.
    A copy that is refused waits at the head of the queue for the next
    step's settle, and past its reader it has come back on demand.

    Pressure in backward evicts too.  Once the drop set is chosen, a
    drain that finds the cache has evicted since the last plan plans
    the trip again, from the step that settled, for every line on the
    host: each against its next reader in ``readers`` (none: it stays
    there).  With ``readers`` empty the turn is the only plan.  An
    iteration that evicted nothing pays one emptiness test at the turn
    and one counter test per step.  Until the cache has chosen its drop
    set, the turn records each line's queued step and the drain every
    step it refused a copy at (``TensorCache.trip_planned``,
    ``trip_refused``).
    """
    starts = list(accumulate((cs.duration for cs in steps), initial=0.0))
    entry = {t.tensor_id: (i, k, t) for k, (i, t) in enumerate(need)}
    state, fabric, allocator = ex.state, ex.fabric, ex.allocator
    copy_time = ex.dma.copy_time
    prefetch = ex._prefetch_async
    queue = ex._due_back
    cache = ex.cache  # this session's: its drops are its own
    sooner = cache.sources_due  # filled in place, once
    l_peak = ex.recompute_plan.l_peak  # = net.max_layer_bytes()
    # the steps' layers, not the steps: an op must not hold the steps
    # that hold it, or a closed executor would leave a cycle behind
    layers = [cs.layer for cs in steps]
    exact = False  # this iteration reserves per copy, not l_peak
    room = None  # head_room(layers), tabled when a trip first needs it
    refused = None  # while the drop set is open: the steps short of room
    seen = 0  # the cache's evictions when the trip was last planned

    def plan(after: int, planned) -> None:
        """Queue every host line against its first reader past step
        ``after`` (at the turn: its first backward reader), or its
        dropped victim's first reader if that comes first."""
        nonlocal seen, room
        if exact and room is None:
            room = head_room(layers)
        seen = cache.evictions
        queue.clear()
        need_order = []
        for tid in state.host_ids():
            if tid not in entry:
                continue
            use, k, t = entry[tid]
            if use <= after:
                later = readers[tid]
                j = bisect_right(later, after)
                if j == len(later):
                    continue  # backward reads it no more
                use = later[j]
            src = sooner.get(tid)
            if src is not None and after < src < use:
                use = src
            need_order.append((use, k, t))
        start = starts[-1]
        for use, _k, t in sorted(need_order, reverse=True):
            if not state.on_host(t):
                continue  # a clean line: valid host copy, GPU-resident
            pool = fabric.pool_of(t.tensor_id)
            start = min(starts[use], start) - copy_time(
                t.nbytes, CopyDirection.H2D, pool.h2d_scale if pool else 1.0)
            # settle of step j is the start of j + 1
            due = bisect_right(starts, start) - 2
            queue.appendleft((due, t, use))
            if planned is not None:
                planned[t.tensor_id] = due

    def drain(ctx, step):
        if readers and cache.evictions != seen and not cache.choosing:
            plan(step.index, None)
        s = step.index + 1  # the steps still to come
        while queue and queue[0][0] < s:
            _due, t, use = queue[0]
            if state.on_host(t):
                nbytes = t.nbytes
                if not exact:
                    reserve = l_peak
                else:
                    sizes, top, only, rest = room
                    if use < s:  # past a reader that did not read it
                        reserve = max(top[use + 1], sizes[use] - nbytes)
                    elif only[s] == use:
                        reserve = max(rest[s], sizes[use] - nbytes)
                    else:
                        reserve = top[s]
                if not (allocator.free_bytes - nbytes >= reserve
                        and prefetch(t)):
                    if refused is not None:
                        refused.add(step.index)
                    return  # deferred, and everything needed after it
            queue.popleft()

    def turn(ctx, step):
        nonlocal exact, refused, seen
        exact = not cache.choosing
        refused = planned = None
        seen = cache.evictions
        if not state.host_ids():
            return
        if cache.choosing:  # the drop choice reads what this trip meets
            planned = cache.trip_planned = {}
            refused = cache.trip_refused = set()
        plan(step.index, planned)
        drain(ctx, step)
    return turn, drain


def _make_recorded_clean_op(ex, producers: Mapping[int, int]) -> StepOp:
    """Clean what pressure will take, as soon as it exists.

    Runs as every forward step settles.  ``due`` is the last completed
    iteration's victims in eviction order (``TensorCache.begin_iteration``
    refills it): the op walks it from the head, starting the D2H copy
    of each victim whose producer has run and that is still on the GPU,
    ordered after the kernel just submitted.  It stops at the first
    victim whose producer has not run yet, so the FIFO D2H stream
    carries the copies in the order pressure will consume them.  A
    prediction that does not come true costs a copy, never a byte of
    peak: the line stays cached and ``_discard`` retires the copy.  An
    iteration after one that evicted nothing pays one emptiness test
    per forward step.
    """
    due = ex.cache.due_clean  # this session's victim record
    on_gpu = ex.state.on_gpu
    clean = ex._clean_async

    def op(ctx, step):
        if not due:
            return
        i = step.index
        after = [ctx.last_compute_event]
        while due and producers[due[0].tensor_id] <= i:
            t = due.popleft()
            if on_gpu(t):
                clean(t, after=after)
    return op


def make_workspace_op(model, selector, step: Step) -> StepOp:
    """Provision one conv execution: pick the fastest algorithm whose
    workspace fits the bytes free now, reserve its scratch, fall back to
    the zero-workspace algorithm when fragmentation defeats the
    reservation, set the step's duration.

    The pick is a pure function of the free bytes, so the op memoises
    it on them: a fixed topology shows each step the same free bytes
    every iteration, and then the selector only logs the pick again."""
    layer = step.layer
    phase = step.phase._value_
    sim_time = layer.sim_time_forward if step.phase is Phase.FORWARD \
        else layer.sim_time_backward
    tag = f"ws:{layer.name}"
    seen, pick, duration = -1, None, 0.0  # free bytes -> pick, its time

    def op(ctx, step):
        nonlocal seen, pick, duration
        free = ctx.free_bytes
        if free == seen:
            choice = selector.record(pick)
        else:
            choice = pick = selector.select(layer, free, phase)
            seen, duration = free, sim_time(model, pick.algo)
        dur = duration
        ws_bytes = choice.assigned_ws
        if ws_bytes > 0 and ctx.alloc_scratch(ws_bytes, tag=tag) is None:
            # fragmentation: fall back to the zero-workspace algo
            choice = zero_workspace(model, selector, layer, choice,
                                    ctx.free_bytes)
            dur = sim_time(model, choice.algo)
        ctx.set_duration(dur)
        ctx.set_workspace(choice)
    return op


def zero_workspace(model, selector, layer, choice: WorkspaceChoice,
                   free: int) -> WorkspaceChoice:
    """The fallback when a pick's scratch cannot be reserved: log the
    zero-workspace algorithm in its place."""
    return selector.replace_last(WorkspaceChoice(
        layer.name, choice.phase, layer.algorithms(model)[0], free,
        choice.max_speed_algo))


# --------------------------------------------------------------------------- #
# plan compilation: one link per executor, closures over its substrate
# --------------------------------------------------------------------------- #

def listener_table(ex) -> Dict[str, tuple]:
    """Bound-method dispatch lists for the hooks no hook site carries:
    per hook, the policies that actually override it, in stack order —
    a hook nobody implements costs one empty-tuple loop, not a stack
    walk."""
    overrides = ex._overrides
    return {hook: tuple(getattr(p, hook) for p in ex.policies
                        if overrides(p, hook))
            for hook in LISTENER_HOOKS}


#: A residency table's moves, each one ``(op, a, b)``.  A calm
#: iteration makes the first six kinds: ``ALLOC`` a tensor ``a``, ``b``
#: the allocation it got; ``SCRATCH`` reserve step scratch, ``b`` the
#: allocation; ``FREE`` a tensor ``a``; ``UNSCRATCH`` free the step's
#: scratch; ``SUBMIT`` a compute kernel of ``a`` seconds labelled ``b``;
#: ``READ`` a tensor ``a``.  Pressure adds the rest: ``PREFETCH``
#: allocate tensor ``a``'s bytes for the H2D copy that follows, ``b``
#: the allocation; ``TO_HOST`` move ``a`` to its host copy and free its
#: GPU bytes; ``EXHAUSTED`` an allocation of ``a`` bytes tagged ``b``
#: that fails; ``COPY`` tensor ``a``, ``b`` = (kind, the ordinals of its
#: ``after`` events), a ``clean`` copy making the line cleaning and a
#: ``prefetch`` one its arrival; ``WAIT`` for a copy of ``a``, ``b`` =
#: (kind, its event's ordinal), a ``prefetch`` wait retiring the
#: arrival.  An event's ordinal counts the iteration's ``SUBMIT`` and
#: ``COPY`` moves before it.  The moves that allocate come first and
#: those that free next, so a table run tells them apart by range.
ALLOC, PREFETCH, SCRATCH, FREE, TO_HOST, UNSCRATCH, \
    SUBMIT, READ, EXHAUSTED, COPY, WAIT = range(11)


class MoveLog:
    """One iteration's ``moves`` (see :data:`ALLOC`; on through the
    barrier) and, captured only while recording, what the cost model
    folds them with (:func:`repro.check.cost_model.fold`): ``events``,
    each ``SUBMIT`` and ``COPY`` event's id -> its ordinal; ``facts``,
    move ordinal -> a ``COPY``'s ``(rate scale, x, arrival)`` (``x`` the
    return leg's H2D scale for a D2H copy, the compute clock at issue
    for an H2D one), a ``WAIT``'s stall, an eager offload's ``TO_HOST``
    release clock; ``steps``, ``(ordinal, kernel end, kernel seconds)`` as each
    step settles (no kernel: the clock, 0 s); ``rebuilds``, ``(ordinal,
    anchor name, strategy, layer ids)`` as each rebuild begins, whose
    layers' later ``recompute:`` kernels are its own until another
    claims them.  ``t0`` and ``busy`` are the timeline's elapsed and
    busy time at the start (``busy`` the deltas once ended), and
    ``host_peak`` and ``result`` the host pools' peak and the result.
    """

    __slots__ = ("moves", "events", "facts", "steps", "rebuilds", "t0",
                 "busy", "host_peak", "result")

    def __init__(self, timeline) -> None:
        self.moves: list = []
        self.events: Dict[int, int] = {}
        self.facts: Dict[int, object] = {}
        self.steps: List[Tuple[int, float, float]] = []
        self.rebuilds: List[tuple] = []
        self.t0 = timeline.elapsed
        self.busy = {s: timeline.busy_time(s) for s in Stream}
        self.host_peak, self.result = 0, None


class ResidencyTable:
    """One steady iteration of a linked plan, recorded flat.

    A built-in stack's hooks and ops decide the same moves every
    iteration that starts where the last one started (paper §3): one
    that meets no pressure, or one whose tensor cache is at a fixed
    point.  So the executor records one such iteration and runs the next
    ones from the record: the moves in order up to the iteration barrier
    (``ops``, see :data:`ALLOC`), then the step trace rows, the workspace
    picks and the counter deltas the policies' hooks would have made
    (the recorded result's).  ``start`` is the allocator's
    :meth:`~repro.mempool.allocator.Allocator.signature` the record
    began at; the table runs only from there, under ``plan``.  ``log``
    is the whole record, which the cost model folds like any other.
    """

    __slots__ = ("plan", "start", "ops", "traces", "choices", "log")

    def __init__(self, plan: IterationPlan, start: tuple, log: MoveLog,
                 end: int) -> None:
        self.plan = plan
        self.start = start
        self.ops = log.moves[:end]
        self.traces = tuple(log.result.traces)
        self.choices = tuple(log.result.workspace_choices)
        self.log = log


def link_iteration_plan(ex) -> IterationPlan:
    """Ask ``ex``'s policies for their plans and bind them to its
    substrate as closures."""
    ctx = ex._ctx
    plans = [p.compile_plan(ctx) for p in ex.policies]
    overrides = ex._overrides  # one override-detection rule, one place
    # stack position -> every step hook it overrides, as (site, method)
    hooks = [[(site, getattr(p, hook))
              for site, hook in enumerate(STEP_HOOKS) if overrides(p, hook)]
             for p in ex.policies]
    reap_op = _make_reap_op(ex)

    steps = [CompiledStep(step, ex.model, ex.route)
             for step in ex.route.steps]
    turn_index = ex.route.num_layers - 1  # the last forward step
    # stack position -> its (turn, drain) pair
    trips = {n: _make_return_trip_ops(ex, pp.return_trip,
                                         pp.readers, steps)
             for n, pp in enumerate(plans) if pp.return_trip}
    cleans = {n: _make_recorded_clean_op(ex, pp.producers)
              for n, pp in enumerate(plans) if pp.producers}
    # stack position -> the steps its workspace ops provision
    workspace = {n: set(pp.workspace_steps) for n, pp in enumerate(plans)
                 if pp.workspace_steps}
    for cs in steps:
        step = cs.step
        i = step.index
        before: List[StepOp] = []
        compute: List[StepOp] = []
        after: List[StepOp] = []
        settled: List[StepOp] = []
        sites = (before, compute, after, settled)  # STEP_HOOKS order
        for n, (p, pp) in enumerate(zip(ex.policies, plans)):
            if pp.reap_before_step:
                before.append(reap_op)
            offloads = pp.step_offloads.get(i)
            if offloads:
                after.append(_make_offload_op(ex, offloads))
            frees = pp.step_frees.get(i)
            if frees:
                after.append(_make_frees_op(ex, frees))
            prefetch = pp.step_prefetch.get(i)
            if prefetch:
                settled.append(_make_prefetch_op(ex, prefetch))
            if n in cleans and i <= turn_index:
                settled.append(cleans[n])
            if n in trips and i >= turn_index:
                settled.append(trips[n][i > turn_index])
            if n in workspace and i in workspace[n]:
                compute.append(make_workspace_op(ex.model, p.selector, step))
            for site, fn in hooks[n]:
                sites[site].append(fn)
        cs.before_ops = tuple(before)
        cs.compute_ops = tuple(compute)
        cs.after_ops = tuple(after)
        cs.settled_ops = tuple(settled)
    return IterationPlan(
        steps=steps,
        plans={p.key: pp for p, pp in zip(ex.policies, plans)})
