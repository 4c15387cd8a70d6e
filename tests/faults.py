"""The unhappy-path harness: what must hold after a fault, and the faults.

Fault tests drive a session, a server or a fleet through rejections,
bad calls, failing seams and shutdown, then ask one question — is
everything accounted for and at rest?  :func:`assert_quiescent` is that
question, asked the same way for a :class:`~repro.core.session.Session`
(or its executor), an :class:`~repro.serve.server.InferenceServer` and
a :class:`~repro.serve.fleet.ServingFleet`.

A :class:`FaultPlan` makes one executor seam raise at its *k*-th call:
a DMA copy, an eviction, an allocation, a forward re-run inside the
rebuild of a victim the tensor cache dropped, one outside any such
rebuild (a segment's recomputation), a layer's forward or backward
step, or a hook the executor calls on a stack policy.  The seams are
wrapped
from outside, as ``benchmarks/ledger`` wraps the allocator: ``src/`` has
no injection point.  The simulator is
deterministic, so ``(seam, k)`` names one call of one iteration on every
run — a failing example is its own seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

import pytest

from repro import Session
from repro.core.plan import LISTENER_HOOKS, STEP_HOOKS
from repro.core.runtime import Executor
from repro.obs.export import build_chrome_trace, validate_trace


def lanes(front) -> list:
    """The servers behind ``front`` (a fleet's lanes, or the server)."""
    return list(front.servers.values()) if hasattr(front, "servers") \
        else [front]


def assert_quiescent(front, futures=(), tracer=None) -> None:
    """``front`` is at rest.

    A session or executor, between iterations (after a completed one, an
    aborted one, or ``close()``): no byte, pin or copy of an iteration is
    left — the allocator holds the parameters and nothing else, the heap
    pool's invariants hold, the locked tensors are exactly the
    parameters, and no cleaning line, arrival, return-trip entry,
    pending offload or fabric stash remains.

    A server or fleet, after ``stop()``: every offered request resolved
    exactly one way, every future is done and no worker thread is alive.
    ``futures`` are the futures of every admitted request.  A shed
    request was offered but never admitted, so ``completed + failed +
    shed == offered`` says every admission (the queues' own count, one
    future each) resolved completed or failed.  With ``tracer`` (armed
    for the whole run) the exported trace must also validate: one
    closed root per offered request, partitioned by status exactly as
    ``front.metrics.counts()`` says.
    """
    if isinstance(front, Session):
        front = front.executor
    if isinstance(front, Executor):
        _assert_executor_quiescent(front)
        return
    completed, failed, shed = front.metrics.counts()
    admitted = sum(server.queue.submitted for server in lanes(front))
    assert completed + failed == admitted == len(futures), (
        f"completed={completed} + failed={failed} (shed={shed}) vs "
        f"{admitted} admitted and {len(futures)} futures")
    pending = [i for i, f in enumerate(futures) if not f.done()]
    assert pending == [], f"unresolved futures: {pending}"
    alive = [t.name for server in lanes(front)
             for t in server._threads if t.is_alive()]
    assert alive == [], f"workers alive after stop(): {alive}"
    if tracer is not None:
        doc = build_chrome_trace(
            tracer, timelines=front.session_timelines(),
            counts={"completed": completed, "failed": failed,
                    "shed": shed})
        assert validate_trace(doc) == []


def _assert_executor_quiescent(ex: Executor) -> None:
    residual = ex.allocator.used_bytes - ex.param_bytes
    assert residual == 0, f"{residual} bytes beyond the parameters"
    pool = getattr(ex.allocator, "pool", None)
    if pool is not None:
        pool.check_invariants()
    params = {p.tensor_id for layer in ex.net.layers for p in layer.params}
    assert ex.state.locked_ids() == params, "pins beyond the parameters"
    state = ex.state
    assert (state.cleaning_count(), len(state.arrivals), len(ex._due_back),
            len(ex._pending)) == (0, 0, 0, 0), "copies still tracked"
    assert (ex.fabric.count, ex.fabric.used_bytes()) == (0, 0), \
        "host stashes left"


def clockless(result: dict) -> dict:
    """An ``IterationResult.to_dict()`` to compare against another run's:
    every float is matched to 1e-9 and everything else exactly.  A fault
    moves the session's clock, and a duration read as the difference of
    two later clock readings differs in its last bits."""
    if isinstance(result, dict):
        return {k: clockless(v) for k, v in result.items()}
    if isinstance(result, list):
        return [clockless(v) for v in result]
    if isinstance(result, float):
        return pytest.approx(result, rel=1e-9, abs=1e-12)
    return result


# -- executor faults -----------------------------------------------------------

class InjectedFault(RuntimeError):
    """What a :class:`FaultPlan` raises."""


#: seam name -> its installer, ``install(executor, plan)``: wraps the
#: seam so that every call reports to ``plan.trip(what)``
SEAMS: Dict[str, Callable[[Executor, "FaultPlan"], None]] = {}


def seam(name: str):
    """Decorator: register a seam installer under ``name``."""
    def register(install):
        SEAMS[name] = install
        return install
    return register


@dataclass
class FaultPlan:
    """Raise :class:`InjectedFault` at the ``k``-th call (1-based) of
    seam ``seam``, counting from :meth:`arm`.  ``seen`` names the calls
    made while armed, the raising one last; ``k=0`` only records."""

    seam: str
    k: int
    armed: bool = False
    seen: List[str] = field(default_factory=list)

    def install(self, ex: Executor) -> "FaultPlan":
        SEAMS[self.seam](ex, self)
        return self

    def arm(self) -> None:
        self.armed = True
        self.seen.clear()

    def trip(self, what: str) -> None:
        if not self.armed:
            return
        self.seen.append(what)
        if len(self.seen) == self.k:
            self.armed = False
            raise InjectedFault(f"{self.seam} #{self.k}: {what}")


def copy_kind(kind: str, after) -> str:
    """A DMA call's name: its call site, with a ``clean`` told apart by
    who issued it — the recorded-clean op orders its copy after a
    kernel, write-behind does not."""
    if kind == "clean":
        return "recorded clean" if after else "write-behind clean"
    return kind


@seam("copy")
def _copy_seam(ex: Executor, plan: FaultPlan) -> None:
    """Every DMA the executor issues; the faulting one is never
    submitted."""
    copy = ex._copy

    def faulty(t, kind, after=None):
        plan.trip(f"{copy_kind(kind, after)} {t.name}")
        return copy(t, kind, after=after)
    ex._copy = faulty


@seam("evict")
def _evict_seam(ex: Executor, plan: FaultPlan) -> None:
    """``TensorCache.evict_for``'s callback; the faulting call moves its
    victim first and raises after, so the walk stops with the line on
    the host but neither counted nor recorded."""
    evict = ex._evict_to_host

    def faulty(t):
        freed = evict(t)
        plan.trip(t.name)
        return freed
    ex._evict_to_host = faulty


@seam("alloc")
def _alloc_seam(ex: Executor, plan: FaultPlan) -> None:
    """Every allocation the executor asks for — tensors, scratch, return
    -trip lines, pressure retries; the faulting one is never made."""
    alloc = ex.allocator.alloc

    def faulty(nbytes, tag=""):
        plan.trip(tag)
        return alloc(nbytes, tag)
    ex.allocator.alloc = faulty


def _recompute_seam(in_rebuild: bool):
    """``RecomputePolicy._run_forward``, the forwards a dropped victim's
    rebuild re-runs (``in_rebuild``: its chain, then the conv itself)
    or every other one (a speed-centric segment's members, a
    memory-centric chain); the faulting one runs nothing."""
    def install(ex: Executor, plan: FaultPlan) -> None:
        policy = ex._recompute_policy
        rebuild, run = policy._rebuild, policy._run_forward
        rebuilding = []

        def faulty_rebuild(ctx, conv):
            rebuilding.append(conv)
            try:
                return rebuild(ctx, conv)
            finally:
                rebuilding.pop()

        def faulty_run(ctx, layer):
            if rebuilding and in_rebuild:
                plan.trip(f"{layer.name} for {rebuilding[-1].name}")
            elif not rebuilding and not in_rebuild:
                plan.trip(layer.name)
            return run(ctx, layer)
        policy._rebuild, policy._run_forward = faulty_rebuild, faulty_run
    return install


seam("rebuild")(_recompute_seam(in_rebuild=True))
seam("recompute")(_recompute_seam(in_rebuild=False))


def _layer_seam(phase: str):
    """The step loop's ``_forward`` / ``_backward``: the faulting step
    raises once its kernel is submitted — operands resident and pinned,
    output allocated, workspace scratch held.  The data layer's backward
    runs no kernel and is no call."""
    def install(ex: Executor, plan: FaultPlan) -> None:
        run, free_scratch = getattr(ex, f"_{phase}"), ex._free_step_scratch
        running = []

        def faulty_run(cs, ctx, *args):
            running.append(cs)
            try:
                return run(cs, ctx, *args)
            finally:
                running.pop()

        def faulty_free(ctx):
            if running:
                plan.trip(running[-1].trace_label)
            return free_scratch(ctx)
        setattr(ex, f"_{phase}", faulty_run)
        ex._free_step_scratch = faulty_free
    return install


seam("forward")(_layer_seam("forward"))
seam("backward")(_layer_seam("backward"))


@seam("hook")
def _hook_seam(ex: Executor, plan: FaultPlan) -> None:
    """Every call the executor makes to a stack policy's hooks: the
    step-site hooks, the tensor hooks, the iteration brackets,
    ``on_backward_need`` and ``on_memory_pressure`` (asked of each
    policy in turn until one answers); the faulting call runs nothing.
    The hooks are wrapped on the policy instances, so the seam goes in
    before the executor's first link binds them."""
    for p in ex.policies:
        for hook in (*STEP_HOOKS, *LISTENER_HOOKS, "on_memory_pressure"):
            def faulty(ctx, *args, call=getattr(p, hook),
                       what=f"{p.key}.{hook}"):
                if args:  # named by its tensor, step or byte count
                    subject = args[0]
                    name = getattr(subject, "name", None) \
                        or getattr(subject, "index", subject)
                    what += f" {name}"
                plan.trip(what)
                return call(ctx, *args)
            setattr(p, hook, faulty)
