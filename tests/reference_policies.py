"""The built-in policies as hook-dispatching bodies, kept as test references.

Until PR 22 every built-in policy carried each per-step decision twice:
as a hook body that ran on recording iterations and as a
``compile_plan`` schedule plus a ``core/plan.py`` op that ran on every
later one.  The shipped policies now only produce schedules and the ops
are the one place that acts.  These subclasses are the hook bodies that
were deleted, moved here unchanged: each answers ``compile_plan`` with
the empty ``PolicyPlan()`` — the custom-policy default, which adds no
op — and, like every policy, receives every hook it overrides, so a
stack built from them decides everything live, per step, through the
``StepContext`` operations alone, on every iteration.  They are slow and
obviously right, which is what a reference is for;
``test_reference_policies.py`` holds the compiled stack to them.

:class:`TurnOnlyCachePolicy`, :class:`WriteBehindCachePolicy` and
:class:`CopyEveryVictimPolicy` are the other kind of twin: not hook
bodies but retired schedules.  The first plans the return trip at the
turn and never again, before a line evicted later joined it, and in an
iteration with no victim record it cleans write-behind, one pressure
event ahead, as every first iteration did before each executor started
from its mode's scout; the second, on that trip, is the cache mode that
only ever cleaned that way, before the tensor cache recorded its
victims; the third, on it too, records and cleans them but copies every
one, before the cache dropped any.  ``test_overlap_sweep.py`` holds the
shipped cache mode to all three.
"""

from dataclasses import replace

from repro.core.config import OFFLOAD_TYPES
from repro.core.plan import PolicyPlan
from repro.core.policy import (
    LivenessPolicy,
    MemoryPolicy,
    OffloadCachePolicy,
    RecomputePolicy,
    WorkspacePolicy,
    resolve_policies,
)
from repro.core.workspace import WorkspaceChoice
from repro.graph.route import Phase
from repro.layers.conv import Conv2D


class ReferenceLivenessPolicy(LivenessPolicy):
    def compile_plan(self, ctx):
        return PolicyPlan()

    def after_step(self, ctx, step):
        for t in ctx.plan.frees(step.index):
            if ctx.offload_in_flight(t):
                continue  # eager offload in flight; reap handles it
            ctx.discard(t)


class ReferenceOffloadCachePolicy(OffloadCachePolicy):
    def compile_plan(self, ctx):
        return PolicyPlan()

    def before_step(self, ctx, step):
        ctx.reap_offloads()

    def after_step(self, ctx, step):
        # Eager UTP offload: the D2H copy overlaps the following forward
        # compute (it is ordered after this step's kernel event, and
        # must register before liveness frees run so they skip it).
        if self.cache_mode or step.phase is not Phase.FORWARD:
            return
        layer = step.layer
        if layer.ltype in OFFLOAD_TYPES:
            after = [ctx.last_compute_event] if ctx.last_compute_event else None
            ctx.offload(layer.output, after=after)

    def on_step_settled(self, ctx, step):
        # Prefetch-ahead (paper §3.3.1): start the H2D fetch of the next
        # backward step's host-resident reads so it overlaps this step's
        # compute.  Issued after the step's frees, so tensors land
        # just-in-time and the measured peak stays at l_peak.  Eager
        # mode only, like the shipped schedule it mirrors: PR 24 gave
        # cache mode the return trip (``core/plan.py``), which has no
        # hook body to keep — this twin fetches on demand there, and
        # ``test_overlap_sweep.py`` pins what pressure then costs.
        if step.phase is Phase.BACKWARD and not self.cache_mode:
            self._prefetch_ahead(ctx, step)

    def _prefetch_ahead(self, ctx, step):
        nxt = step.index + 1
        if nxt >= len(ctx.route.steps):
            return
        state = ctx.state
        for t in ctx.reads_at(nxt, include_synthetic=False):
            if state.on_host(t):
                ctx.prefetch(t)


class ReferenceRecomputePolicy(RecomputePolicy):
    """The shipped policy: it answers the empty plan, and its cleanup
    sweep is its ``after_step``."""


class ReferenceWorkspacePolicy(WorkspacePolicy):
    def compile_plan(self, ctx):
        return PolicyPlan()

    def before_compute(self, ctx, step):
        layer = step.layer
        if not isinstance(layer, Conv2D):
            return
        phase = "forward" if step.phase is Phase.FORWARD else "backward"
        choice = self.selector.select(layer, ctx.free_bytes, phase)
        if choice.assigned_ws > 0:
            scratch = ctx.alloc_scratch(choice.assigned_ws,
                                        tag=f"ws:{layer.name}")
            if scratch is None:
                # fragmentation: fall back to the zero-workspace algo
                choice = WorkspaceChoice(
                    layer.name, phase,
                    layer.algorithms(ctx.model)[0],
                    ctx.free_bytes,
                    choice.max_speed_algo,
                )
                self.selector.replace_last(choice)
        if phase == "forward":
            ctx.set_duration(layer.sim_time_forward(ctx.model, choice.algo))
        else:
            ctx.set_duration(layer.sim_time_backward(ctx.model, choice.algo))
        ctx.set_workspace(choice)


class TurnOnlyCachePolicy(OffloadCachePolicy):
    """Cache mode whose return trip is planned at the turn and never
    again: a line evicted later comes back when its reader asks.  With
    no victim record, each pressure event that evicted also starts the
    D2H copies of the lines the next one will take (write-behind)."""

    def compile_plan(self, ctx):
        return replace(super().compile_plan(ctx), readers={})

    def on_memory_pressure(self, ctx, nbytes, tag, retry):
        ctx.reap_offloads()
        a = retry()
        if a is not None:
            return a
        while ctx.pending_offloads:
            ctx.force_reap_one()
            a = retry()
            if a is not None:
                return a
        evicted = 0
        while True:
            freed = self.cache.evict_for(nbytes, self._evict,
                                         ctx.step.index)
            evicted += freed
            a = retry()
            if a is not None:
                if not self.cache.predicted:
                    clean_ahead(self.cache, evicted, ctx._ex._clean_async)
                return a
            if freed == 0:
                return None


def clean_ahead(cache, nbytes, clean):
    """Write-behind, one pressure event ahead: hand ``clean`` the
    unlocked lines an ``evict_for(nbytes)`` issued now would take, in
    victim order, removing nothing.  It starts a D2H copy of the dirty
    ones, so the event that does evict them finds clean lines and drops
    them for free."""
    locked = cache._state.locked
    order = reversed(cache.lines.values()) if cache.policy == "lru" \
        else cache._sorted_order()
    passed = 0
    for t in order:
        if passed >= nbytes:
            break
        if not locked(t):
            clean(t)
            passed += t.nbytes


class WriteBehindCachePolicy(TurnOnlyCachePolicy):
    """Cache mode without recorded victims: write-behind cleans the lines
    the next pressure event will take and nothing earlier.  It records
    nothing and links no recorded-clean op; the return trip is the
    turn-only one."""

    on_iteration_start = MemoryPolicy.on_iteration_start

    def on_iteration_end(self, ctx):
        # no record and no drop set, but the choice is over: the return
        # trip reserves per copy from the second iteration on
        self.cache.choosing = False

    def compile_plan(self, ctx):
        return replace(super().compile_plan(ctx), producers={})


class CopyEveryVictimPolicy(TurnOnlyCachePolicy):
    """Cache mode with recorded victims that drops none: every victim is
    copied out and brought back on the turn-only return trip."""

    def _choose_drops(self, ctx):
        return {}, {}


REFERENCE_OF = {
    LivenessPolicy: ReferenceLivenessPolicy,
    OffloadCachePolicy: ReferenceOffloadCachePolicy,
    RecomputePolicy: ReferenceRecomputePolicy,
    WorkspacePolicy: ReferenceWorkspacePolicy,
}


def reference_stack(config):
    """The stack ``config`` denotes, position for position, built from
    the dispatching references."""
    return [REFERENCE_OF[type(p)].from_config(config)
            for p in resolve_policies(config)]


def cache_twin_stack(twin):
    """``stack(config)``: the shipped stack ``config`` denotes, with its
    offload policy swapped for ``twin``."""
    def stack(config):
        return [twin.from_config(config)
                if type(p) is OffloadCachePolicy else p
                for p in resolve_policies(config)]
    return stack


turn_only_stack = cache_twin_stack(TurnOnlyCachePolicy)
write_behind_stack = cache_twin_stack(WriteBehindCachePolicy)
copy_every_victim_stack = cache_twin_stack(CopyEveryVictimPolicy)
