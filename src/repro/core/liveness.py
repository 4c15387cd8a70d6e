"""Liveness analysis: per-step live sets and free lists (paper §3.2).

The paper constructs an ``in``/``out`` set for every step by scanning
all subsequent steps for dependencies (O(N²)).  We compute the identical
result by a single pass that records each tensor's *last reader*
(O(total dependency edges)): ``out(s) = in(s) − {t : last_use(t) = s}``.
:class:`LivenessAnalysis` exposes the in/out sets (used by tests and the
Fig. 10 traces); :class:`LivenessPlan` is the compiled artifact the
executor consumes — for each step, the tensors no later step reads.

Recomputation changes *which reads count*: backward reads of
recomputable tensors are served by recomputation, so those reads don't
extend GPU liveness; instead the *anchor checkpoints* gain backward
uses (they feed the re-runs).  Offloading changes no free list: a
checkpoint output's GPU copy goes when its eager D2H copy is reaped
(or when the tensor cache evicts it), which is the UTP's business, not
this plan's.

Inference mode needs no special casing here: the executor hands this
analysis the forward-only route (``ExecutionRoute(net,
training=False)``), so every tensor's last use *is* its last forward
consumer and the compiled free lists release activations the moment
the forward pass is done with them — the source of the serving mode's
peak-memory drop.  (The offload/recompute interactions above never
trigger on such a route: ``RuntimeConfig.for_mode("infer")`` disarms
both.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.config import OFFLOAD_TYPES, RecomputeStrategy, RuntimeConfig
from repro.graph.route import ExecutionRoute, Phase
from repro.tensors.tensor import Tensor


@dataclass
class LivenessPlan:
    """The per-step free lists the executor follows.

    Attributes
    ----------
    free_after:
        step index -> tensors whose GPU allocation (and payload) can be
        dropped entirely after the step executes.
    """

    free_after: Dict[int, List[Tensor]] = field(default_factory=dict)

    def frees(self, step_index: int) -> List[Tensor]:
        return self.free_after.get(step_index, [])

    def freeze(self) -> Dict[int, tuple]:
        """Immutable per-step free lists for the compiled IterationPlan.

        A snapshot (not a view): replay executes these tuples directly,
        so later mutation of ``free_after`` only affects iterations
        whose plan is compiled afterwards.
        """
        return {i: tuple(ts) for i, ts in self.free_after.items() if ts}


class LivenessAnalysis:
    """Builds in/out sets and the executor plan for one route + config."""

    def __init__(
        self,
        route: ExecutionRoute,
        config: Optional[RuntimeConfig] = None,
        recompute_plan=None,
    ):
        self.route = route
        self.config = config or RuntimeConfig()
        if recompute_plan is None and self._recompute_on():
            from repro.core.recompute import plan_segments
            recompute_plan = plan_segments(
                route, self.config.recompute, route.net.max_layer_bytes()
            )
        self.recompute_plan = recompute_plan
        self._reads: Dict[int, List[Tensor]] = {}
        self._writes: Dict[int, List[Tensor]] = {}
        # synthetic anchor reads: keep checkpoints alive for segment
        # re-execution, but they are *not* kernel reads (the prefetcher
        # must not treat them as demand)
        self._synthetic: Dict[int, List[Tensor]] = {}
        self._collect_dependencies()

    # -- dependency collection ------------------------------------------------
    def _recompute_on(self) -> bool:
        return self.config.recompute is not RecomputeStrategy.NONE

    def _is_recompute_dropped(self, t: Tensor) -> bool:
        """Is ``t`` an output the recomputation engine will rebuild?"""
        if not self._recompute_on() or self.recompute_plan is None:
            return False
        return t.producer in self.recompute_plan.dropped_layers

    def _collect_dependencies(self) -> None:
        route = self.route
        for step in route.steps:
            if step.phase is Phase.FORWARD:
                reads = list(route.forward_reads(step.layer))
                writes = list(route.step_writes(step))
            else:
                reads = []
                for t in route.backward_reads(step.layer):
                    if self._is_recompute_dropped(t):
                        # served by recomputation: the GPU read retargets
                        # to the segment anchor (handled below)
                        continue
                    reads.append(t)
                if step.layer.grad_output is not None and step.layer.next:
                    # grad_output exists iff some consumer produced it
                    reads.append(step.layer.grad_output)
                writes = list(route.step_writes(step))
            self._reads[step.index] = reads
            self._writes[step.index] = writes

        if self._recompute_on():
            # Anchors must survive until the *backward* of every layer in
            # their downstream segment, because re-running the segment
            # forward starts from the anchor's output.
            self._extend_anchor_lifetimes()

    def _extend_anchor_lifetimes(self) -> None:
        """Keep every *external input* of each segment alive through the
        backward steps that can trigger the segment's re-execution.

        Externals are the tensors a re-run of the segment reads but does
        not rebuild: the anchor checkpoint, plus — in fan topologies —
        any other checkpoint or kept tensor feeding a dropped member
        (e.g. both branches entering a Concat).  Trigger steps are the
        backward of every dropped member and of every consumer of a
        dropped member's output."""
        route = self.route
        if self.recompute_plan is None:
            return
        dropped_ids = self.recompute_plan.dropped_layers
        for seg in self.recompute_plan.segments:
            externals = []
            if seg.anchor.output is not None:
                externals.append(seg.anchor.output)
            for member in seg.dropped:
                for p in member.prev:
                    if p.layer_id not in dropped_ids and p.output is not None:
                        externals.append(p.output)
            seen = set()
            externals = [t for t in externals
                         if not (t.tensor_id in seen or seen.add(t.tensor_id))]
            trigger_steps = set()
            for member in seg.dropped:
                trigger_steps.add(route.bstep_of[member.layer_id])
                for consumer in member.next:
                    trigger_steps.add(route.bstep_of[consumer.layer_id])
            for bstep in trigger_steps:
                for t in externals:
                    self._reads.setdefault(bstep, []).append(t)
                    self._synthetic.setdefault(bstep, []).append(t)
            # intermediate recomputables: re-running layer j's forward
            # also reads the outputs of recomputables between the anchor
            # and j — but those are themselves rebuilt, so they impose no
            # *persistent* liveness, only transient usage accounted by
            # the executor at recompute time.

    # -- in/out sets (paper Fig. 5) ------------------------------------------------
    def in_out_sets(self) -> List[Dict[str, Set[int]]]:
        """The paper's per-step ``in``/``out`` live-tensor-id sets."""
        last = self.last_use_map()
        live: Set[int] = set()
        sets: List[Dict[str, Set[int]]] = []
        for step in self.route.steps:
            created = {t.tensor_id for t in self._writes[step.index]}
            in_set = live | created
            dead = {tid for tid in in_set if last.get(tid, -1) <= step.index}
            out_set = in_set - dead
            sets.append({"in": in_set, "out": out_set})
            live = out_set
        return sets

    def last_use_map(self) -> Dict[int, int]:
        """tensor_id -> last step that reads or writes it."""
        last: Dict[int, int] = {}
        for step in self.route.steps:
            for t in self._writes[step.index]:
                last[t.tensor_id] = max(last.get(t.tensor_id, -1), step.index)
            for t in self._reads[step.index]:
                last[t.tensor_id] = max(last.get(t.tensor_id, -1), step.index)
        return last

    def reads_at(self, step_index: int, include_synthetic: bool = True
                 ) -> List[Tensor]:
        reads = self._reads[step_index]
        if include_synthetic:
            return reads
        synth = {t.tensor_id for t in self._synthetic.get(step_index, [])}
        return [t for t in reads if t.tensor_id not in synth]

    # -- plan compilation ----------------------------------------------------------
    def compile(self) -> LivenessPlan:
        plan = LivenessPlan()
        cfg = self.config
        route = self.route
        if not cfg.use_liveness:
            # Baseline: nothing is freed mid-iteration; the executor
            # frees everything at iteration end.
            return plan

        last = self.last_use_map()
        n_steps = len(route.steps)
        seen: Dict[int, Tensor] = {}
        for step in route.steps:
            for t in self._writes[step.index] + self._reads[step.index]:
                seen.setdefault(t.tensor_id, t)

        from repro.tensors.tensor import TensorKind  # local: avoid cycle

        grads_only = cfg.liveness_scope == "grads_only"
        for tid, t in seen.items():
            if grads_only and t.kind not in (TensorKind.GRAD,
                                             TensorKind.PARAM_GRAD):
                continue
            last_step = last[tid]
            if last_step < n_steps:
                plan.free_after.setdefault(last_step, []).append(t)
        return plan

    # -- peak predictions (the paper's closed forms) ----------------------------------
    def predicted_peak_liveness(self) -> int:
        """Σ l_f + l_b(N): the paper's closed-form liveness peak."""
        net = self.route.net
        lbn = self.route.forward_layers[-1].l_b()
        return net.total_forward_bytes() + lbn

    def predicted_peak_offload(self) -> int:
        """Σ (l_f ∉ checkpoints) + l_b(N)."""
        total = 0
        for layer in self.route.forward_layers:
            if layer.ltype not in OFFLOAD_TYPES:
                total += layer.l_f()
        return total + self.route.forward_layers[-1].l_b()
