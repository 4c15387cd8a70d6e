"""Recomputation planning (paper §3.4, Fig. 9, Table 1).

The forward outputs of cheap, memory-heavy layers (POOL/ACT/LRN/BN/...)
are freed during the forward pass and *recomputed* from the nearest
upstream checkpoint when the backward pass needs them.  Contiguous runs
of recomputable layers between checkpoints form *segments*; per segment
the runtime picks a strategy:

* **speed-centric** — recompute the whole segment once on first demand
  and keep the results for the remaining backward layers of the
  segment: ``k`` extra forwards, but transiently ``Σ l_f(seg) + l_b``
  resident — which can exceed ``l_peak``.
* **memory-centric** — recompute the chain anchor→j for every backward
  layer j and drop intermediates immediately: ``k(k+1)/2`` extra
  forwards, never more than one pair of outputs resident.
* **cost-aware** — speed-centric where the segment's
  ``mem_cost ≤ l_peak``, memory-centric otherwise: extra forwards stay
  near the speed-centric count while the peak never exceeds ``l_peak``
  (Table 1's three-way comparison).

The plan is static (shapes are static); the executor's
:class:`~repro.core.runtime.Executor` RecomputeEngine interprets it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.config import RecomputeStrategy
from repro.graph.route import ExecutionRoute
from repro.layers.base import Layer


@dataclass
class Segment:
    """One recomputation unit: a checkpoint anchor plus the recomputable
    run that follows it in route order.

    ``dropped`` are the members whose outputs the forward pass actually
    frees.  A member is *kept* (stays resident, never recomputed) when
    some consumer lies outside the segment and is not a checkpoint —
    e.g. a ResNet identity shortcut feeding a Join two segments later.
    Dropping those would make recomputation chains cascade backwards
    through every preceding block (unbounded work the paper's linear
    analysis never meets).
    """

    anchor: Layer
    members: List[Layer] = field(default_factory=list)
    dropped: List[Layer] = field(default_factory=list)
    strategy: RecomputeStrategy = RecomputeStrategy.SPEED_CENTRIC

    @property
    def size(self) -> int:
        return len(self.dropped)

    def mem_cost(self) -> int:
        """Σ l_f over dropped members + the largest member backward
        (paper's ``Σ l_f(i) + l_b(seg)``)."""
        if not self.dropped:
            return 0
        return sum(l.l_f() for l in self.dropped) + \
            max(l.l_b() for l in self.members)

    def extra_forwards(self, strategy: Optional[RecomputeStrategy] = None) -> int:
        """Predicted extra forward executions for this segment."""
        s = strategy or self.strategy
        k = self.size
        if k == 0 or s is RecomputeStrategy.NONE:
            return 0
        if s is RecomputeStrategy.SPEED_CENTRIC:
            return k
        if s is RecomputeStrategy.MEMORY_CENTRIC:
            return k * (k + 1) // 2
        raise ValueError(f"unresolved strategy {s}")


@dataclass
class RecomputePlan:
    """All segments plus per-layer lookup tables."""

    strategy: RecomputeStrategy
    segments: List[Segment] = field(default_factory=list)
    l_peak: int = 0
    segment_of: Dict[int, Segment] = field(default_factory=dict)  # layer_id ->
    dropped_layers: set = field(default_factory=set)              # layer ids

    @property
    def enabled(self) -> bool:
        return self.strategy is not RecomputeStrategy.NONE

    def total_extra_forwards(self) -> int:
        return sum(seg.extra_forwards() for seg in self.segments)

    def peak_m(self) -> int:
        """Predicted peak under this plan (Table 1's peak_m column).

        Speed-centric segments can transiently hold their whole segment;
        memory-centric ones are bounded by the member layers themselves.
        """
        peak = self.l_peak
        for seg in self.segments:
            if seg.strategy is RecomputeStrategy.SPEED_CENTRIC and seg.members:
                peak = max(peak, seg.mem_cost())
        return peak


def chain_of(layer: Layer, dropped_layers: Set[int]
             ) -> Tuple[List[Layer], FrozenSet[int]]:
    """What rebuilding ``layer``'s output takes besides ``layer``: the
    recompute-dropped layers its inputs come through, and the *chain
    sources* — the tensor ids of the first kept outputs behind them."""
    members: List[Layer] = []
    sources = set()
    seen = set()
    stack = list(layer.prev)
    while stack:
        p = stack.pop()
        if p.layer_id in seen:
            continue
        seen.add(p.layer_id)
        if p.layer_id in dropped_layers:
            members.append(p)
            stack.extend(p.prev)
        else:
            sources.add(p.output.tensor_id)
    return members, frozenset(sources)


def plan_segments(
    route: ExecutionRoute,
    strategy: RecomputeStrategy,
    l_peak: Optional[int] = None,
) -> RecomputePlan:
    """Partition the route into segments and resolve per-segment strategy."""
    if l_peak is None:
        l_peak = route.net.max_layer_bytes()
    plan = RecomputePlan(strategy=strategy, l_peak=l_peak)
    if strategy is RecomputeStrategy.NONE:
        return plan

    current: Optional[Segment] = None
    for layer in route.forward_layers:
        if layer.is_checkpoint:
            if current is not None and current.members:
                plan.segments.append(current)
            current = Segment(anchor=layer)
        elif layer.is_recomputable:
            if current is None:
                # recomputable before any checkpoint: cannot happen with a
                # DataLayer source (DATA is a checkpoint), but guard anyway
                raise ValueError(
                    f"recomputable layer {layer.name} precedes every checkpoint"
                )
            current.members.append(layer)
        else:
            # non-recomputable, non-checkpoint (e.g. SOFTMAX): breaks the
            # segment — its output must stay resident, so nothing after it
            # can recompute *through* it from the current anchor.
            if current is not None and current.members:
                plan.segments.append(current)
            current = None
    if current is not None and current.members:
        plan.segments.append(current)

    for seg in plan.segments:
        for member in seg.members:
            plan.segment_of[member.layer_id] = seg

    # Second pass: decide which members are actually droppable.  Every
    # consumer must be a checkpoint (its backward chain starts from our
    # anchor — bounded) or live in the same segment; anything else (a
    # Join in a later segment, a SOFTMAX) pins the tensor.
    for seg in plan.segments:
        for member in seg.members:
            droppable = all(
                c.is_checkpoint or plan.segment_of.get(c.layer_id) is seg
                for c in member.next
            )
            if droppable:
                seg.dropped.append(member)
                plan.dropped_layers.add(member.layer_id)

    for seg in plan.segments:
        if strategy is RecomputeStrategy.COST_AWARE:
            seg.strategy = (
                RecomputeStrategy.SPEED_CENTRIC
                if seg.mem_cost() <= l_peak
                else RecomputeStrategy.MEMORY_CENTRIC
            )
        else:
            seg.strategy = strategy
    return plan
