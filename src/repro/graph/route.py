"""Execution-route construction — the paper's Algorithm 1.

A DFS from the data layer that *waits at joins*: a layer is pushed onto
the route only once all of its predecessors have been pushed (tracked
with a per-layer visit counter).  This flattens an arbitrary fan/join
DAG into the total order of forward steps; the backward order is the
exact reverse (paper Fig. 6 numbers the backward step of forward step k
as 2N-1-k).

The paper writes Alg. 1 recursively; we run the same traversal with an
explicit stack because the deep-ResNet experiments (Table 4 reaches
ResNet-2500, ~10^4 layers) would blow Python's recursion limit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.graph.network import Net
from repro.layers.base import Layer
from repro.tensors.tensor import Tensor


class Phase(enum.Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass(frozen=True)
class Step:
    """One scheduling step: a (layer, phase) pair with its route index."""

    index: int
    layer: Layer
    phase: Phase

    def __repr__(self) -> str:  # pragma: no cover
        return f"Step({self.index}, {self.layer.name}, {self.phase.value})"


def forward_order(net: Net) -> List[Layer]:
    """Alg. 1: DFS with join counters, iterative."""
    counters: Dict[int, int] = {l.layer_id: 0 for l in net.layers}
    route: List[Layer] = []
    on_route: Set[int] = set()
    stack: List[Layer] = [net.data_layer]
    while stack:
        layer = stack.pop()
        counters[layer.layer_id] += 1
        need = max(1, len(layer.prev))
        if counters[layer.layer_id] < need:
            continue  # join: wait for remaining predecessors
        if layer.layer_id in on_route:
            raise ValueError(
                f"layer {layer.name} reached more times than it has inputs "
                f"(cycle or mis-wired join)"
            )
        route.append(layer)
        on_route.add(layer.layer_id)
        # push successors in reverse so the leftmost branch runs first,
        # matching the recursive DFS's visitation order
        for nxt in reversed(layer.next):
            stack.append(nxt)
    if len(route) != len(net.layers):
        missing = [l.name for l in net.layers if l.layer_id not in on_route]
        raise ValueError(
            f"route covers {len(route)}/{len(net.layers)} layers; "
            f"unreached: {missing[:5]} (disconnected graph?)"
        )
    return route


class ExecutionRoute:
    """The full 2N-step schedule plus dependency metadata.

    ``fstep_of``/``bstep_of`` map a layer to its step indices; the
    dependency tables answer "which step last reads tensor t", the
    question liveness analysis asks.

    ``training=False`` builds the forward-only N-step route of the
    inference mode: no backward steps exist, so every tensor's last use
    is its last *forward* consumer and liveness analysis frees it there
    (``bstep_of`` is empty — nothing may schedule against a backward
    step in this mode).

    ``forward_layers`` injects a precomputed topological order (treated
    read-only): the train and infer routes of one net share the same
    forward order, so a compile-once engine runs Alg. 1 exactly once
    and hands the result to both modes.
    """

    def __init__(self, net: Net, training: bool = True,
                 forward_layers: Optional[List[Layer]] = None):
        self.net = net
        self.training = training
        self.forward_layers = forward_layers if forward_layers is not None \
            else forward_order(net)
        n = len(self.forward_layers)
        self.steps: List[Step] = []
        for i, layer in enumerate(self.forward_layers):
            self.steps.append(Step(i, layer, Phase.FORWARD))
        self.fstep_of: Dict[int, int] = {
            l.layer_id: i for i, l in enumerate(self.forward_layers)
        }
        self.bstep_of: Dict[int, int] = {}
        if training:
            for i, layer in enumerate(reversed(self.forward_layers)):
                self.steps.append(Step(n + i, layer, Phase.BACKWARD))
            self.bstep_of = {
                l.layer_id: 2 * n - 1 - self.fstep_of[l.layer_id]
                for l in self.forward_layers
            }

    @property
    def num_layers(self) -> int:
        return len(self.forward_layers)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    # -- dependency queries ------------------------------------------------
    def forward_reads(self, layer: Layer) -> List[Tensor]:
        """Tensors the forward kernel of ``layer`` consumes."""
        return [p.output for p in layer.prev]

    def backward_reads(self, layer: Layer) -> List[Tensor]:
        """Forward tensors the backward kernel of ``layer`` consumes.

        Per-layer flags let e.g. ReLU declare it only needs its output,
        which shrinks the live sets exactly as a real runtime would.
        """
        reads: List[Tensor] = []
        if layer.needs_inputs_in_backward:
            reads.extend(p.output for p in layer.prev)
        if layer.needs_output_in_backward and layer.output is not None:
            reads.append(layer.output)
        return reads

    def step_reads(self, step: Step) -> List[Tensor]:
        if step.phase is Phase.FORWARD:
            return self.forward_reads(step.layer)
        reads = self.backward_reads(step.layer)
        if step.layer.grad_output is not None and step.layer.next:
            reads.append(step.layer.grad_output)
        return reads

    def step_writes(self, step: Step) -> List[Tensor]:
        layer = step.layer
        if step.phase is Phase.FORWARD:
            return [layer.output] if layer.output is not None else []
        writes: List[Tensor] = [
            p.grad_output for p in layer.prev
            if p.grad_output is not None and p.ltype.value != "DATA"
        ]
        writes.extend(layer.param_grads)
        return writes

    def describe(self) -> str:
        rows = []
        for s in self.steps:
            rows.append(f"{s.index:4d} {s.phase.value:8s} {s.layer.name}")
        return "\n".join(rows)
