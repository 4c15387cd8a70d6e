"""Dynamic convolution-workspace selection (paper §3.5).

CONV speed depends heavily on the algorithm, and the fast algorithms
need scratch workspace.  Because liveness/UTP/recomputation change the
free-byte landscape at every step, the runtime re-selects per step: the
fastest *memory-feasible* algorithm, skipping any whose workspace does
not fit (functional tensors are always prioritized — a workspace can
shrink the speed, never break the training).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.config import WorkspacePolicy
from repro.device.model import DeviceModel
from repro.layers.conv import Conv2D, ConvAlgo


@dataclass(frozen=True)
class WorkspaceChoice:
    """Record of one per-step selection (Fig. 12 plots these)."""

    layer_name: str
    phase: str                   # "forward" | "backward"
    algo: ConvAlgo
    budget_bytes: int            # free bytes at selection time
    max_speed_algo: ConvAlgo     # what unlimited memory would have picked

    @property
    def assigned_ws(self) -> int:
        return self.algo.workspace_bytes

    @property
    def max_speed_ws(self) -> int:
        return self.max_speed_algo.workspace_bytes

    @property
    def got_max_speed(self) -> bool:
        return self.algo.name == self.max_speed_algo.name


class WorkspaceSelector:
    """Chooses an algorithm for each conv execution under a policy."""

    def __init__(self, policy: WorkspacePolicy, model: DeviceModel):
        self.policy = policy
        self.model = model
        self.choices: List[WorkspaceChoice] = []

    def select(self, layer: Conv2D, free_bytes: int, phase: str) -> WorkspaceChoice:
        best = layer.max_speed_algo(self.model)
        if self.policy is WorkspacePolicy.NONE:
            algo = ConvAlgo("implicit_gemm", 0,
                            self.model.conv_algo_speed["implicit_gemm"])
        elif self.policy is WorkspacePolicy.MAX_SPEED:
            algo = best
        else:  # DYNAMIC
            algo = layer.best_algo_within(free_bytes, self.model)
        choice = WorkspaceChoice(layer.name, phase, algo, free_bytes, best)
        self.choices.append(choice)
        return choice

    def record(self, choice: WorkspaceChoice) -> WorkspaceChoice:
        """Log a choice made outside :meth:`select` (a workspace op's
        memoised pick, logged again without re-selecting)."""
        self.choices.append(choice)
        return choice

    def replace_last(self, choice: WorkspaceChoice) -> WorkspaceChoice:
        """Overwrite the latest record (the fragmentation fallback)."""
        self.choices[-1] = choice
        return choice

    def reset(self) -> None:
        """Per-iteration reset: the log is an iteration-scoped record,
        not a lifetime accumulator."""
        self.choices.clear()
