"""End-to-end trainer: a Session + SGD over iterations.

In concrete mode this performs *real* training — the loss goes down —
under whatever memory policy stack the session was given.  The test
suite's equivalence checks run the same net through different configs
and require identical losses at every iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.config import RuntimeConfig
from repro.core.runtime import Executor, IterationResult
from repro.core.session import Session
from repro.graph.network import Net
from repro.train.sgd import SGD


@dataclass
class TrainStats:
    losses: List[float] = field(default_factory=list)
    results: List[IterationResult] = field(default_factory=list)

    @property
    def final_loss(self) -> Optional[float]:
        return self.losses[-1] if self.losses else None


class Trainer:
    """Owns a session and an optimizer; runs iterations.

    Accepts either a prebuilt :class:`Session` or a ``(net, config)``
    pair, which it wraps in one.
    """

    def __init__(
        self,
        net: Optional[Net] = None,
        config: Optional[RuntimeConfig] = None,
        optimizer: Optional[SGD] = None,
        session: Optional[Session] = None,
    ):
        if session is None:
            if net is None:
                raise TypeError("Trainer needs a net or a session")
            session = Session(net, config)
        elif net is not None:
            raise TypeError("pass either a net or a session, not both")
        if session.mode != "train":
            raise TypeError(
                f"Trainer needs a train-mode session, got mode="
                f"{session.mode!r}; inference sessions have no backward "
                "pass to optimize")
        self.session = session
        self.optimizer = optimizer or SGD(lr=0.01)

    @property
    def executor(self) -> Executor:
        return self.session.executor

    def train(self, iterations: int, start_iteration: int = 0,
              keep_results: bool = True) -> TrainStats:
        """Run ``iterations`` iterations.  ``keep_results=False`` keeps
        only the loss curve — each IterationResult carries per-step
        traces, so long runs otherwise accumulate them without bound."""
        stats = TrainStats()
        for i in range(start_iteration, start_iteration + iterations):
            res = self.session.run_iteration(i, optimizer=self.optimizer)
            if res.loss is not None:
                stats.losses.append(res.loss)
            if keep_results:
                stats.results.append(res)
        return stats

    def close(self) -> None:
        self.session.close()

    def __enter__(self) -> "Trainer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()