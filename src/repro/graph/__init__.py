"""Network graph and execution-route construction.

* :class:`~repro.graph.network.Net` — the nonlinear DAG of layers
  (fan/join connections are ordinary multi-edges here).
* :mod:`~repro.graph.route` — the paper's Algorithm 1: a DFS that waits
  at joins until every predecessor has finished, yielding the total
  order of forward steps; the backward order is its reverse (Fig. 6).
"""

from repro.graph.network import Net
from repro.graph.route import ExecutionRoute, Phase, Step

__all__ = ["Net", "ExecutionRoute", "Phase", "Step"]
