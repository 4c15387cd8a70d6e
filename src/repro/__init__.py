"""SuperNeurons reproduction: dynamic GPU memory management for DNN training.

Public API tour — the fluent :class:`Session` builder is the
recommended entry point:

>>> from repro import zoo, Session
>>> net = zoo.lenet(batch=8)
>>> with Session(net).with_policy("offload", cache="lru") \\
...                  .with_policy("recompute", strategy="cost_aware") as s:
...     result = s.run_iteration(0)

Serving workloads compile once and spawn lightweight sessions — each
worker gets its own device substrate but shares the compiled planning:

>>> import repro
>>> engine = repro.compile(net, repro.RuntimeConfig.superneurons())
>>> with engine.session(mode="infer") as worker:
...     result = worker.run_iteration(0)

Those are the two ways to start a run.  Both go through
:class:`Engine`, the one place a run is planned and its executor built;
``session.executor`` exposes the substrate (allocator, timeline, tensor
cache) for inspection.

See README.md for the full walkthrough and DESIGN.md for how each paper
subsystem maps onto the packages below.
"""

from repro.check import (
    CheckReport,
    Diagnostic,
    PlanVerificationError,
    lint_tree,
    verify_engine,
)
from repro.core.config import RecomputeStrategy, RuntimeConfig, WorkspacePolicy
from repro.core.engine import Engine, compile
from repro.core.policy import (
    POLICY_REGISTRY,
    MemoryPolicy,
    StepContext,
    register_policy,
)
from repro.core.runtime import IterationResult
from repro.core.tensor_state import SessionTensorState
from repro.core.session import Session
from repro.graph.network import Net
from repro.graph.route import ExecutionRoute
from repro.train.trainer import Trainer
from repro.train.sgd import SGD
from repro import zoo

__version__ = "1.2.0"

__all__ = [
    "RuntimeConfig",
    "RecomputeStrategy",
    "WorkspacePolicy",
    "MemoryPolicy",
    "StepContext",
    "POLICY_REGISTRY",
    "register_policy",
    "Engine",
    "compile",
    "IterationResult",
    "SessionTensorState",
    "Session",
    "Net",
    "ExecutionRoute",
    "Trainer",
    "SGD",
    "zoo",
    "CheckReport",
    "Diagnostic",
    "PlanVerificationError",
    "lint_tree",
    "verify_engine",
    "__version__",
]
