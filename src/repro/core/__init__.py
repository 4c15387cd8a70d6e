"""The paper's contribution: the dynamic GPU memory scheduling runtime.

Composition (paper §3):

* :mod:`~repro.core.liveness` — per-step live-tensor sets; frees tensors
  the moment no later step reads them.
* :mod:`~repro.core.cache` — LRU tensor cache (Alg. 2): keeps tensors on
  the GPU while room remains, turning offload into eviction-on-pressure.
* :mod:`~repro.core.recompute` — segment-wise recomputation planning
  (speed-centric / memory-centric / cost-aware).
* :mod:`~repro.core.workspace` — per-step convolution algorithm choice
  under the memory left after the functional tensors are placed.
* :mod:`~repro.core.policy` — the pluggable :class:`MemoryPolicy` API:
  each optimization is a policy observing the step loop through hooks
  and acting through a :class:`StepContext` facade.
* :mod:`~repro.core.runtime` — the policy-free executor driving the
  stack, with a byte-accurate trace of every step.
* :mod:`~repro.core.session` — the fluent ``Session`` builder, the
  top-level entry point.
"""

from repro.core.config import RuntimeConfig, RecomputeStrategy, WorkspacePolicy
from repro.core.liveness import LivenessPlan, LivenessAnalysis
from repro.core.recompute import RecomputePlan, Segment, plan_segments
from repro.core.cache import TensorCache
from repro.core.policy import (
    POLICY_REGISTRY,
    LivenessPolicy,
    MemoryPolicy,
    OffloadCachePolicy,
    RecomputePolicy,
    StepContext,
    register_policy,
    resolve_policies,
)
from repro.core.runtime import Executor, IterationResult, StepTrace
from repro.core.tensor_state import SessionTensorState
from repro.core.session import Session
from repro.core.workspace import WorkspaceSelector, WorkspaceChoice

__all__ = [
    "RuntimeConfig",
    "RecomputeStrategy",
    "WorkspacePolicy",
    "LivenessPlan",
    "LivenessAnalysis",
    "RecomputePlan",
    "Segment",
    "plan_segments",
    "TensorCache",
    "MemoryPolicy",
    "StepContext",
    "POLICY_REGISTRY",
    "register_policy",
    "resolve_policies",
    "LivenessPolicy",
    "OffloadCachePolicy",
    "RecomputePolicy",
    "Executor",
    "IterationResult",
    "StepTrace",
    "SessionTensorState",
    "Session",
    "WorkspaceSelector",
    "WorkspaceChoice",
]
