"""Runtime configuration: which optimizations are armed.

A single dataclass so that benchmark code can express the paper's
ablation ladder (baseline → +liveness → +UTP → +recompute) as four
configs, and the framework models in :mod:`repro.frameworks` as a few
more.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import FrozenSet, Optional

from repro.device.model import DeviceModel, K40_MODEL
from repro.layers.base import LayerType


#: which layer types are offloading checkpoints.  The paper offloads
#: CONV outputs; the DATA batch joins them because the measured
#: AlexNet peak (Fig. 10c, 886 MB at LRN1-backward with no data
#: tensor resident) requires the input batch to leave the GPU too.
OFFLOAD_TYPES: FrozenSet[LayerType] = frozenset(
    {LayerType.CONV, LayerType.DATA})


class RecomputeStrategy(enum.Enum):
    """Which recomputation strategy (paper §3.4, Fig. 9)."""

    NONE = "none"
    SPEED_CENTRIC = "speed"        # recompute segment once, keep results
    MEMORY_CENTRIC = "memory"      # recompute per backward layer, drop
    COST_AWARE = "cost_aware"      # per-segment choice bounded by l_peak


class WorkspacePolicy(enum.Enum):
    """How convolution workspaces are provisioned (paper §3.5)."""

    NONE = "none"          # always the zero-workspace algorithm
    MAX_SPEED = "max"      # always the fastest algorithm (may OOM)
    DYNAMIC = "dynamic"    # fastest algorithm that fits the free bytes


@dataclass
class RuntimeConfig:
    """Every knob of the executor.

    The defaults are the full SuperNeurons configuration; the
    classmethod constructors give the ablation points used throughout
    the benchmarks.
    """

    # execution substrate
    concrete: bool = True                 # real NumPy payloads?
    device: DeviceModel = field(default_factory=lambda: K40_MODEL)
    gpu_capacity: Optional[int] = None    # override device.dram_bytes
    use_pool_allocator: bool = True       # heap pool vs cudaMalloc
    pool_slab_bytes: Optional[int] = None
    pinned_host: bool = True

    # the three memory optimizations
    use_liveness: bool = True
    # "all": free any dead tensor (SuperNeurons / DAG engines);
    # "grads_only": only gradient buffers are recycled while every
    # forward tensor persists to iteration end — the Caffe/Torch static
    # sharing model the paper contrasts against (§2.2)
    liveness_scope: str = "all"
    use_offload: bool = False
    use_tensor_cache: bool = True         # lazy (LRU) vs eager offload
    cache_policy: str = "lru"             # "lru" | "fifo" | "lfu"
    recompute: RecomputeStrategy = RecomputeStrategy.NONE

    # performance
    workspace_policy: WorkspacePolicy = WorkspacePolicy.DYNAMIC

    # steady-state iteration replay: the executor links its
    # IterationPlan once, at its first iteration, and reuses it.
    # False re-links before every iteration (fresh closures, fresh
    # workspace memos): the reference the ledger's gates compare the
    # linked-once plan with, bit for bit.
    steady_state_replay: bool = True
    # per-step StepTrace records (Fig. 10).  Long training runs can
    # switch them off so result objects hold O(1) memory per iteration.
    collect_traces: bool = True

    # external memory pools for the UTP, fastest first (paper Fig. 7).
    # None = the default single local-CPU-DRAM pool.
    external_pools: Optional[tuple] = None

    # -- canonical configurations -------------------------------------------
    @classmethod
    def baseline(cls, **kw) -> "RuntimeConfig":
        """Naive network-wide allocation: nothing freed until iteration end."""
        return cls(use_liveness=False, use_offload=False,
                   recompute=RecomputeStrategy.NONE, **kw)

    @classmethod
    def liveness_only(cls, **kw) -> "RuntimeConfig":
        return cls(use_liveness=True, use_offload=False,
                   recompute=kw.pop("recompute", RecomputeStrategy.NONE),
                   **kw)

    @classmethod
    def liveness_offload(cls, **kw) -> "RuntimeConfig":
        return cls(use_liveness=True, use_offload=True,
                   use_tensor_cache=kw.pop("use_tensor_cache", False),
                   recompute=kw.pop("recompute", RecomputeStrategy.NONE),
                   **kw)

    @classmethod
    def superneurons(cls, **kw) -> "RuntimeConfig":
        """All three memory techniques + LRU cache + dynamic workspaces."""
        return cls(use_liveness=True, use_offload=True,
                   use_tensor_cache=kw.pop("use_tensor_cache", True),
                   recompute=kw.pop("recompute", RecomputeStrategy.COST_AWARE),
                   **kw)

    @property
    def capacity(self) -> int:
        return self.gpu_capacity if self.gpu_capacity is not None \
            else self.device.dram_bytes

    # -- execution modes ------------------------------------------------------
    def for_mode(self, mode: str) -> "RuntimeConfig":
        """The effective config an execution mode runs under.

        ``"train"`` is the config itself.  ``"infer"`` is a copy with
        the backward-only optimizations disarmed: offloading exists to
        bridge the forward→backward gap and recomputation re-runs
        segments *for* backward steps, so neither has anything to do on
        a forward-only route — liveness (which frees every activation
        at its last forward consumer) and dynamic workspaces remain.
        """
        if mode == "train":
            return self
        if mode == "infer":
            # dispatch through the registry disarms so the disarmed
            # field set can never drift from Session.without_policy's,
            # and the backward_only flag decides *which* policies —
            # the same flag Session.with_policy's infer guard reads
            from repro.core.policy import POLICY_REGISTRY  # lazy: cycle
            cfg = replace(self)
            for cls in POLICY_REGISTRY.values():
                if cls.backward_only:
                    cls.disarm(cfg)
            return cfg
        raise ValueError(f"unknown execution mode {mode!r}; "
                         "expected 'train' or 'infer'")

    # -- policy-stack view ---------------------------------------------------
    def policy_stack(self):
        """The ordered :class:`~repro.core.policy.MemoryPolicy` stack
        this config denotes (what the executor will run)."""
        from repro.core.policy import resolve_policies  # lazy: avoid cycle
        return resolve_policies(self)

    def describe_policies(self) -> str:
        """Human-readable one-line summary of the policy stack."""
        return " -> ".join(p.describe() for p in self.policy_stack())
