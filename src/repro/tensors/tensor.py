"""The tensor descriptor: immutable identity (shape, bytes, kind, name).

The runtime schedules *descriptors*; payloads (if any) are kept in a
separate :mod:`repro.tensors.store`.  This mirrors the paper's design
where the C++ runtime moves ``tensor_t`` objects between GPU DRAM and
pinned host RAM while cuDNN only ever sees device pointers.

A descriptor carries **no mutable scheduling state**.  Placement, the
LRU-cache lock, host residency, and prefetch arrivals live in the
per-executor :class:`~repro.core.tensor_state.SessionTensorState`
table, keyed by ``tensor_id`` — the net (and its descriptors) can be
shared read-only by any number of concurrent sessions.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

_tensor_ids = itertools.count(0)


class TensorKind(enum.Enum):
    """What role a tensor plays in the computation.

    The distinction matters to the scheduler: ``DATA`` tensors (layer
    outputs) are the ones liveness analysis frees and UTP offloads;
    ``PARAM`` tensors are long-lived and always resident; ``GRAD``
    tensors exist only during the backward sweep; ``WORKSPACE`` is
    scratch for convolution algorithms and is recycled immediately.
    """

    DATA = "data"
    GRAD = "grad"
    PARAM = "param"
    PARAM_GRAD = "param_grad"
    WORKSPACE = "workspace"


class Placement(enum.Enum):
    """Where a tensor's bytes currently live (per session: the state is
    kept in :class:`~repro.core.tensor_state.SessionTensorState`, not
    on the descriptor).

    State machine::

        UNALLOCATED --alloc--> GPU --offload--> HOST --prefetch--> GPU
             ^                  |                 |
             |                  +----free---------+---free--> FREED
             +------------------------(recompute re-allocs)---+
    """

    UNALLOCATED = "unallocated"
    GPU = "gpu"
    HOST = "host"
    FREED = "freed"


@dataclass
class Tensor:
    """A 4-D NCHW tensor descriptor (paper Fig. 4).

    Parameters
    ----------
    shape:
        ``(N, C, H, W)`` for activations; FC weights use ``(out, in, 1, 1)``
        so that everything stays 4-D as in cuDNN.
    kind:
        Scheduling role, see :class:`TensorKind`.
    name:
        Human-readable label, e.g. ``"conv1:out"``.
    producer:
        Layer id that computes this tensor in the forward pass; used by
        the recomputation planner to rebuild freed dependencies.
    dtype:
        NumPy dtype; float32 everywhere in the paper.
    """

    shape: Tuple[int, ...]
    kind: TensorKind = TensorKind.DATA
    name: str = ""
    producer: Optional[int] = None
    dtype: np.dtype = field(default_factory=lambda: np.dtype(np.float32))

    # -- identity (the only runtime-relevant field that is not shape) ----
    # No scheduler state lives here: placement/locks/host-residency are
    # per-session (see repro.core.tensor_state.SessionTensorState).
    tensor_id: int = field(default_factory=lambda: next(_tensor_ids))

    def __post_init__(self) -> None:
        if not self.shape:
            raise ValueError("tensor shape must be non-empty")
        if any(int(d) <= 0 for d in self.shape):
            raise ValueError(f"tensor dims must be positive, got {self.shape}")
        self.shape = tuple(int(d) for d in self.shape)
        self.dtype = np.dtype(self.dtype)
        # shape/dtype are fixed for life, so the size queries are plain
        # attributes: every residency move reads ``nbytes``, and a
        # property would be a Python frame each time
        n = 1
        for d in self.shape:
            n *= d
        #: element count
        self.numel: int = n
        #: payload bytes
        self.nbytes: int = n * self.dtype.itemsize

    def __hash__(self) -> int:
        return self.tensor_id

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Tensor) and other.tensor_id == self.tensor_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tensor(id={self.tensor_id}, name={self.name!r}, "
            f"shape={self.shape}, kind={self.kind.value}, "
            f"nbytes={self.nbytes})"
        )
