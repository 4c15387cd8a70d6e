"""Per-session tensor state: the executor's private placement table.

Historically the runtime mutated scheduling state (``placement``,
``locked``, ``host_resident``) directly on :class:`~repro.tensors.tensor.Tensor`
descriptors.  Descriptors belong to the *net*, and the net is shared by
every session an :class:`~repro.core.engine.Engine` spawns — so two
sessions could only interleave at iteration granularity, where the
shared fields are guaranteed to be back at their settled values.

:class:`SessionTensorState` removes that constraint.  It is a table of
*all* executor-mutated per-tensor state, keyed by ``tensor_id`` and
owned by exactly one :class:`~repro.core.runtime.Executor`:

* the placement state machine (UNALLOCATED/GPU/HOST/FREED);
* the LRU-cache lock bit (paper Alg. 2 ``T.Lock``);
* host-copy residency (a valid copy exists in host RAM);
* prefetch-arrival membership (H2D copies in flight);
* write-behind cleaning membership (D2H copies of cached lines in
  flight or landed, the GPU copy kept);
* the live-descriptor set reported in step traces.

``Tensor`` keeps only immutable identity (shape, dtype, nbytes, name,
kind, producer); every policy reads and writes session-local state
through ``StepContext.state``.  Two sessions can therefore run the same
net concurrently at *op* granularity — each thread sees only its own
placements and locks (proven by ``tests/test_parallel_sessions.py``).

``validate=True`` arms the placement state machine::

    UNALLOCATED --alloc--> GPU --offload--> HOST --prefetch--> GPU
                            |                 |
                            +----free---------+---free--> FREED
                            ^                             |
                            +-------(recompute re-allocs)-+

Every ``set_placement`` is then checked against the legal edges (plus
same-state no-ops).  The runtime leaves validation off on the hot path;
``validate=None`` (the default) defers to the ``REPRO_VALIDATE_STATE``
environment variable, which the test suite and the CI serving jobs
set — so every suite runs the full ablation ladder through the
armed state machine while production runs pay nothing.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

from repro.check import instrument as _ins
from repro.tensors.tensor import Placement, Tensor

#: Environment switch consulted when ``SessionTensorState(validate=None)``
#: (see :func:`repro.check.instrument.env_flag`): arms the placement
#: state machine process-wide.
VALIDATE_ENV = "REPRO_VALIDATE_STATE"

#: Legal placement transitions (see the state machine above).  The
#: UNALLOCATED->FREED edge is the no-op discard: liveness free lists
#: may name tensors no step ever materialized (e.g. the data layer's
#: grad, which the route reads but no runtime allocates).
ALLOWED_TRANSITIONS: FrozenSet[Tuple[Placement, Placement]] = frozenset({
    (Placement.UNALLOCATED, Placement.GPU),
    (Placement.UNALLOCATED, Placement.FREED),
    (Placement.GPU, Placement.HOST),
    (Placement.GPU, Placement.FREED),
    (Placement.HOST, Placement.GPU),
    (Placement.HOST, Placement.FREED),
    (Placement.FREED, Placement.GPU),
})


class ResidencyError(RuntimeError):
    """The executor refused a residency move its schedule asked for.

    ``tensor`` is the descriptor it refused and ``rule`` the plan rule
    (``PLAN001``...) the schedule broke, so the plan verifier maps a
    refusal to its finding without reading the message.
    """

    def __init__(self, message: str, tensor: Tensor, rule: str):
        super().__init__(message)
        self.tensor = tensor
        self.rule = rule


class IllegalPlacementTransition(ResidencyError):
    """A ``set_placement`` violated the placement state machine: the
    schedule moved or freed a tensor that is not there."""

    def __init__(self, t: Tensor, old: Placement, new: Placement):
        super().__init__(
            f"illegal placement transition {old.value} -> {new.value} "
            f"for tensor {t.name!r} (id={t.tensor_id})", t, "PLAN006")
        self.old = old
        self.new = new


class SessionTensorState:
    """All executor-mutated per-tensor state of ONE session.

    Methods take :class:`Tensor` descriptors (identity only) and key
    the tables by ``tensor_id``.  Absent entries mean the default:
    ``UNALLOCATED``, unlocked, no host copy, no arrival in flight, not
    being cleaned.
    """

    __slots__ = ("_placement", "_locked", "_host", "_live", "_arrivals",
                 "_cleaning", "validate", "strict")

    def __init__(self, validate: Optional[bool] = None) -> None:
        self._placement: Dict[int, Placement] = {}
        self._locked: Set[int] = set()
        self._host: Set[int] = set()
        self._live: Set[int] = set()      # DATA/GRAD ids with GPU allocs
        self._arrivals: Dict[int, object] = {}  # tensor_id -> DMA Event
        self._cleaning: Dict[int, object] = {}  # tensor_id -> DMA Event
        self.validate = _ins.env_flag(VALIDATE_ENV) if validate is None \
            else validate
        #: with ``validate``, also refuse FREED -> FREED.  No session's
        #: first iteration frees a tensor twice, so the plan verifier,
        #: which judges one, arms it; from the second iteration on the
        #: liveness lists free the data layer's grad (which no step
        #: materialises) again, so nothing else does.
        self.strict = False

    # -- placement --------------------------------------------------------
    def placement(self, t: Tensor) -> Placement:
        return self._placement.get(t.tensor_id, Placement.UNALLOCATED)

    def set_placement(self, t: Tensor, p: Placement) -> None:
        if self.validate:
            old = self._placement.get(t.tensor_id, Placement.UNALLOCATED)
            if (old is not p or self.strict and p is Placement.FREED) \
                    and (old, p) not in ALLOWED_TRANSITIONS:
                raise IllegalPlacementTransition(t, old, p)
        if _ins.ACTIVE is not None:  # a foreign-thread write here IS a race
            _ins.trace_write(self, "tensor_state.placement", t.name)
        self._placement[t.tensor_id] = p

    def on_gpu(self, t: Tensor) -> bool:
        return self._placement.get(t.tensor_id) is Placement.GPU

    def on_host(self, t: Tensor) -> bool:
        return self._placement.get(t.tensor_id) is Placement.HOST

    def is_live(self, t: Tensor) -> bool:
        """True while the tensor holds meaningful data somewhere."""
        p = self._placement.get(t.tensor_id)
        return p is Placement.GPU or p is Placement.HOST

    # -- cache lock (paper Alg. 2) ----------------------------------------
    def lock(self, t: Tensor) -> None:
        """Pin ``t`` for the duration of a kernel: the LRU cache must
        not evict it (paper Alg. 2, ``T.Lock``)."""
        if _ins.ACTIVE is not None:
            _ins.trace_write(self, "tensor_state.locked", t.name)
        self._locked.add(t.tensor_id)

    def unlock(self, t: Tensor) -> None:
        if _ins.ACTIVE is not None:
            _ins.trace_write(self, "tensor_state.locked", t.name)
        self._locked.discard(t.tensor_id)

    def unlock_all(self, tensors: Tuple[Tensor, ...]) -> None:
        """Release a step's pins in one sweep."""
        if _ins.ACTIVE is not None:
            for t in tensors:
                _ins.trace_write(self, "tensor_state.locked", t.name)
        discard = self._locked.discard
        for t in tensors:
            discard(t.tensor_id)

    def locked(self, t: Tensor) -> bool:
        return t.tensor_id in self._locked

    def locked_ids(self) -> FrozenSet[int]:
        """Snapshot of currently locked tensor ids (lock-balance tests)."""
        return frozenset(self._locked)

    # -- host residency ----------------------------------------------------
    def host_resident(self, t: Tensor) -> bool:
        return t.tensor_id in self._host

    def set_host_resident(self, t: Tensor, resident: bool) -> None:
        if _ins.ACTIVE is not None:
            _ins.trace_write(self, "tensor_state.host", t.name)
        if resident:
            self._host.add(t.tensor_id)
        else:
            self._host.discard(t.tensor_id)

    def host_ids(self) -> Set[int]:
        """Ids with a valid host copy — the live set, not a snapshot."""
        return self._host

    # -- live-descriptor accounting (step-trace statistic) -----------------
    def add_live(self, t: Tensor) -> None:
        self._live.add(t.tensor_id)

    def discard_live(self, t: Tensor) -> None:
        self._live.discard(t.tensor_id)

    def live_count(self) -> int:
        return len(self._live)

    # -- prefetch arrivals (H2D copies in flight) --------------------------
    @property
    def any_arrivals(self) -> bool:
        return bool(self._arrivals)

    def set_arrival(self, t: Tensor, event) -> None:
        self._arrivals[t.tensor_id] = event

    def arrival_pending(self, t: Tensor) -> bool:
        return t.tensor_id in self._arrivals

    def pop_arrival(self, t: Tensor):
        """Remove and return the in-flight arrival event (or None)."""
        return self._arrivals.pop(t.tensor_id, None)

    def clear_arrivals(self) -> None:
        self._arrivals.clear()

    # -- write-behind cleaning (D2H copies of lines still cached) ----------
    # The third residency state of a cached line, beside clean and
    # dirty: its D2H copy has been started (and may have landed) but
    # the GPU copy is still the one in use.  ``host_resident`` stays
    # False until an eviction consumes the event.
    def set_cleaning(self, t: Tensor, event) -> None:
        self._cleaning[t.tensor_id] = event

    def cleaning(self, t: Tensor) -> bool:
        return t.tensor_id in self._cleaning

    def pop_cleaning(self, t: Tensor):
        """Remove and return the write-behind copy's event (or None)."""
        return self._cleaning.pop(t.tensor_id, None)

    def retire_in_flight(self, t: Tensor):
        """``t`` is dying: forget its arrival, and remove and return
        its write-behind copy's event (or None).  The one call
        ``_discard`` pays for both tables, empty most of the time."""
        if self._arrivals or self._cleaning:
            tid = t.tensor_id
            self._arrivals.pop(tid, None)
            return self._cleaning.pop(tid, None)
        return None

    def cleaning_count(self) -> int:
        return len(self._cleaning)

    def clear_cleaning(self) -> None:
        self._cleaning.clear()

    # -- introspection ------------------------------------------------------
    def snapshot(self, tensors: Iterable[Tensor]
                 ) -> Tuple[Placement, ...]:
        """Placement of each tensor, in order (test trace helper)."""
        get = self._placement.get
        U = Placement.UNALLOCATED
        return tuple(get(t.tensor_id, U) for t in tensors)

    def describe(self, t: Tensor) -> str:
        return (f"{t.name}: {self.placement(t).value}"
                f"{' locked' if self.locked(t) else ''}"
                f"{' host' if self.host_resident(t) else ''}"
                f"{' cleaning' if self.cleaning(t) else ''}")
