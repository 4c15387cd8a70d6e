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

Every placement transition (``to_gpu``, ``to_host``, ``to_freed``) is
then checked against the legal edges (plus same-state no-ops).  The
runtime leaves validation off on the hot path; ``validate=None`` (the
default) defers to the ``REPRO_VALIDATE_STATE`` environment variable,
which the test suite and the CI serving jobs set — so every suite runs
the full ablation ladder through the armed state machine while
production runs pay nothing.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.check import instrument as _ins
from repro.tensors.tensor import Placement, Tensor, TensorKind

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

#: ``ALLOWED_TRANSITIONS`` as the armed validator reads it: ``id`` of a
#: placement -> the placements it may move to.  Membership in the tuple
#: compares members by identity, so a check hashes no ``Enum`` (whose
#: ``__hash__`` is a Python call) and builds no pair.
_MOVES_FROM: Dict[int, Tuple[Placement, ...]] = {
    id(old): tuple(new for o, new in ALLOWED_TRANSITIONS if o is old)
    for old in Placement}


class ResidencyError(RuntimeError):
    """The executor refused a residency move its schedule asked for.

    ``tensor`` is the descriptor it refused and ``rule`` the plan rule
    (``PLAN001``...) the schedule broke, so the plan verifier maps a
    refusal to its finding without reading the message.  ``step`` is
    the route step in flight, set by the executor's iteration it
    aborted.
    """

    def __init__(self, message: str, tensor: Tensor, rule: str):
        super().__init__(message)
        self.tensor = tensor
        self.rule = rule
        self.step = None


class IllegalPlacementTransition(ResidencyError):
    """A residency transition violated the placement state machine: the
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

    Each residency move is ONE transition call — :meth:`to_gpu`,
    :meth:`to_host`, :meth:`to_freed`, :meth:`offload_started`,
    :meth:`set_cleaning` — that updates every table the move touches.
    The validator and the race trace run inside it, each behind one
    flag test, so a disarmed move costs one frame.
    """

    __slots__ = ("_placement", "_locked", "_host", "_live", "arrivals",
                 "_cleaning", "validate", "strict")

    def __init__(self, validate: Optional[bool] = None) -> None:
        self._placement: Dict[int, Placement] = {}
        self._locked: Set[int] = set()
        self._host: Set[int] = set()
        #: DATA/GRAD ids allocated and not discarded since: live on the
        #: GPU *or* only in host RAM (``StepTrace.live_tensors``, Fig. 10)
        self._live: Set[int] = set()
        #: tensor_id -> the H2D copy event of a prefetch in flight; the
        #: read path pops it, the iteration barrier clears it
        self.arrivals: Dict[int, object] = {}
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

    def on_gpu(self, t: Tensor) -> bool:
        return self._placement.get(t.tensor_id) is Placement.GPU

    def on_host(self, t: Tensor) -> bool:
        return self._placement.get(t.tensor_id) is Placement.HOST

    def is_live(self, t: Tensor) -> bool:
        """True while the tensor holds meaningful data somewhere."""
        p = self._placement.get(t.tensor_id)
        return p is Placement.GPU or p is Placement.HOST

    def not_live(self, tensors: Iterable[Tensor]) -> List[Tensor]:
        """The tensors among ``tensors`` that hold data nowhere, in
        order (one call per backward step, not one per read)."""
        get = self._placement.get
        out = []
        for t in tensors:
            p = get(t.tensor_id)
            if p is not Placement.GPU and p is not Placement.HOST:
                out.append(t)
        return out

    # -- residency transitions: one call per move -------------------------
    def _check(self, t: Tensor, new: Placement) -> None:
        """The armed validator: refuse an edge the state machine lacks."""
        old = self._placement.get(t.tensor_id, Placement.UNALLOCATED)
        if (old is not new or self.strict and new is Placement.FREED) \
                and new not in _MOVES_FROM[id(old)]:
            raise IllegalPlacementTransition(t, old, new)

    def to_gpu(self, t: Tensor, arrival=None) -> None:
        """``t`` gained a GPU allocation — a first alloc, a fetch, a
        recompute re-alloc or, with ``arrival`` (its H2D copy's event),
        a prefetch whose bytes are still in flight."""
        tid = t.tensor_id
        if self.validate:
            self._check(t, Placement.GPU)
        if _ins.ACTIVE is not None:  # a foreign-thread write here IS a race
            _ins.trace_write(self, "tensor_state.placement", t.name)
        self._placement[tid] = Placement.GPU
        if arrival is not None:
            self.arrivals[tid] = arrival
        kind = t.kind
        if kind is TensorKind.DATA or kind is TensorKind.GRAD:
            self._live.add(tid)

    def offload_started(self, t: Tensor) -> None:
        """An eager offload's D2H copy of ``t`` started: its host copy is
        valid from here on, and its GPU copy stays until the copy is
        reaped.  The copy supersedes a write-behind one, so a line is
        never host-valid and cleaning at once."""
        tid = t.tensor_id
        if _ins.ACTIVE is not None:
            _ins.trace_write(self, "tensor_state.host", t.name)
        self._host.add(tid)
        if self._cleaning:
            self._cleaning.pop(tid, None)

    def to_host(self, t: Tensor):
        """``t``'s GPU copy goes and its host copy keeps it — an
        eviction, a reaped offload, a release.  Returns the write-behind
        copy's event, retired (None if the line was not cleaning)."""
        tid = t.tensor_id
        if self.validate:
            self._check(t, Placement.HOST)
        if _ins.ACTIVE is not None:
            _ins.trace_write(self, "tensor_state.placement", t.name)
            _ins.trace_write(self, "tensor_state.host", t.name)
        self._placement[tid] = Placement.HOST
        self._host.add(tid)
        return self._cleaning.pop(tid, None) if self._cleaning else None

    def to_freed(self, t: Tensor) -> bool:
        """``t`` is discarded everywhere.  Returns whether it held a
        host reservation — a valid host copy, or a write-behind copy
        whose event is retired here — for the caller to release; an
        arrival in flight is forgotten."""
        tid = t.tensor_id
        if self.validate:
            self._check(t, Placement.FREED)
        if _ins.ACTIVE is not None:
            _ins.trace_write(self, "tensor_state.placement", t.name)
            _ins.trace_write(self, "tensor_state.host", t.name)
        self._placement[tid] = Placement.FREED
        self._live.discard(tid)
        hosted = tid in self._host
        if hosted:
            self._host.discard(tid)
        if self.arrivals or self._cleaning:
            self.arrivals.pop(tid, None)
            if self._cleaning.pop(tid, None) is not None:
                hosted = True
        return hosted

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

    def host_ids(self) -> Set[int]:
        """Ids with a valid host copy — the live set, not a snapshot."""
        return self._host

    # -- live-descriptor accounting (step-trace statistic) -----------------
    def live_count(self) -> int:
        return len(self._live)

    # -- write-behind cleaning (D2H copies of lines still cached) ----------
    # The third residency state of a cached line, beside clean and
    # dirty: its D2H copy has been started (and may have landed) but
    # the GPU copy is still the one in use.  ``host_resident`` stays
    # False until an eviction consumes the event (``to_host``).
    def set_cleaning(self, t: Tensor, event) -> None:
        self._cleaning[t.tensor_id] = event

    def cleaning(self, t: Tensor) -> bool:
        return t.tensor_id in self._cleaning

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
