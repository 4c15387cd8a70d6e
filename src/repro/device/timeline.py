"""A minimal discrete-event timeline with CUDA-like streams.

The paper's overlap argument — offload/prefetch hide under compute
because the DMA engines are independent of the SMs (§3.3.1) — is the
heart of the UTP performance story, so the simulator must model streams
faithfully:

* ops submitted to the same stream serialize;
* ops on different streams run concurrently;
* an op may depend on events (completions of earlier ops on any stream);
* synchronizing a stream on an event advances that stream's clock to
  the event's completion time (that is the *stall* the tensor cache is
  designed to avoid).

Time is a float in seconds.  There is no event queue to pump: because
every duration is known at submission, completion times are computed
eagerly — the classic "max of dependencies plus duration" critical-path
recurrence.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, NamedTuple, Optional

_tuple_new = tuple.__new__


class Stream(enum.Enum):
    """The three hardware engines the paper's runtime drives."""

    COMPUTE = "compute"
    D2H = "d2h"      # offload engine
    H2D = "h2d"      # prefetch engine


class Event(NamedTuple):
    """Completion marker of one submitted op.

    A NamedTuple, not a dataclass: events are minted on every kernel
    and copy submission, and frozen-dataclass construction (one
    ``object.__setattr__`` per field) is measurable on that path.
    :meth:`Timeline.submit` mints them with ``tuple.__new__``, which
    skips the generated Python ``__new__`` frame.
    """

    event_id: int
    stream: Stream
    time: float        # absolute completion timestamp
    label: str = ""


@dataclass
class _OpRecord:
    label: str
    stream: Stream
    start: float
    end: float


class Timeline:
    """Tracks per-stream clocks and the ops run on them.

    The runtime submits work via :meth:`submit` and gets back an
    :class:`Event`; waiting on an event via :meth:`sync` models a CUDA
    ``cudaStreamWaitEvent`` + host sync.  :attr:`elapsed` is the
    wall-clock of the whole simulation (max over stream clocks).

    ``clock`` and ``busy`` map each stream's ``value`` to its clock and
    its busy seconds.  Both are updated in place, never rebound.  An
    allocator charges its serialized latency (mallocs/frees) by adding
    to the compute entries of both: the same arithmetic as a
    dependency-free :meth:`submit` whose event nobody waits on, with no
    event, no op record and no call.  Streams are looked up by
    ``_value_``, the member's plain attribute: ``Stream.value`` is a
    descriptor, two Python frames per read.
    """

    def __init__(self, record_ops: bool = True,
                 max_ops: Optional[int] = None) -> None:
        """``record_ops=False`` keeps the per-op log empty: clocks and
        busy-time still accumulate, but long-running executors do not
        grow an unbounded list of one record per submitted op.
        ``max_ops`` bounds the log instead: the *newest* records are
        kept (a serving executor armed for tracing wants the recent
        window, not the first minutes) and :attr:`dropped_ops` counts
        the evictions so an exported trace can say it was clipped."""
        # keyed by Stream.value: str hashes are cached in the object,
        # enum hashing is not — these dicts sit on the hottest path
        self.clock: Dict[str, float] = {s.value: 0.0 for s in Stream}
        self._events = itertools.count(0)
        self._ops: Deque[_OpRecord] = deque() if max_ops is None \
            else deque(maxlen=max_ops)
        self.busy: Dict[str, float] = {s.value: 0.0 for s in Stream}
        self.record_ops = record_ops
        self.max_ops = max_ops
        self.dropped_ops = 0

    # -- submission -------------------------------------------------------
    def submit(
        self,
        stream: Stream,
        duration: float,
        label: str = "",
        after: Optional[Iterable[Event]] = None,
        not_before: float = 0.0,
    ) -> Event:
        """Run ``duration`` seconds of work on ``stream``.

        The op starts when the stream is free, all ``after`` events have
        completed, and ``not_before`` has passed.  ``not_before`` models
        the *issue time*: work queued by host code that runs in lockstep
        with the compute stream cannot start before that code ran —
        without it, an idle copy stream would happily execute transfers
        "in the past" and no prefetch could ever be late.
        """
        if duration < 0:
            raise ValueError(f"negative duration {duration} for {label!r}")
        key = stream._value_
        start = self.clock[key]
        if not_before > start:
            start = not_before
        if after:
            for ev in after:
                if ev.time > start:
                    start = ev.time
        end = start + duration
        self.clock[key] = end
        self.busy[key] += duration
        if self.record_ops:
            if self.max_ops is not None \
                    and len(self._ops) == self.max_ops:
                self.dropped_ops += 1
            self._ops.append(_OpRecord(label, stream, start, end))
        return _tuple_new(Event, (next(self._events), stream, end, label))

    def sync(self, stream: Stream, event: Event) -> float:
        """Block ``stream`` until ``event`` completes; returns stall time."""
        key = stream._value_
        now = self.clock[key]
        if event.time > now:
            self.clock[key] = event.time
            return event.time - now
        return 0.0

    def sync_all(self) -> float:
        """Join every stream (end-of-iteration barrier); returns new now."""
        t = max(self.clock.values())
        for s in self.clock:
            self.clock[s] = t
        return t

    # -- introspection ------------------------------------------------------
    def now(self, stream: Stream = Stream.COMPUTE) -> float:
        return self.clock[stream._value_]

    @property
    def elapsed(self) -> float:
        return max(self.clock.values())

    def busy_time(self, stream: Stream) -> float:
        """Total work submitted to ``stream`` (ignores gaps)."""
        return self.busy[stream._value_]

    def ops(self, stream: Optional[Stream] = None) -> List[_OpRecord]:
        if stream is None:
            return list(self._ops)
        return [op for op in self._ops if op.stream is stream]

    def reset(self) -> None:
        for key in self.clock:
            self.clock[key] = self.busy[key] = 0.0
        self._ops.clear()
