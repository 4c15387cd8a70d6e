"""The span tracer: one request (or iteration) = one tree of timed spans.

A :class:`Span` is a named, timed interval with a ``trace_id`` shared by
its whole tree and an explicit ``parent_id`` — context rides the object
(a serving request carries its root span across the submitter, the
assembling worker and the computing worker), never a thread-local,
because the interesting trees here *cross* threads by design.

Arming is :mod:`repro.check.instrument`'s :class:`ArmingSwitch`,
instantiated here over this module's :data:`ACTIVE` tracer: hooks cost
one global load + ``is None`` when disarmed, ``REPRO_TRACE`` is
honored at import, and :func:`arm`/:func:`capture` arm from code.
Those are the only ways to arm: the tracer is process state, so no
engine or config switches it.
The per-iteration span is emitted by ``Session.run_iteration`` — the
handle a user drives — so internal executors (the engine's compile
scout, the cost model's throwaway) emit none; an executor built while
the tracer is armed keeps a bounded device-op log for the exporter.

The tracer is bounded (:data:`DEFAULT_LIMIT` spans, ``REPRO_TRACE_LIMIT``
to override): past the cap new spans are created but not retained, and
:attr:`Tracer.truncated` says so — a long serving run keeps O(1) memory
and never silently pretends the dropped spans were captured.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from time import monotonic
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.check.instrument import ArmingSwitch, TracedLock

#: arming knob honored at import time (mirrors ``REPRO_TRACE_SYNC``)
TRACE_ENV = "REPRO_TRACE"
#: span-capacity companion (mirrors ``REPRO_TRACE_SYNC_CAP``)
CAP_ENV = "REPRO_TRACE_LIMIT"

#: retained spans per tracer unless overridden — at ~200 bytes a span
#: this bounds an armed run to tens of MB, not unbounded growth
DEFAULT_LIMIT = 262_144

#: per-stream device-timeline op records kept when tracing arms a
#: :class:`~repro.device.timeline.Timeline` op log (the exporter merges
#: them; an unbounded serving run must not grow the log without limit)
TIMELINE_OPS_LIMIT = 200_000


class Span:
    """One timed interval in a trace tree.

    ``start``/``end`` are seconds on the owning tracer's clock (the
    serving stack injects one shared monotonic clock, so span edges and
    request timestamps live in one time base).  ``finish`` is
    idempotent — the first call wins, late calls are no-ops — because a
    split request's root can race its queue-wait child's closer.
    """

    __slots__ = ("tracer", "name", "cat", "trace_id", "span_id",
                 "parent_id", "start", "end", "status", "attrs",
                 "thread")

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 trace_id: int, span_id: int, parent_id: Optional[int],
                 start: float, attrs: Optional[Dict[str, Any]]):
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        self.status = "open"
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.thread = threading.current_thread().name

    def child(self, name: str, cat: Optional[str] = None,
              start: Optional[float] = None,
              attrs: Optional[Dict[str, Any]] = None) -> "Span":
        return self.tracer.start(name, cat=cat or self.cat, parent=self,
                                 start=start, attrs=attrs)

    def finish(self, end: Optional[float] = None, status: str = "ok",
               **attrs: Any) -> None:
        """Close the span (first call wins; late calls are no-ops)."""
        self.tracer._finish(self, end, status, attrs)

    @property
    def duration(self) -> float:
        return 0.0 if self.end is None else self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Span({self.name!r}, trace={self.trace_id}, "
                f"id={self.span_id}, status={self.status})")


class Tracer:
    """Bounded, thread-safe collector of span trees.

    The lock is a leaf: the tracer never acquires another lock while
    holding it, so span hooks are safe from inside the queue monitor,
    a request's delivery lock, or the metrics lock.
    """

    def __init__(self, clock: Callable[[], float] = monotonic,
                 limit: Optional[int] = None):
        self.clock = clock
        self.limit = default_limit() if limit is None else max(1, limit)
        self._lock = TracedLock("obs.tracer")
        self._spans: List[Span] = []
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self.truncated = False

    # -- creation ---------------------------------------------------------
    def root(self, name: str, cat: str = "serve",
             start: Optional[float] = None,
             attrs: Optional[Dict[str, Any]] = None) -> Span:
        """Open a new trace tree (fresh ``trace_id``, no parent)."""
        return self._open(name, cat, next(self._trace_ids), None,
                          start, attrs)

    def start(self, name: str, cat: str = "serve",
              parent: Optional[Span] = None,
              start: Optional[float] = None,
              attrs: Optional[Dict[str, Any]] = None) -> Span:
        """Open a span; with ``parent`` it joins that tree."""
        if parent is None:
            return self.root(name, cat=cat, start=start, attrs=attrs)
        return self._open(name, cat, parent.trace_id, parent.span_id,
                          start, attrs)

    def emit(self, name: str, start: float, end: float,
             cat: str = "serve", parent: Optional[Span] = None,
             status: str = "ok",
             attrs: Optional[Dict[str, Any]] = None) -> Span:
        """Record an already-finished interval in one call (the worker
        emits per-slice compute spans after the step completed)."""
        span = self.start(name, cat=cat, parent=parent, start=start,
                          attrs=attrs)
        span.finish(end=end, status=status)
        return span

    @contextmanager
    def span(self, name: str, cat: str = "serve",
             parent: Optional[Span] = None,
             attrs: Optional[Dict[str, Any]] = None) -> Iterator[Span]:
        """``with tracer.span("compile"):`` — finishes on exit, status
        ``"error"`` (with the exception type) when the body raised."""
        sp = self.start(name, cat=cat, parent=parent, attrs=attrs)
        try:
            yield sp
        except BaseException as exc:
            sp.finish(status="error", error=type(exc).__name__)
            raise
        else:
            sp.finish()

    def _open(self, name: str, cat: str, trace_id: int,
              parent_id: Optional[int], start: Optional[float],
              attrs: Optional[Dict[str, Any]]) -> Span:
        span = Span(self, name, cat, trace_id, next(self._span_ids),
                    parent_id, self.clock() if start is None else start,
                    attrs)
        with self._lock:
            if len(self._spans) < self.limit:
                self._spans.append(span)
            else:
                self.truncated = True
        return span

    def _finish(self, span: Span, end: Optional[float], status: str,
                attrs: Dict[str, Any]) -> None:
        with self._lock:
            if span.end is not None:
                return
            span.end = self.clock() if end is None else end
            span.status = status
            if attrs:
                span.attrs.update(attrs)

    # -- reading ----------------------------------------------------------
    def spans(self) -> List[Span]:
        """Snapshot of the retained spans (creation order)."""
        with self._lock:
            return list(self._spans)

    def roots(self, name: Optional[str] = None) -> List[Span]:
        return [s for s in self.spans() if s.parent_id is None
                and (name is None or s.name == name)]

    def by_trace(self) -> Dict[int, List[Span]]:
        trees: Dict[int, List[Span]] = {}
        for s in self.spans():
            trees.setdefault(s.trace_id, []).append(s)
        return trees

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


# -------------------------------------------------------------- arming
#: the process tracer; ``None`` = disarmed.  Hooks pay one global load
#: + ``is None`` when disarmed — the REPRO_TRACE_SYNC discipline.
ACTIVE: Optional[Tracer] = None

_SWITCH = ArmingSwitch(globals(), Tracer, trace_env=TRACE_ENV,
                       cap_env=CAP_ENV, default_cap=DEFAULT_LIMIT)
arm = _SWITCH.arm
disarm = _SWITCH.disarm
armed = _SWITCH.armed
active_tracer = _SWITCH.active
capture = _SWITCH.capture
default_limit = _SWITCH.default_limit
_SWITCH.arm_at_import()
