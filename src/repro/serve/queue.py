"""Thread-safe request queue for the serving subsystem.

A request is a batch of 1..K samples with an id, an enqueue timestamp
and a :class:`RequestFuture` the caller blocks on.  The queue itself is
deliberately dumb — FIFO arrival order, one condition variable — so
every coalescing decision (which requests ride one engine step, where
an oversized request splits) lives in the
:class:`~repro.serve.batcher.DynamicBatcher`'s one rule,
:func:`~repro.serve.batcher.coalesce`, not here.  The batcher
synchronizes on :attr:`RequestQueue.cond`, the one monitor both sides
share: a ``submit`` wakes waiting workers without a second lock or a
polling loop.

Every request carries a **priority class** (:data:`PRIORITIES`) and an
optional absolute **deadline** — the coalescing rule orders every
assembly round by them (the request's ``urgency``, built once at
admission) and the metrics report SLO percentiles per class.  A queue
built with ``max_pending_rows`` adds backpressure: admission is capped
at that many pending sample rows, and an over-cap admission raises
:class:`RequestRejected` *synchronously* instead of growing the
backlog — the caller knows at once, and a shed request never owns a
future that could dangle.

Admission has one path: :func:`validate_request` checks a submit's
arguments and :meth:`RequestQueue.admit` is the one admission body.
The server and the fleet validate once and call ``admit``;
:meth:`RequestQueue.submit` is both steps for direct queue callers.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from time import monotonic
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.check import instrument as _ins
from repro.check.instrument import (
    TracedCondition,
    TracedEvent,
    TracedLock,
    channel_recv,
    channel_send,
)

#: Priority classes, most to least urgent.  ``critical`` requests get
#: first claim on every assembly round; ``batch`` traffic yields to
#: everything else.
PRIORITIES = ("critical", "normal", "batch")

#: class name -> urgency rank (lower is more urgent)
PRIORITY_RANK = {name: rank for rank, name in enumerate(PRIORITIES)}

#: what a request shares until it needs its own: no engine version
#: (until a part is delivered) and no instant reported
_NO_VERSIONS: frozenset = frozenset()
_NEVER = float("-inf")


class RequestRejected(RuntimeError):
    """A bounded queue shed this request at admission.

    Raised synchronously from ``admit`` — the request never entered
    the backlog and no future exists for it.  Explicit shedding is the
    backpressure contract: a saturated server answers *now* with a
    rejection the caller can retry elsewhere, instead of accepting work
    it cannot finish in time.
    """


def validate_request(data, size: Optional[int], priority: str,
                     deadline: Optional[float] = None,
                     sample_shape: Optional[tuple] = None,
                     concrete: Optional[bool] = None):
    """Check one submit's arguments; returns ``(data, size, deadline)``
    — the payload as float32 rows (``None`` for simulated traffic), its
    row count and the deadline as a float (or ``None``).

    Every front door (queue, server, fleet) calls this once, *first*: a
    bad call raises ``ValueError`` before a span opens, before
    admission is asked and before anything is counted, so it can
    neither leave an open root in an armed trace nor be shed.
    ``deadline`` must be ``None`` or a finite real number (a NaN sort
    key would leave the coalescing order undefined).
    ``sample_shape`` is the compiled per-sample shape when the caller
    serves exactly one; ``concrete`` says whether payloads exist behind
    this door (``None``: a bare queue, which takes either).
    """
    if priority not in PRIORITY_RANK:
        raise ValueError(f"unknown priority {priority!r}; "
                         f"expected one of {PRIORITIES}")
    if deadline is not None:
        if not isinstance(deadline, numbers.Real) \
                or not math.isfinite(deadline):
            raise ValueError(f"deadline must be None or a finite "
                             f"number, got {deadline!r}")
        deadline = float(deadline)
    if concrete is not None and concrete != (data is not None):
        raise ValueError(
            "a concrete engine serves payload rows; pass data= "
            "(size-only requests are for simulated engines)" if concrete
            else "a simulated engine holds no payloads, so the rows "
            "would be silently ignored; pass size= instead")
    if data is not None:
        data = np.asarray(data, dtype=np.float32)
        if data.ndim < 1 or data.shape[0] < 1:
            raise ValueError("request data needs a leading sample axis")
        if size is not None and size != data.shape[0]:
            raise ValueError(
                f"size={size} disagrees with data rows {data.shape[0]}")
        if sample_shape is not None and data.shape[1:] != sample_shape:
            raise ValueError(
                f"sample shape {data.shape[1:]} != compiled "
                f"{sample_shape}")
        size = data.shape[0]
    elif size is None:
        raise ValueError("submit needs data rows or an explicit size")
    if size < 1:
        raise ValueError(f"request needs >= 1 samples, got {size}")
    return data, int(size), deadline


class RequestFuture:
    """Minimal future: the caller's handle to one in-flight request.

    Its :class:`TracedEvent` is a flag until a caller waits on it
    unresolved, so a future resolved before anyone asks costs no
    ``threading.Event``."""

    __slots__ = ("_event", "_result", "_exception")

    def __init__(self) -> None:
        self._event = TracedEvent("future")
        self._result: Optional[np.ndarray] = None
        self._exception: Optional[BaseException] = None

    def done(self) -> bool:
        return self._event.is_set()

    def set_result(self, value: Optional[np.ndarray]) -> None:
        self._result = value
        self._event.set()

    def set_exception(self, exc: BaseException) -> None:
        self._exception = exc
        self._event.set()

    def result(self, timeout: Optional[float] = None
               ) -> Optional[np.ndarray]:
        """Block until the request completes; the per-sample output rows
        (``None`` in simulated mode — no payloads exist to return)."""
        if not self._event.wait(timeout):
            raise TimeoutError(f"request not completed after {timeout}s")
        if self._exception is not None:
            raise self._exception
        return self._result


class InferenceRequest:
    """One enqueued request: ``size`` samples plus delivery state.

    ``data`` holds the concrete payload rows ``(size, *sample_shape)``
    (``None`` for simulated-mode traffic, which exercises the full
    scheduling path without payloads).  A request split across several
    engine steps collects its output parts here — ``deliver`` is called
    once per slice, possibly from different worker threads, and the
    future resolves when the last part lands.  ``versions`` records the
    engine weights version each slice computed under; the no-tearing
    guarantee of ``swap_weights`` is exactly ``len(versions) == 1``.
    ``urgency`` is the coalescing order key: priority class, then
    deadline (none last within its class), then arrival.

    ``fail`` and ``deliver`` race by design (a split request's batches
    run on different workers, and one batch can fail mid-scatter after
    a sibling slice already landed), so *both* resolve the future and
    ``complete_time`` under ``_lock``, and both are no-ops once the
    future is done — a request is counted completed XOR failed, exactly
    once, whatever the interleaving.
    """

    __slots__ = ("request_id", "size", "data", "enqueue_time", "priority",
                 "deadline", "urgency", "future", "dispatch_time",
                 "complete_time", "versions", "_lock", "_parts",
                 "_remaining", "_last_report", "span", "queue_span")

    def __init__(self, request_id: int, size: int,
                 data: Optional[np.ndarray], enqueue_time: float,
                 priority: str = "normal",
                 deadline: Optional[float] = None):
        self.request_id = request_id
        self.size = size
        self.data = data
        self.enqueue_time = enqueue_time
        self.priority = priority
        self.deadline = deadline
        self.urgency = (PRIORITY_RANK[priority],
                        math.inf if deadline is None else deadline,
                        request_id)
        self.future = RequestFuture()
        self.dispatch_time: Optional[float] = None   # first slice started
        self.complete_time: Optional[float] = None
        self.versions = _NO_VERSIONS   # a set of its own from delivery
        self._lock = TracedLock("request")
        self._parts: Sequence[Optional[np.ndarray]] = ()  # from dispatch
        self._remaining = 0
        # the latest instant any part reported.  A worker reads its
        # clock before it takes _lock, so the caller that completes the
        # request may hold an older reading than a sibling slice that
        # computed and delivered in between; the request is over when
        # its last part is, not when its last *caller* looked.
        self._last_report = _NEVER
        # observability (repro.obs): the request's root span and its
        # queue-wait child, attached by the submit front door when the
        # tracer is armed.  Both close under _lock (deliver/fail/
        # mark_dispatched already serialize there), so the span tree is
        # finished exactly once whatever the slice interleaving.
        self.span = None           # root "request" span
        self.queue_span = None     # "queue.wait" child

    # -- delivery (called by the batcher/workers) -------------------------
    def begin_dispatch(self, n_slices: int) -> None:
        """Arm delivery for ``n_slices`` output parts (batcher, at plan
        time, under the queue monitor)."""
        self._parts = [None] * n_slices
        self._remaining = n_slices

    def mark_dispatched(self, now: float) -> None:
        with self._lock:
            if self.dispatch_time is None:
                self.dispatch_time = now
                if self.queue_span is not None:
                    self.queue_span.finish(end=now)

    def deliver(self, part_index: int, rows: Optional[np.ndarray],
                version: int, now: float) -> bool:
        """Hand one slice's output rows over; resolves the future when
        every part has arrived.  True exactly once, on the delivery
        that completed the request (the caller records metrics then).

        A no-op (False) once the future is done: after one slice batch
        failed the request, late deliveries of the surviving slices
        must not count it down to "completed" a second time — the fix
        for the completed-AND-failed double-count.
        """
        with self._lock:
            if self.future.done():
                return False     # already failed (or delivered): drop it
            self._parts[part_index] = rows
            if self.versions:
                self.versions.add(version)
            else:  # the first part: the shared empty set until now
                self.versions = {version}
            self._last_report = now = max(self._last_report, now)
            self._remaining -= 1
            if self._remaining > 0:
                return False
            # resolve under the lock: a racing fail() checks done()
            # under the same lock, so completion and failure are
            # mutually exclusive and complete_time is never torn
            self.complete_time = now
            if any(p is None for p in self._parts):
                self.future.set_result(None)     # simulated mode
            else:
                out = self._parts[0] if len(self._parts) == 1 \
                    else np.concatenate(self._parts, axis=0)
                self.future.set_result(out)
            if self.span is not None:
                self.span.finish(end=now, status="ok",
                                 versions=len(self.versions))
            return True

    def fail(self, exc: BaseException, now: float) -> bool:
        """Resolve the future with ``exc``; True only on the first
        failure (a split request can fail once per slice batch), and
        never after the request already completed."""
        with self._lock:
            if self.future.done():
                return False
            now = max(self._last_report, now)
            self.complete_time = now
            self.future.set_exception(exc)
            if self.queue_span is not None:
                # a request failed before dispatch still closes its wait
                self.queue_span.finish(end=now)
            if self.span is not None:
                self.span.finish(end=now, status="error",
                                 error=type(exc).__name__)
            return True

    def __repr__(self) -> str:  # pragma: no cover
        return (f"InferenceRequest(id={self.request_id}, size={self.size}, "
                f"done={self.future.done()})")


class RequestQueue:
    """FIFO of pending requests, one condition variable, a monotonic id.

    ``admit`` stamps the enqueue time from the injected ``clock``
    (tests drive a fake clock; production uses ``time.monotonic``).
    With ``max_pending_rows`` admission is bounded: an admit that would
    put more sample rows than that in the backlog raises
    :class:`RequestRejected` and changes nothing — the caller that
    asked counts the shed, the queue does not.
    ``take_pending`` atomically hands the whole backlog to the batcher
    — one assembly round owns a consistent snapshot, so every slice of
    a split request is planned together (the property the weight-swap
    barrier builds on).
    """

    def __init__(self, sample_shape: Optional[tuple] = None,
                 clock: Callable[[], float] = monotonic,
                 max_pending_rows: Optional[int] = None):
        if max_pending_rows is not None and max_pending_rows < 1:
            raise ValueError(
                f"max_pending_rows must be >= 1, got {max_pending_rows}")
        self.sample_shape = None if sample_shape is None \
            else tuple(int(d) for d in sample_shape)
        self.clock = clock
        self.max_pending_rows = None if max_pending_rows is None \
            else int(max_pending_rows)
        self.cond = TracedCondition("serve.queue")
        self._items: deque = deque()
        self._rows = 0          # sample rows in _items, kept under cond
        self._next_id = 0
        self._closed = False
        self.submitted = 0

    # -- producer side ----------------------------------------------------
    def submit(self, data: Optional[np.ndarray] = None,
               size: Optional[int] = None,
               priority: str = "normal",
               deadline: Optional[float] = None,
               span=None) -> InferenceRequest:
        """Validate, then :meth:`admit`: enqueue a request of ``data``
        rows (concrete) or a bare ``size`` (simulated traffic); returns
        the request, whose ``.future`` the caller blocks on."""
        data, size, deadline = validate_request(
            data, size, priority, deadline, self.sample_shape)
        return self.admit(data, size, priority, deadline, span)

    def admit(self, data: Optional[np.ndarray], size: int, priority: str,
              deadline: Optional[float], span=None) -> InferenceRequest:
        """The one admission body, for arguments
        :func:`validate_request` already checked.  ``priority`` is one
        of :data:`PRIORITIES`; ``deadline`` is an absolute clock time the
        coalescing rule orders urgent work by.  ``span`` is
        the request's root observability span (created by the server/
        fleet front door); it attaches — and opens its queue-wait
        child — under the monitor, before any worker can see the
        request, so delivery can never race the attachment.  Raises
        :class:`RequestRejected` past ``max_pending_rows``."""
        with self.cond:
            if self._closed:
                raise RuntimeError("queue is closed; no new requests")
            if self.max_pending_rows is not None \
                    and self._rows + size > self.max_pending_rows:
                raise RequestRejected(
                    f"queue full: {self._rows} pending rows + {size} > "
                    f"max_pending_rows={self.max_pending_rows}")
            req = InferenceRequest(self._next_id, size, data, self.clock(),
                                   priority=priority, deadline=deadline)
            if span is not None:
                req.span = span
                span.attrs.setdefault("request_id", req.request_id)
                req.queue_span = span.child("queue.wait",
                                            start=req.enqueue_time)
            self._next_id += 1
            self._items.append(req)
            self._rows += size
            self.submitted += 1
            # the queue hand-off edge: everything the submitter did
            # happens-before the assembly round that takes this request
            if _ins.ACTIVE is not None:
                channel_send(f"req:{req.request_id}", "queue.put")
            self.cond.notify_all()
        return req

    def close(self) -> None:
        """Reject further submits; pending requests still drain."""
        with self.cond:
            self._closed = True
            self.cond.notify_all()

    # -- consumer side (batcher; caller holds ``cond``) -------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def pending_count(self) -> int:
        return len(self._items)

    def pending_rows(self) -> int:
        return self._rows

    def oldest_enqueue_time(self) -> Optional[float]:
        return self._items[0].enqueue_time if self._items else None

    def take_pending(self) -> List[InferenceRequest]:
        """Remove and return the whole backlog (an assembly round)."""
        items = list(self._items)
        self._items.clear()
        self._rows = 0
        if _ins.ACTIVE is not None:
            for r in items:
                channel_recv(f"req:{r.request_id}", "queue.take")
        return items

