"""Synchronization instrumentation: traced primitives + the event log.

The race detector (:mod:`repro.check.race_detector`) is an *execution*
checker: it replays a happens-before analysis over a log of every
synchronization operation and shared-state access one run performed.
This module is the recording half:

* :class:`TracedLock` / :class:`TracedCondition` / :class:`TracedEvent`
  / :class:`TracedThread` — drop-in wrappers over the ``threading``
  primitives that append :class:`SyncEvent` records to the armed
  :class:`EventLog`.  LINT005 forbids constructing the raw primitives
  anywhere else in ``src/repro``, so production code is
  sanitizer-ready by construction;
* :func:`trace_read` / :func:`trace_write` — shared-state access hooks
  placed on the cross-thread surfaces (``SessionTensorState`` table
  writes, ``Engine.weights_version`` / parameter installs, the
  compiled-mode cache);
* :func:`channel_send` / :func:`channel_recv` — explicit happens-before
  edges for message-passing hand-offs that no single lock models (the
  request queue put/take, batch publish/pop, ``parallel_run``'s
  submit/collect).

Arming
------
Tracing is process-global and off by default.  Disarmed, a hook costs
one global load and an ``is None`` test, inline, never a call: every
primitive tests :data:`ACTIVE` in its own body before it calls
``_rec``, and every call of an access/edge hook sits behind an
``if instrument.ACTIVE is not None:`` at its call site, so its tokens
and labels are built only when armed.  ``tests/test_obs.py::
TestDisarmedCost`` holds both paths to it: a replayed train iteration
enters **zero** ``repro.check`` frames; a served request enters only
the primitives' own frames (the request's lock and future, the queue
monitor), and their pinned count per request is the serving front
door's stated budget.  Arm it
with :func:`arm`/:func:`capture`, or by exporting
``REPRO_TRACE_SYNC=1`` (consulted once, at import — how the CI race
jobs arm whole scripts without code changes).  No engine or config
arms it: process state has process-wide switches only.  The switch is
an :class:`ArmingSwitch`, which :mod:`repro.obs.trace` instantiates a
second time over its own ``ACTIVE``.

Gate locks
----------
``TracedLock(..., gate=True)`` marks a lock *designed* to be held
across a blocking wait — e.g. the server's swap lock, which serializes
swappers while each waits out the batcher drain barrier.  RACE004
(lock-held-across-wait) skips gate locks; the flag is the audited,
greppable record of that intent, exactly like a lint pragma.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional

#: Environment switch: arms tracing at import (see :func:`env_flag`).
TRACE_ENV = "REPRO_TRACE_SYNC"

#: Environment override for the default event-log capacity (see
#: :func:`default_limit`).
CAP_ENV = "REPRO_TRACE_SYNC_CAP"

#: Default event-log capacity.  On overflow the log stops appending and
#: sets :attr:`EventLog.truncated`; the detector reports RACE005
#: (incomplete-trace, warning) so a silently-partial analysis is
#: impossible.
DEFAULT_LIMIT = 2_000_000


def env_flag(name: str) -> bool:
    """The one truth table for every ``REPRO_*`` on/off switch:
    ``1``/``true``/``yes``/``on`` (any case) is on, everything else —
    unset, ``0``, a typo — is off."""
    return os.environ.get(name, "").strip().lower() \
        in ("1", "true", "yes", "on")


def env_positive_int(name: str, default: int) -> int:
    """``name`` as a positive integer, ``default`` when unset or blank;
    anything else raises ``ValueError`` naming the variable.  Read per
    call, so one process can re-resolve after the environment changes
    (the tests do)."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = 0       # rejected below, with the other non-positives
    if value < 1:
        raise ValueError(
            f"{name} must be a positive integer, got {raw!r}")
    return value


class ArmingSwitch:
    """The process-wide switch of one collector type: the sync
    :class:`EventLog` here, the span ``Tracer`` in :mod:`repro.obs.trace`.

    A collector is armed while its module's ``ACTIVE`` global holds an
    instance.  Hot paths read that global inline (one load, no call), so
    it stays a plain module attribute; this class is its only writer.
    ``namespace`` is the owning module's ``globals()``; ``factory()``
    builds a collector whose capacity defaults to :meth:`default_limit`.
    """

    def __init__(self, namespace: Dict[str, Any],
                 factory: Callable[..., Any], *, trace_env: str,
                 cap_env: str, default_cap: int):
        self._namespace = namespace
        self.factory = factory
        self.trace_env = trace_env      # on/off, consulted at import
        self.cap_env = cap_env          # capacity override
        self.default_cap = default_cap

    def default_limit(self) -> int:
        """The capacity to use when none is given explicitly: the
        ``cap_env`` variable when set, else the built-in default."""
        return env_positive_int(self.cap_env, self.default_cap)

    def active(self) -> Optional[Any]:
        return self._namespace["ACTIVE"]

    def armed(self) -> bool:
        return self._namespace["ACTIVE"] is not None

    def _install(self, collector: Optional[Any]) -> Optional[Any]:
        prev = self._namespace["ACTIVE"]
        self._namespace["ACTIVE"] = collector
        return prev

    def arm(self, collector: Optional[Any] = None) -> Any:
        """Arm ``collector``; with none given keep the armed one, or
        create one (idempotent)."""
        if collector is None and not self.armed():
            collector = self.factory()
        if collector is not None:   # (an empty log is falsy: test None)
            self._install(collector)
        return self.active()

    def disarm(self) -> Optional[Any]:
        """Disarm; returns the collector that was armed (if any)."""
        return self._install(None)

    @contextmanager
    def capture(self, **collector_kw: Any) -> Iterator[Any]:
        """Arm a fresh ``factory(**collector_kw)`` for the enclosed
        block, then restore the previous arming state — the scenario/
        test entry point, and what every ``--trace-out`` flag is."""
        collector = self.factory(**collector_kw)
        prev = self._install(collector)
        try:
            yield collector
        finally:
            self._install(prev)

    def arm_at_import(self) -> None:
        """The environment arms whole scripts (the CI race jobs)
        without code changes."""
        if env_flag(self.trace_env):
            self.arm()


class SyncEvent(NamedTuple):
    """One synchronization operation or shared-state access."""

    seq: int        # global order (assigned under the log's lock)
    thread: str     # stable per-log thread key (name, deduped by ident)
    kind: str       # see KINDS
    obj: int        # id() of the primitive / shared-state owner
    label: str      # human label ("serve.queue", "engine.weights_version")
    detail: str     # tensor name, channel token, "timeout", ...
    gate: bool      # lock acquires only: held-across-wait is intended


#: Event kinds the detector understands.
KINDS = frozenset({
    "acquire", "release",            # TracedLock / monitor enter-exit
    "wait_begin", "wait_end",        # condition wait (releases monitor)
    "notify",                        # condition notify (reporting only)
    "event_set", "event_wait_begin", "event_wait_end",
    "chan_send", "chan_recv",        # explicit hand-off edges
    "thread_start", "thread_begin",  # parent spawn -> child first step
    "thread_end", "thread_join",     # child last step -> parent join
    "read", "write",                 # shared-state accesses
})


class EventLog:
    """Thread-safe append-only log of :class:`SyncEvent` records.

    Appends serialize on one internal (raw, untraced) lock, so ``seq``
    is a total order consistent with the real execution: a lock-release
    record is appended while the lock is still held, an acquire record
    after acquisition, which keeps the log order a linearization of the
    synchronization order the detector replays.
    """

    def __init__(self, limit: Optional[int] = None):
        if limit is None:
            limit = default_limit()
        if limit < 1:
            raise ValueError(f"event log limit must be >= 1, got {limit}")
        self._lock = threading.Lock()   # the one raw lock: LINT005 owner
        self.events: List[SyncEvent] = []
        self.limit = limit
        self.truncated = False
        self._thread_keys: Dict[int, str] = {}    # id(thread) -> key
        self._threads: List[threading.Thread] = []  # pins: ids stay unique
        self._names_seen: Dict[str, int] = {}     # name -> count

    def _thread_key(self, t: threading.Thread) -> str:
        """A stable, human-readable per-thread key.

        Thread *names* read well in diagnostics but are not unique, and
        idents are recycled the moment a thread exits (a short-lived
        thread's ident routinely reappears on the next spawn) — so key
        by the Thread *object*, pinned in ``_threads`` for the log's
        lifetime to keep its ``id()`` unique.  First thread to record
        under a name owns it; later same-named threads get ``name#N``.
        """
        key = self._thread_keys.get(id(t))
        if key is None:
            n = self._names_seen.get(t.name, 0)
            self._names_seen[t.name] = n + 1
            key = t.name if n == 0 else f"{t.name}#{n + 1}"
            self._thread_keys[id(t)] = key
            self._threads.append(t)
        return key

    def record(self, kind: str, obj: int = 0, label: str = "",
               detail: str = "", gate: bool = False) -> None:
        t = threading.current_thread()
        with self._lock:
            if len(self.events) >= self.limit:
                self.truncated = True
                return
            self.events.append(SyncEvent(
                len(self.events), self._thread_key(t), kind, obj,
                label, detail, gate))

    def __len__(self) -> int:
        return len(self.events)


#: The armed log, or ``None`` when tracing is off.  Hot paths read this
#: module attribute directly (``instrument.ACTIVE is not None``) so the
#: disarmed cost is one global load per hook.
ACTIVE: Optional[EventLog] = None

_SWITCH = ArmingSwitch(globals(), EventLog, trace_env=TRACE_ENV,
                       cap_env=CAP_ENV, default_cap=DEFAULT_LIMIT)
arm = _SWITCH.arm
disarm = _SWITCH.disarm
armed = _SWITCH.armed
active_log = _SWITCH.active
capture = _SWITCH.capture
default_limit = _SWITCH.default_limit
_SWITCH.arm_at_import()


def _rec(kind: str, obj: int, label: str, detail: str = "",
         gate: bool = False) -> None:
    log = ACTIVE
    if log is not None:
        log.record(kind, obj, label, detail, gate)


# ------------------------------------------------------------- primitives
# Every hook below is an inline ``ACTIVE is not None`` test with one
# armed branch: disarmed, a primitive costs its own frame and nothing
# more.  ``_rec`` re-reads ACTIVE, so a disarm racing the test is safe.
class TracedLock:
    """Drop-in ``threading.Lock`` held via ``with`` (LINT004 already
    forbids bare ``.acquire()``; this wrapper simply does not offer it).

    ``gate=True`` documents a lock intended to be held across a
    blocking wait (see module docstring); RACE004 skips it.
    """

    __slots__ = ("_lock", "label", "gate")

    def __init__(self, label: str = "lock", *, gate: bool = False):
        self._lock = threading.Lock()
        self.label = label
        self.gate = gate

    def __enter__(self) -> "TracedLock":
        self._lock.__enter__()
        if ACTIVE is not None:
            _rec("acquire", id(self), self.label, gate=self.gate)
        return self

    def __exit__(self, exc_type, exc, tb):
        # record while still holding: the release event's seq precedes
        # any subsequent acquire of the same lock
        if ACTIVE is not None:
            _rec("release", id(self), self.label)
        return self._lock.__exit__(exc_type, exc, tb)

    def locked(self) -> bool:
        return self._lock.locked()

    def __repr__(self) -> str:  # pragma: no cover
        return f"TracedLock({self.label!r}{', gate' if self.gate else ''})"


class TracedCondition:
    """Drop-in ``threading.Condition`` (own monitor, entered via
    ``with``).  ``wait`` records the monitor hand-off — begin counts as
    a release (and is the RACE004 checkpoint), end as a re-acquire."""

    __slots__ = ("_cond", "label")

    def __init__(self, label: str = "cond"):
        self._cond = threading.Condition()
        self.label = label

    def __enter__(self) -> "TracedCondition":
        self._cond.__enter__()
        if ACTIVE is not None:
            _rec("acquire", id(self), self.label)
        return self

    def __exit__(self, exc_type, exc, tb):
        if ACTIVE is not None:
            _rec("release", id(self), self.label)
        return self._cond.__exit__(exc_type, exc, tb)

    def wait(self, timeout: Optional[float] = None) -> bool:
        if ACTIVE is not None:
            _rec("wait_begin", id(self), self.label)
        ok = self._cond.wait(timeout)
        if ACTIVE is not None:
            _rec("wait_end", id(self), self.label,
                 detail="ok" if ok else "timeout")
        return ok

    def notify(self, n: int = 1) -> None:
        if ACTIVE is not None:
            _rec("notify", id(self), self.label)
        self._cond.notify(n)

    def notify_all(self) -> None:
        if ACTIVE is not None:
            _rec("notify", id(self), self.label)
        self._cond.notify_all()

    def __repr__(self) -> str:  # pragma: no cover
        return f"TracedCondition({self.label!r})"


#: Guards every :class:`TracedEvent`'s flag/Event pair.  Held for a few
#: bytecodes and never across a wait, so one lock serves them all.
_EVENT_LOCK = threading.Lock()


class TracedEvent:
    """Drop-in ``threading.Event``; ``set`` -> successful ``wait`` is a
    happens-before edge (the future-completion hand-off).

    The state is a flag.  The ``threading.Event`` a waiter blocks on is
    built only by a ``wait`` that finds the flag clear — most request
    futures resolve before anyone waits, and then cost no ``Condition``.
    ``set`` and a waiter's check-then-build both run under
    ``_EVENT_LOCK``, so a ``set`` either sees the waiter's Event and
    sets it, or the waiter sees the flag.
    """

    __slots__ = ("_flag", "_event", "label")

    def __init__(self, label: str = "event"):
        self._flag = False
        self._event: Optional[threading.Event] = None
        self.label = label

    def is_set(self) -> bool:
        return self._flag

    def set(self) -> None:
        # record first: a waiter can only observe the flag after the
        # physical set, so its wait_end seq lands after this one
        if ACTIVE is not None:
            _rec("event_set", id(self), self.label)
        with _EVENT_LOCK:
            self._flag = True
            event = self._event
        if event is not None:
            event.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        if ACTIVE is not None:
            _rec("event_wait_begin", id(self), self.label)
        ok = self._flag
        if not ok and (timeout is None or timeout > 0):
            with _EVENT_LOCK:
                ok = self._flag
                event = self._event
                if not ok and event is None:
                    event = self._event = threading.Event()
            if not ok:
                ok = event.wait(timeout)
        if ok and ACTIVE is not None:
            _rec("event_wait_end", id(self), self.label)
        return ok

    def __repr__(self) -> str:  # pragma: no cover
        return f"TracedEvent({self.label!r}, set={self.is_set()})"


class TracedThread(threading.Thread):
    """``threading.Thread`` recording spawn/begin/end/join edges:
    ``start`` (parent) happens-before the child's first step, and the
    child's last step happens-before a successful ``join``."""

    def start(self) -> None:
        if ACTIVE is not None:
            _rec("thread_start", id(self), self.name)
        super().start()

    def run(self) -> None:
        if ACTIVE is not None:
            _rec("thread_begin", id(self), self.name)
        try:
            super().run()
        finally:
            if ACTIVE is not None:
                _rec("thread_end", id(self), self.name)

    def join(self, timeout: Optional[float] = None) -> None:
        super().join(timeout)
        if ACTIVE is not None and not self.is_alive():
            _rec("thread_join", id(self), self.name)


# ----------------------------------------------------- access / edge hooks
def trace_read(owner: object, label: str, detail: str = "") -> None:
    """Record a read of shared state ``(owner, label)``."""
    _rec("read", id(owner), label, detail)


def trace_write(owner: object, label: str, detail: str = "") -> None:
    """Record a write to shared state ``(owner, label)``."""
    _rec("write", id(owner), label, detail)


def channel_send(token: str, label: str = "chan") -> None:
    """Publish a happens-before source under ``token`` (joined by every
    later :func:`channel_recv` of the same token)."""
    _rec("chan_send", 0, label, detail=token)


def channel_recv(token: str, label: str = "chan") -> None:
    """Join the accumulated clock of ``token``'s sends into the calling
    thread (no-op if nothing was sent — the detector just finds no
    edge)."""
    _rec("chan_recv", 0, label, detail=token)
