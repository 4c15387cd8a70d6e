"""Dynamic batching: coalesce variable-sized requests into the compiled
batch shape.

The engine froze ONE input shape at compile time (that is what makes
its sessions cheap); live traffic arrives as requests of 1..K samples.
The :class:`DynamicBatcher` bridges the two:

* **padding** — a batch with fewer real rows than the compiled capacity
  is padded with zero rows; the padded rows never reach a caller (each
  request's future receives exactly its own rows back);
* **splitting** — a request larger than the compiled batch spans
  multiple engine steps (its output parts are re-concatenated in
  order);
* **max_wait** — a lone request is dispatched, padded, at most
  ``max_wait`` seconds after it arrived, so light traffic is never
  starved waiting for a full batch;
* **one coalescing rule** — :func:`coalesce` orders each assembly
  round by priority class, then deadline (none sorts last within its
  class), then arrival, and packs it by exact fill, splitting requests
  across batch boundaries so every batch but the round's last is full.
  Uniform traffic (every request ``normal``, none dated) rides in
  arrival order; ``critical`` requests claim a round's first batches.

Assembly is atomic per request: every slice of a split request enters
the ready queue in the same assembly round.  The weight-swap barrier of
:class:`~repro.serve.server.InferenceServer` relies on exactly this —
"pause assembly, drain ready + outstanding" implies no request ever
straddles a weights install.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
from time import monotonic
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.check import instrument as _ins
from repro.check.instrument import channel_recv, channel_send
from repro.obs import trace as obs_trace
from repro.serve.queue import InferenceRequest, RequestQueue


class BatchSlice:
    """Rows ``[start:stop)`` of one request, placed at ``row_offset`` of
    an assembled batch; ``part_index`` orders the request's parts."""

    __slots__ = ("request", "start", "stop", "row_offset", "part_index")

    def __init__(self, request: InferenceRequest, start: int, stop: int,
                 row_offset: int, part_index: int):
        self.request = request
        self.start = start
        self.stop = stop
        self.row_offset = row_offset
        self.part_index = part_index

    @property
    def rows(self) -> int:
        return self.stop - self.start

    def __repr__(self) -> str:  # pragma: no cover
        return (f"BatchSlice(req={self.request.request_id}, "
                f"[{self.start}:{self.stop}) @ {self.row_offset})")


class AssembledBatch:
    """One engine step's worth of coalesced request rows."""

    def __init__(self, batch_id: int, capacity: int,
                 slices: List[BatchSlice], created_time: float):
        self.batch_id = batch_id
        self.capacity = capacity
        self.slices = slices
        self.created_time = created_time
        self.fill = sum(s.rows for s in slices)
        if self.fill < 1:
            raise ValueError("an assembled batch needs >= 1 real rows")
        if self.fill > capacity:
            raise ValueError(
                f"plan put {self.fill} rows into capacity {capacity}")

    @property
    def padding(self) -> int:
        return self.capacity - self.fill

    @property
    def fill_ratio(self) -> float:
        return self.fill / self.capacity

    def build_feed(self, input_shape: Tuple[int, ...]
                   ) -> Optional[np.ndarray]:
        """The padded input array (compiled shape), or ``None`` when the
        riding requests carry no payloads (simulated-mode traffic)."""
        if any(s.request.data is None for s in self.slices):
            return None
        feed = np.zeros(input_shape, dtype=np.float32)
        for s in self.slices:
            feed[s.row_offset:s.row_offset + s.rows] = \
                s.request.data[s.start:s.stop]
        return feed

    def __repr__(self) -> str:  # pragma: no cover
        ids = [s.request.request_id for s in self.slices]
        return (f"AssembledBatch(id={self.batch_id}, fill={self.fill}/"
                f"{self.capacity}, requests={ids})")


# ------------------------------------------------------------------ rule
#: the name of the one coalescing rule, and the only value the
#: ``policy=`` parameters accept
COALESCE_RULE = "greedy-fill"

#: each request's order key, built once at admission
_URGENCY = attrgetter("urgency")


def coalesce(pending: List[InferenceRequest], capacity: int
             ) -> List[List[BatchSlice]]:
    """Plan one assembly round: the per-batch slice lists.

    The round is ordered by each request's ``urgency`` (priority class,
    then deadline, none last within its class, then arrival), then
    packed by exact fill: requests split freely across batch
    boundaries, so every batch but the round's last is full (a split
    costs an output re-concatenation, never a recompute)."""
    batches: List[List[BatchSlice]] = []
    current: List[BatchSlice] = []
    used = 0
    for req in sorted(pending, key=_URGENCY):
        start = part = 0
        while start < req.size:
            take = min(req.size - start, capacity - used)
            current.append(
                BatchSlice(req, start, start + take, used, part))
            part += 1
            start += take
            used += take
            if used == capacity:
                batches.append(current)
                current, used = [], 0
    if current:
        batches.append(current)
    return batches


# ---------------------------------------------------------------- batcher
class DynamicBatcher:
    """Coalesces the request queue into ready-to-run batches.

    Workers call :meth:`next_batch`; whichever worker arrives while the
    ready queue is empty runs one *assembly round* — snapshot the
    backlog (waiting out ``max_wait`` from the oldest request if the
    backlog cannot yet fill one batch), plan it with :func:`coalesce`,
    and publish every resulting batch atomically.

    The hand-off keeps the queue monitor off the per-batch path (four
    workers entering it twice per batch convoy behind each other: a
    lock hands ownership to a sleeper that must then win the GIL).
    Three invariants carry the barriers across that:

    * **atomic publish per round** — a round runs under the monitor
      and its batches enter ``_ready`` in one ``extend``; workers take
      them with ``popleft()`` *outside* the monitor and enter it only
      when the deque is empty, to assemble or to wait;
    * **exact outstanding** — a finished batch comes back as a token
      on ``_done`` (``deque.append`` is atomic, so no update is ever
      lost); whoever next holds the monitor consumes the tokens into
      ``_outstanding``, which only the monitor touches;
    * **register, then recheck** — a barrier counts itself into
      ``_waiters`` under the monitor *before* it reads the tokens, and
      :meth:`mark_done` appends its token *before* it reads
      ``_waiters``; so a worker either sees the waiter and notifies
      under the monitor, or its token was there when the waiter looked.

    ``pause``/``resume`` gate *assembly only*: already-published
    batches keep flowing to workers, which is exactly the drain the
    weight-swap barrier needs (started requests complete on the old
    weights; everything still in the request queue waits for the new).

    ``policy`` names the one rule and accepts nothing else (a
    ``ValueError``); it stays only for callers that still pass it.
    """

    def __init__(self, queue: RequestQueue, capacity: int,
                 policy=COALESCE_RULE, max_wait: float = 0.002,
                 clock: Callable[[], float] = monotonic):
        if policy != COALESCE_RULE:
            raise ValueError(f"unknown coalescing policy {policy!r}; the "
                             f"one rule is {COALESCE_RULE!r}")
        if capacity < 1:
            raise ValueError(f"batch capacity must be >= 1, got {capacity}")
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        self.queue = queue
        self.capacity = capacity
        self.max_wait = max_wait
        self.clock = clock
        self._cond = queue.cond         # ONE monitor with the queue
        self._ready: deque = deque()    # published, not yet taken
        self._done: deque = deque()     # one token per finished batch
        self._outstanding = 0           # published, not yet seen done
        self._waiters = 0               # barriers inside _wait_until
        self._done_token = f"batches-done:{id(self)}"
        self._paused = False
        self._shutdown = False
        self._next_batch_id = 0
        self.batches_assembled = 0

    # -- worker side ------------------------------------------------------
    def next_batch(self, timeout: Optional[float] = None
                   ) -> Optional[AssembledBatch]:
        """The next ready batch; blocks up to ``timeout`` (forever when
        None).  Returns ``None`` on timeout or shutdown.  A batch is
        outstanding from its publication on — the worker MUST call
        :meth:`mark_done` when its step (and output scatter) finished.
        """
        if self._shutdown:
            return None
        try:
            batch = self._ready.popleft()
        except IndexError:
            batch = self._assemble_or_wait(timeout)
            if batch is None:
                return None
        if _ins.ACTIVE is not None:
            channel_recv(f"batch:{id(self)}:{batch.batch_id}",
                         "batcher.pop")
        return batch

    def _assemble_or_wait(self, timeout: Optional[float]
                          ) -> Optional[AssembledBatch]:
        """The empty-deque path, under the monitor: run an assembly
        round when the backlog is due, else wait for one."""
        deadline = None if timeout is None else self.clock() + timeout
        with self._cond:
            while True:
                if self._shutdown:
                    return None
                try:    # other workers keep popping outside the monitor
                    return self._ready.popleft()
                except IndexError:
                    pass
                self._settle()          # keeps _done short
                wait = None if deadline is None \
                    else deadline - self.clock()
                if wait is not None and wait <= 0:
                    return None
                if not self._paused and self.queue.pending_count():
                    hold = self._assembly_hold()
                    if hold <= 0:
                        self._assemble_round()
                        continue
                    wait = hold if wait is None else min(wait, hold)
                self._cond.wait(wait)

    def mark_done(self, batch: AssembledBatch) -> None:
        # the edge a barrier joins where it observes idle: everything
        # this worker did for the batch (its reads of the engine's
        # weights above all) happens-before what the barrier does next
        if _ins.ACTIVE is not None:
            channel_send(self._done_token, "batcher.done")
        self._done.append(batch.batch_id)
        if self._waiters:
            with self._cond:
                self._cond.notify_all()

    # -- assembly (caller holds the monitor) ------------------------------
    def _settle(self) -> int:
        """Consume the done tokens; the batches still outstanding."""
        done = self._done
        finished = len(done)
        for _ in range(finished):
            done.popleft()
        self._outstanding -= finished
        return self._outstanding

    def _assembly_hold(self) -> float:
        """Seconds to keep holding before assembling: 0 when the backlog
        fills a batch, the queue is closed, or the oldest request has
        waited ``max_wait`` already."""
        if self.queue.closed \
                or self.queue.pending_rows() >= self.capacity:
            return 0.0
        oldest = self.queue.oldest_enqueue_time()
        return oldest + self.max_wait - self.clock()

    def _assemble_round(self) -> None:
        pending = self.queue.take_pending()
        if not pending:
            return
        now = self.clock()
        plans = coalesce(pending, self.capacity)
        slice_counts: Dict[int, int] = {}
        for plan in plans:
            for s in plan:
                slice_counts[s.request.request_id] = \
                    slice_counts.get(s.request.request_id, 0) + 1
        for req in pending:
            req.begin_dispatch(slice_counts.get(req.request_id, 0))
        batches = []
        for plan in plans:
            batches.append(AssembledBatch(
                self._next_batch_id, self.capacity, plan, now))
            # the batch hand-off edge: the assembling thread's work
            # happens-before the worker that pops this batch
            if _ins.ACTIVE is not None:
                channel_send(f"batch:{id(self)}:{self._next_batch_id}",
                             "batcher.publish")
            self._next_batch_id += 1
        # counted before they can be taken, and visible all at once
        self._outstanding += len(batches)
        self._ready.extend(batches)
        self.batches_assembled += len(plans)
        tracer = obs_trace.ACTIVE
        if tracer is not None:
            # the padding decision, as its own tree: which requests
            # rode this round, how many batches, what was wasted
            rows = sum(r.size for r in pending)
            tracer.emit(
                "batcher.round", cat="serve.batcher",
                start=now, end=self.clock(),
                attrs={"requests": len(pending), "rows": rows,
                       "batches": len(plans),
                       "padding": len(plans) * self.capacity - rows})
        self._cond.notify_all()

    # -- barrier / lifecycle ----------------------------------------------
    def pause(self) -> None:
        """Stop publishing new batches (ready ones keep draining)."""
        with self._cond:
            self._paused = True
            self._cond.notify_all()

    def resume(self) -> None:
        with self._cond:
            self._paused = False
            self._cond.notify_all()

    def _wait_until(self, settled: Callable[[], bool],
                    timeout: Optional[float]) -> bool:
        """Block until ``settled()`` holds under the monitor; False on
        timeout.  Registers as a waiter first, so from here on every
        :meth:`mark_done` notifies."""
        deadline = None if timeout is None else self.clock() + timeout
        with self._cond:
            self._waiters += 1
            try:
                while not settled():
                    wait = None if deadline is None \
                        else deadline - self.clock()
                    if wait is not None and wait <= 0:
                        return False
                    self._cond.wait(wait)
                if _ins.ACTIVE is not None:
                    channel_recv(self._done_token, "batcher.idle")
                return True
            finally:
                self._waiters -= 1

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no batch is ready or outstanding (with assembly
        paused this is the swap barrier: every started request has
        fully completed).  False on timeout."""
        return self._wait_until(lambda: not self._settle(), timeout)

    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """Like :meth:`wait_idle` but also requires an empty request
        queue — the graceful-shutdown barrier.  Assembly must still be
        running (not paused), or a non-empty backlog never drains."""
        return self._wait_until(
            lambda: not (self.queue.pending_count() or self._settle()),
            timeout)

    def shutdown(self) -> None:
        """Wake every blocked worker with ``None``."""
        with self._cond:
            self._shutdown = True
            self._cond.notify_all()

    @property
    def stopping(self) -> bool:
        """True once :meth:`shutdown` ran — tells a ``None`` from
        ``next_batch`` that means shutdown apart from a timeout."""
        return self._shutdown

    def drain_ready(self) -> List[AssembledBatch]:
        """Remove and return batches that will never run (post-shutdown
        cleanup; the server fails their requests loudly)."""
        abandoned = []
        with self._cond:
            while True:
                try:
                    abandoned.append(self._ready.popleft())
                except IndexError:
                    break
            self._outstanding -= len(abandoned)
            self._cond.notify_all()
        return abandoned

    def describe(self) -> str:
        return (f"DynamicBatcher(capacity={self.capacity}, "
                f"max_wait={self.max_wait * 1e3:g}ms)")
