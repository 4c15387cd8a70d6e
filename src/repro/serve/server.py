"""The inference server: one engine, N worker sessions, dynamic batches.

The :class:`InferenceServer` owns a compiled
:class:`~repro.core.engine.Engine` and drives N ``mode="infer"``
sessions the way :meth:`~repro.core.engine.Engine.parallel_run` does —
one thread per session, safe because every piece of mutable tensor
state is session-local (PR 4's ``SessionTensorState``).  Instead of a
fixed iteration count, each worker pulls
:class:`~repro.serve.batcher.AssembledBatch` work from the shared
:class:`~repro.serve.batcher.DynamicBatcher`, feeds the padded batch
through its session, and scatters the output rows back to the riding
requests' futures.

Weight hot-swap (the ROADMAP item) is a *step barrier* built from two
facts: batch assembly is atomic per request (every slice of a split
request is published together), and :meth:`swap_weights` pauses
assembly, drains ready + outstanding batches, and only then calls
:meth:`~repro.core.engine.Engine.install_params`.  Every request
therefore computes entirely on one weights version — in-flight requests
(including the second half of a split one) finish on the old weights,
requests still queued see the new.
"""

from __future__ import annotations

from time import monotonic
from typing import Callable, Dict, Optional

import numpy as np

from repro.check import instrument as _ins
from repro.check.instrument import TracedLock, TracedThread, trace_read
from repro.core.engine import Engine
from repro.obs import trace as obs_trace
from repro.obs.recorder import RECORDER
from repro.serve.batcher import COALESCE_RULE, DynamicBatcher
from repro.serve.metrics import ServerMetrics, render_slo_report
from repro.serve.queue import (
    RequestFuture,
    RequestQueue,
    RequestRejected,
    validate_request,
)


class InferenceServer:
    """Serve variable-sized requests over one compiled engine.

    ``workers`` infer sessions share the engine's compiled plans (one
    planning pass however many workers).  Every assembly round follows
    the batcher's one coalescing rule (priority class, deadline,
    arrival; exact fill), which ``policy`` may only name
    (``"greedy-fill"``); ``max_wait`` bounds how long a lone request
    waits for batch-mates.  ``max_pending_rows`` bounds admission (the
    queue sheds with :class:`RequestRejected` past it).  The roster is
    fixed: ``start()`` stands up all ``workers`` and they live until
    ``stop()``.  Use as a context manager, or ``start()``/``stop()``
    explicitly.
    """

    def __init__(self, engine: Engine, workers: int = 2,
                 policy=COALESCE_RULE, max_wait: float = 0.002,
                 max_pending_rows: Optional[int] = None,
                 clock: Callable[[], float] = monotonic):
        if workers < 1:
            raise ValueError(f"need >= 1 workers, got {workers}")
        self.engine = engine
        self.workers = workers
        self.clock = clock
        self.queue = RequestQueue(sample_shape=engine.input_shape[1:],
                                  clock=clock,
                                  max_pending_rows=max_pending_rows)
        self.batcher = DynamicBatcher(self.queue, engine.batch_size,
                                      policy=policy, max_wait=max_wait,
                                      clock=clock)
        self.metrics = ServerMetrics(clock=clock)
        # the worker roster: written once by start(), before any worker
        # thread starts, and never again — so it needs no lock
        self._sessions: list = []
        self._threads: list = []
        self._started = False
        self._stopped = False
        # serializes swappers; the batcher pause/drain is the barrier.
        # gate=True: holding it across wait_idle IS the design (RACE004
        # exempts documented gates)
        self._swap_lock = TracedLock("server.swap", gate=True)

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "InferenceServer":
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        # compile before spawning so workers are pure run loops (the
        # engine's compile lock would serialize them anyway)
        self.engine.compiled("infer")
        self.metrics.note_start()
        # history capped to 0: a serving worker runs unboundedly
        # many iterations and every result holds traces + the
        # output batch — retaining them would grow without limit
        self._sessions = [self.engine.session(mode="infer").with_history(0)
                          for _ in range(self.workers)]
        self._threads = [
            TracedThread(target=self._worker_loop,
                         args=(session, self.metrics.shard()),
                         name=f"repro-serve-{i}", daemon=True)
            for i, session in enumerate(self._sessions)]
        for thread in self._threads:
            thread.start()
        return self

    def stop(self, drain: bool = True,
             timeout: Optional[float] = None) -> bool:
        """Shut down: close the queue, optionally drain the backlog,
        join the workers, fail whatever could not run.  ``timeout``
        bounds the whole stop (drain + joins); returns True when the
        backlog fully drained (always False for ``drain=False``)."""
        if not self._started or self._stopped:
            return False
        self._stopped = True
        deadline = None if timeout is None else self.clock() + timeout
        self.queue.close()
        drained = self.batcher.wait_drained(timeout) if drain else False
        self.batcher.shutdown()
        for t in self._threads:
            # post-shutdown a worker exits after at most one batch;
            # honor what is left of the caller's budget, with a floor
            # so timeout exhaustion cannot turn joins into no-waits
            grace = 30.0 if deadline is None \
                else max(1.0, deadline - self.clock())
            t.join(timeout=grace)
        stuck = [t.name for t in self._threads if t.is_alive()]
        now = self.clock()
        err = RuntimeError("server stopped before the request ran")
        for batch in self.batcher.drain_ready():
            for s in batch.slices:
                if s.request.fail(err, now):
                    self.metrics.record_failure(s.request)
        with self.queue.cond:
            leftover = self.queue.take_pending()
        for req in leftover:
            if req.fail(err, now):
                self.metrics.record_failure(req)
        if stuck:
            # a worker outlived the join grace: leave its session alive
            # (closing it under a running iteration would turn the
            # orderly 'server stopped' failure into an internal crash);
            # the threads are daemons, so interpreter exit reaps them
            RECORDER.note("worker.stuck", ", ".join(stuck),
                          engine=self.engine.net.name)
            RECORDER.dump("worker-stuck")
            raise RuntimeError(
                f"workers still running after shutdown: {stuck}; "
                "their sessions were left open")
        # the accounting invariant the double-count fix restores: every
        # admitted request resolved exactly one way (sheds never entered
        # `submitted`, so they do not appear on either side)
        completed, failed, _ = self.metrics.counts()
        if completed + failed != self.queue.submitted:
            raise RuntimeError(
                f"request accounting broken: completed={completed} + "
                f"failed={failed} != submitted={self.queue.submitted}")
        for s in self._sessions:
            s.close()
        self.metrics.note_stop()
        return drained

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    # -------------------------------------------------------------- serving
    def submit(self, data: Optional[np.ndarray] = None,
               size: Optional[int] = None,
               priority: str = "normal",
               deadline: Optional[float] = None) -> RequestFuture:
        """Enqueue one request; returns its future.

        Concrete engines require payload ``data`` of shape
        ``(n, *sample_shape)`` — the rows the future's result maps back
        to, bit-identical to running them alone.  Simulated engines
        take a bare ``size`` (descriptor-only traffic: the full
        batching/latency path with no payloads, so the future resolves
        to ``None``).  On a bounded queue an over-cap submit records a
        shed and re-raises :class:`RequestRejected`.
        """
        data, rows, deadline = validate_request(
            data, size, priority, deadline, self.queue.sample_shape,
            self.engine.config.concrete)
        tracer = obs_trace.ACTIVE
        span = None if tracer is None else tracer.root(
            "request", attrs={"size": rows, "priority": priority,
                              "engine": self.engine.net.name})
        try:
            req = self.queue.admit(data, rows, priority, deadline, span)
        except RequestRejected:
            self.metrics.record_shed(rows, priority)
            if span is not None:
                span.finish(status="shed")
            RECORDER.note_shed(rows, priority,
                               f"server:{self.engine.net.name}")
            raise
        return req.future

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every submitted request has completed."""
        return self.batcher.wait_drained(timeout)

    def session_timelines(self) -> Dict[str, "object"]:
        """Each worker session's device :class:`Timeline` (for the
        Chrome trace exporter's simulated-stream lanes)."""
        return {f"{self.engine.net.name}.worker{i}": s.executor.timeline
                for i, s in enumerate(self._sessions)}

    def register_metrics(self, registry, prefix: str) -> None:
        """Register this server's surfaces on a
        :class:`~repro.obs.metrics.MetricsRegistry`: the SLO report as
        a rendered probe (the shared renderer, so CLI output and
        registry render never drift) plus each worker session's
        executor probes."""
        registry.probe(f"{prefix}.slo", self.metrics.to_dict,
                       renderer=render_slo_report)

        def _pending():
            with self.queue.cond:   # consistent (requests, rows) pair
                return {"requests": self.queue.pending_count(),
                        "rows": self.queue.pending_rows()}
        registry.probe(f"{prefix}.queue.pending", _pending)
        for i, s in enumerate(self._sessions):
            s.executor.register_metrics(registry,
                                        f"{prefix}.worker{i}")

    def swap_weights(self, params: Dict[str, np.ndarray],
                     timeout: Optional[float] = None) -> int:
        """Install updated weights at a step barrier.

        Pauses batch assembly, waits for every published batch to
        finish (so each started request — including both halves of a
        split one — completed on the old weights), installs, resumes.
        Requests still in the queue during the barrier run on the new
        weights.  Returns the number of parameter tensors installed.
        """
        tracer = obs_trace.ACTIVE
        barrier = None if tracer is None else tracer.root(
            "swap.barrier", cat="serve.swap",
            attrs={"engine": self.engine.net.name})
        with self._swap_lock:
            self.batcher.pause()
            try:
                drain = None if barrier is None \
                    else barrier.child("swap.drain")
                idle = self.batcher.wait_idle(timeout)
                if drain is not None:
                    drain.finish(status="ok" if idle else "error")
                if not idle:
                    raise TimeoutError(
                        f"in-flight batches still running after "
                        f"{timeout}s; weights NOT swapped")
                installed = self.engine.install_params(params)
                self.metrics.note_swap(self.engine.weights_version)
                if barrier is not None:
                    barrier.finish(
                        version=self.engine.weights_version)
            except BaseException as exc:
                if barrier is not None:
                    barrier.finish(status="error",
                                   error=type(exc).__name__)
                raise
            finally:
                self.batcher.resume()
        return installed

    def describe(self) -> str:
        bound = "" if self.queue.max_pending_rows is None \
            else f", max_pending_rows={self.queue.max_pending_rows}"
        return (f"InferenceServer({self.engine.net.name}, "
                f"{self.workers} workers, {self.batcher.describe()}{bound}, "
                f"weights v{self.engine.weights_version})")

    # -------------------------------------------------------------- workers
    def _worker_loop(self, session, shard) -> None:
        concrete = self.engine.config.concrete
        input_shape = self.engine.input_shape
        iteration = 0
        while True:
            batch = self.batcher.next_batch()
            if batch is None:   # no timeout given, so: shutdown
                return
            now = self.clock()
            for s in batch.slices:
                s.request.mark_dispatched(now)
            # read under the barrier's protection: a swap waits for this
            # batch's mark_done before installing, so the version cannot
            # change between here and the compute below
            if _ins.ACTIVE is not None:
                trace_read(self.engine, "engine.weights_version")
                trace_read(self.engine, "engine.params")
            version = self.engine.weights_version
            completed, failed = [], []
            stepped, dt = None, 0.0
            try:
                feed = batch.build_feed(input_shape) if concrete else None
                t0 = self.clock()
                res = session.run_iteration(
                    iteration, feed=feed,
                    capture_output=feed is not None)
                dt = self.clock() - t0
                out = res.output
                now = self.clock()
                for s in batch.slices:
                    rows = None if out is None else \
                        np.array(out[s.row_offset:s.row_offset + s.rows])
                    if s.request.deliver(s.part_index, rows, version, now):
                        completed.append(s.request)
                    if s.request.span is not None:
                        # one compute span per slice, in the request's
                        # own tree (split requests show every ride)
                        s.request.span.tracer.emit(
                            "compute.slice", start=t0, end=now,
                            parent=s.request.span,
                            attrs={"rows": s.rows,
                                   "part": s.part_index,
                                   "batch": batch.batch_id,
                                   "fill": batch.fill,
                                   "padding": batch.padding,
                                   "version": version})
                stepped = batch
            except BaseException as exc:
                # what the step already delivered stays completed; the
                # rest fails, each request exactly once
                now = self.clock()
                for s in batch.slices:
                    if s.request.fail(exc, now):
                        failed.append(s.request)
                RECORDER.note("worker.exception",
                              f"{type(exc).__name__}: {exc}",
                              engine=self.engine.net.name,
                              batch=batch.batch_id,
                              requests=[r.request_id for r in failed])
                RECORDER.dump("worker-exception")
            finally:
                # one shard write per batch, then the batch is done: a
                # barrier that sees it done sees its requests counted
                try:
                    shard.record_step(stepped, dt, completed, failed)
                finally:
                    self.batcher.mark_done(batch)
            iteration += 1
