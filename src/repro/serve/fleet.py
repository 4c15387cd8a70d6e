"""The serving fleet: N engines behind one SLO-aware front door.

A :class:`ServingFleet` stands up one
:class:`~repro.serve.server.InferenceServer` lane per compiled engine
(different zoo nets and/or batch shapes), a
:class:`~repro.serve.router.Router` that orders lanes per request by
predicted padding waste + queue depth, and one
:class:`~repro.serve.metrics.FleetMetrics` rollup.  The submit path
validates once, then walks the router's ordering and asks each lane's
queue to ``admit``; a bounded queue may refuse (backpressure), in
which case the request spills to the next-best lane and the refused
probe records nothing.  Only when *every* lane refused does the fleet
shed — recorded, then raised as
:class:`~repro.serve.queue.RequestRejected` so the caller learns
synchronously.

The two backpressure invariants (DESIGN.md "Serving"):

1. admission is bounded — no queue ever holds more than its
   ``max_pending_rows``, so backlog memory is O(fleet config), not
   O(offered load);
2. shed is explicit and synchronous — an over-capacity submit raises
   ``RequestRejected`` from ``submit`` itself, and the accounting
   identity ``completed + failed + shed == offered`` holds exactly.
"""

from __future__ import annotations

from time import monotonic
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.engine import Engine
from repro.obs import trace as obs_trace
from repro.obs.recorder import RECORDER
from repro.serve.batcher import COALESCE_RULE
from repro.serve.metrics import FleetMetrics, render_slo_report
from repro.serve.queue import (
    RequestFuture,
    RequestRejected,
    validate_request,
)
from repro.serve.router import Router
from repro.serve.server import InferenceServer


def _lane_names(engines: Sequence[Engine]) -> List[str]:
    """``net@bN``, with ``#k`` appended to repeats of one shape."""
    out: List[str] = []
    for eng in engines:
        base = f"{eng.net.name}@b{eng.batch_size}"
        name, n = base, 2
        while name in out:
            name, n = f"{base}#{n}", n + 1
        out.append(name)
    return out


class ServingFleet:
    """N engine lanes, one router, one front-door ``submit``.

    ``workers``/``max_pending_rows`` configure every lane identically
    (the shapes differ; the backpressure contract should not).
    ``max_wait`` is the anti-starvation bound for the
    *largest* lane; smaller lanes wait proportionally less
    (``max_wait * capacity / max_capacity``) — the same
    fill-vs-latency tuning policy applied per shape, so a small-batch
    lane never holds a lone request longer than filling its whole
    batch could justify.
    """

    def __init__(self, engines: Sequence[Engine],
                 workers: int = 1,
                 max_pending_rows: Optional[int] = None,
                 policy=COALESCE_RULE,
                 max_wait: float = 0.002,
                 clock: Callable[[], float] = monotonic):
        if not engines:
            raise ValueError("a fleet needs at least one engine")
        concrete = {e.config.concrete for e in engines}
        if len(concrete) != 1:
            raise ValueError(
                "all fleet engines must agree on concrete vs simulated "
                "mode (payloads either exist everywhere or nowhere)")
        self.concrete = concrete.pop()
        self.clock = clock
        max_capacity = max(e.batch_size for e in engines)
        self.servers: Dict[str, InferenceServer] = {}
        for name, eng in zip(_lane_names(engines), engines):
            self.servers[name] = InferenceServer(
                eng, workers=workers, policy=policy,
                max_wait=max_wait * eng.batch_size / max_capacity,
                max_pending_rows=max_pending_rows, clock=clock)
        self.router = Router(self.servers)
        self.metrics = FleetMetrics(
            {name: s.metrics for name, s in self.servers.items()})
        self._started = False
        self._stopped = False

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "ServingFleet":
        if self._started:
            raise RuntimeError("fleet already started")
        self._started = True
        for server in self.servers.values():
            server.start()
        return self

    def stop(self, drain: bool = True,
             timeout: Optional[float] = None) -> bool:
        """Stop every lane; True when all backlogs fully drained."""
        if not self._started or self._stopped:
            return False
        self._stopped = True
        deadline = None if timeout is None else self.clock() + timeout
        drained = True
        for server in self.servers.values():
            left = None if deadline is None \
                else max(0.0, deadline - self.clock())
            drained = server.stop(drain=drain, timeout=left) and drained
        return drained

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every lane's backlog has completed."""
        deadline = None if timeout is None else self.clock() + timeout
        ok = True
        for server in self.servers.values():
            left = None if deadline is None \
                else max(0.0, deadline - self.clock())
            ok = server.drain(left) and ok
        return ok

    def __enter__(self) -> "ServingFleet":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    # -------------------------------------------------------------- serving
    def submit(self, data: Optional[np.ndarray] = None,
               size: Optional[int] = None,
               priority: str = "normal",
               deadline: Optional[float] = None) -> RequestFuture:
        """Route one request to the best willing lane.

        Tries lanes in the router's best-first order; a lane's bounded
        queue may refuse, spilling the request to the next.  When every
        lane refused, records a fleet shed and raises
        :class:`RequestRejected` — the explicit backpressure signal.
        """
        data, size, deadline = validate_request(
            data, size, priority, deadline, concrete=self.concrete)
        sample_shape = None if data is None else data.shape[1:]
        tracer = obs_trace.ACTIVE
        start = None if tracer is None else tracer.clock()
        # raises when no lane serves the shape — like every other bad
        # call, before the root opens
        order = self.router.route(size, sample_shape)
        span = None
        if tracer is not None:
            # the fleet is the front door: one root span per offered
            # request, whatever lane (if any) admits it — the root
            # count is exactly the offered count, so completed +
            # failed + shed partition the roots.  The route child
            # covers only the router's ordering pass; it closes before
            # any lane can admit (so it can never outlive its root).
            span = tracer.root("request", start=start, attrs={
                "size": size, "priority": priority})
            tracer.emit("route", start=start, end=tracer.clock(),
                        parent=span, attrs={
                            "lanes": len(order),
                            "order": [name for name, _ in order]})
        for probe, (name, server) in enumerate(order):
            try:
                req = server.queue.admit(data, size, priority, deadline,
                                         span)
            except RequestRejected:
                continue        # a refused probe records nothing
            self.metrics.record_routed(name)
            if span is not None:
                # benign post-hoc annotation (never a timing edge)
                span.attrs["lane"] = name
                span.attrs["probe"] = probe
            return req.future
        self.metrics.record_shed(size, priority)
        if span is not None:
            span.finish(status="shed", probes=len(order))
        RECORDER.note_shed(size, priority, "fleet")
        raise RequestRejected(
            f"all {len(self.servers)} lanes rejected a {size}-row "
            f"{priority} request (fleet saturated)")

    def session_timelines(self) -> Dict[str, "object"]:
        """Every lane's worker-session device timelines, lane-prefixed
        (the Chrome trace exporter's simulated-stream lanes)."""
        out: Dict[str, "object"] = {}
        for name, server in self.servers.items():
            for label, tl in server.session_timelines().items():
                out[f"{name}/{label}"] = tl
        return out

    def register_metrics(self, registry, prefix: str = "fleet") -> None:
        """Register the fleet rollup plus every lane on a
        :class:`~repro.obs.metrics.MetricsRegistry` — one shared SLO
        renderer for the rollup, per-lane server/executor probes under
        ``<prefix>.lane.<name>``."""
        registry.probe(f"{prefix}.slo", self.metrics.to_dict,
                       renderer=render_slo_report)
        for name, server in self.servers.items():
            server.register_metrics(registry, f"{prefix}.lane.{name}")

    def describe(self) -> str:
        lanes = ", ".join(
            f"{name}: {server.describe()}"
            for name, server in self.servers.items())
        return (f"ServingFleet({len(self.servers)} lanes, "
                f"{self.router.describe()}; {lanes})")
