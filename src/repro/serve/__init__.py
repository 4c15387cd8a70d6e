"""repro.serve — dynamic-batching serving over parallel infer sessions.

The first subsystem *above* the engine layer: the compile-once
:class:`~repro.core.engine.Engine` freezes one batch shape and spawns
cheap infer sessions; this package turns that into a server for
variable-sized request traffic:

* :mod:`repro.serve.queue` — a thread-safe :class:`RequestQueue` of
  inference requests (1..K samples each, with id, priority class,
  optional deadline, enqueue timestamp and a :class:`RequestFuture`
  handle), optionally capping pending rows and shedding with an
  explicit :class:`RequestRejected`;
* :mod:`repro.serve.batcher` — a :class:`DynamicBatcher` that coalesces
  queued requests into the engine's *compiled* batch shape, padding
  short batches and splitting oversized requests across steps, under
  one coalescing rule (:func:`~repro.serve.batcher.coalesce`: priority
  class, then deadline, then arrival; exact fill);
* :mod:`repro.serve.server` — an :class:`InferenceServer` owning one
  engine and N worker sessions (thread-per-session, the
  ``engine.parallel_run`` drive), returning per-request futures, with
  :meth:`InferenceServer.swap_weights` installing updated weights at a
  step barrier (in-flight requests finish on the old weights);
* :mod:`repro.serve.router` / :mod:`repro.serve.fleet` — the
  heterogeneous fleet: N engine lanes (different nets and/or batch
  shapes) behind one :class:`ServingFleet` front door whose
  :class:`Router` orders lanes per request by predicted padding waste
  (the cost model's PERF006 fill model, online) plus queue depth;
* :mod:`repro.serve.metrics` — per-request latency (p50/p95/p99),
  per-priority-class SLOs, batch fill ratio, padding waste, shed rate
  and throughput, exported via ``to_dict`` like
  :class:`~repro.core.runtime.IterationResult`, with
  :class:`FleetMetrics` rolling N engines up into one report.
"""

from repro.serve.batcher import AssembledBatch, BatchSlice, DynamicBatcher
from repro.serve.fleet import ServingFleet
from repro.serve.metrics import FleetMetrics, ServerMetrics
from repro.serve.queue import (
    PRIORITIES,
    InferenceRequest,
    RequestFuture,
    RequestQueue,
    RequestRejected,
)
from repro.serve.router import Router
from repro.serve.server import InferenceServer

__all__ = [
    "AssembledBatch",
    "BatchSlice",
    "DynamicBatcher",
    "FleetMetrics",
    "InferenceRequest",
    "InferenceServer",
    "PRIORITIES",
    "RequestFuture",
    "RequestQueue",
    "RequestRejected",
    "Router",
    "ServerMetrics",
    "ServingFleet",
]
