"""SLO-aware request routing across a heterogeneous engine fleet.

One compiled batch shape is a single-SKU fleet; mixed traffic wants a
mix of shapes.  The :class:`Router` scores every lane (one
:class:`~repro.serve.server.InferenceServer` per engine) for each
incoming request and orders them best-first:

``score = padding_rows(capacity, size) / capacity
        + depth_weight * pending_rows / capacity``

The first term is the static shape fit — the per-request form of the
cost model's PERF006 serving fill model
(:func:`repro.check.cost_model.request_padding_rows`): a 3-row request
wastes 1 padded row on a compiled batch of 4 but 13 on a batch of 16.
The second term is the live load — a lane's backlog measured in
batches, so a deep queue on the perfectly-shaped engine loses to an
idle engine with slightly worse fit.  ``depth_weight`` trades the two
off (0 routes on shape alone); a fleet uses the default.

The router only *orders* lanes; admission stays with each lane's
queue, so the fleet submit path walks the ordered lanes and spills to
the next on rejection — explicit shed only when every lane refused.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.check.cost_model import request_padding_rows


class Router:
    """Order a fleet's lanes best-first for one request.

    ``lanes`` maps lane name -> server; servers are duck-typed — a lane
    needs ``batcher.capacity``, ``queue`` (with ``cond``/
    ``pending_rows()``/``sample_shape``) and nothing else, which keeps
    the router unit-testable with stubs.
    """

    def __init__(self, lanes: Dict[str, object],
                 depth_weight: float = 1.0):
        if not lanes:
            raise ValueError("a router needs at least one lane")
        if depth_weight < 0:
            raise ValueError(
                f"depth_weight must be >= 0, got {depth_weight}")
        self.lanes = dict(lanes)
        self.depth_weight = depth_weight

    def score(self, server, size: int) -> float:
        """Lower is better: predicted padding waste (in batch-capacity
        units) plus queue depth (in batches)."""
        capacity = server.batcher.capacity
        with server.queue.cond:
            backlog = server.queue.pending_rows()
        waste = request_padding_rows(capacity, size) / capacity
        return waste + self.depth_weight * backlog / capacity

    def route(self, size: int,
              sample_shape: Optional[tuple] = None
              ) -> List[Tuple[str, object]]:
        """Lanes ordered best-first for a ``size``-row request.

        ``sample_shape`` (the payload's per-sample shape) filters lanes
        to engines compiled for it — a fleet can mix nets, and a
        request only runs where its shape fits.  Raises when no lane
        matches (a routing error, distinct from backpressure shed).
        """
        if size < 1:
            raise ValueError(f"request needs >= 1 samples, got {size}")
        candidates = [
            (name, server) for name, server in self.lanes.items()
            if sample_shape is None
            or server.queue.sample_shape == tuple(sample_shape)
        ]
        if not candidates:
            raise ValueError(
                f"no lane serves sample shape {sample_shape}; lanes: "
                f"{sorted(self.lanes)}")
        scored = sorted(
            ((self.score(server, size), name, server)
             for name, server in candidates),
            key=lambda t: (t[0], t[1]))
        return [(name, server) for _, name, server in scored]

    def describe(self) -> str:
        return (f"Router({len(self.lanes)} lanes, "
                f"depth_weight={self.depth_weight:g})")
