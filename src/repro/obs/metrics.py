"""The metrics registry: one namespace of probes.

Four surfaces already count things —
:class:`~repro.serve.metrics.ServerMetrics`/``FleetMetrics`` windows,
:class:`~repro.mempool.stats.AllocatorStats`, the tensor-cache
hit/miss/evict counters, and the device :class:`~repro.device.timeline`
busy clocks — each with its own locking and its own export shape.  The
registry does not replace them; it gives them one namespace to
*register into*, one ``collect()`` snapshot, one JSON-lines exporter
and one renderer, so the CLI, the obs-smoke CI job and a monitoring
sidecar all read the same surface.

A **probe** is a name bound to a zero-arg callable over an *existing*
locked stats object (``server.metrics.to_dict``, allocator stats,
cache counters).  The callable runs at ``collect()`` time, so the
owning subsystem keeps its own synchronization and the registry adds
no per-event cost to hot paths.  A probe may carry a ``renderer``
(value -> str) — ``serve.metrics.render_slo_report`` plugs in here,
so the CLI's SLO block and the registry's render never drift.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional

from repro.check.instrument import TracedLock


class Probe:
    """A registered window onto someone else's stats object."""

    __slots__ = ("name", "fn", "renderer")

    def __init__(self, name: str, fn: Callable[[], Any],
                 renderer: Optional[Callable[[Any], str]] = None):
        self.name = name
        self.fn = fn
        self.renderer = renderer

    @property
    def value(self) -> Any:
        return self.fn()


class MetricsRegistry:
    """One namespace of probes; snapshot, export, render.

    ``probe`` replaces on re-register: a restarted server re-binding
    its name must win over the dead instance's callable.
    """

    def __init__(self) -> None:
        self._lock = TracedLock("obs.registry")
        self._probes: Dict[str, Probe] = {}

    def probe(self, name: str, fn: Callable[[], Any],
              renderer: Optional[Callable[[Any], str]] = None) -> Probe:
        probe = Probe(name, fn, renderer)
        with self._lock:
            self._probes[name] = probe
        return probe

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._probes)

    # -- export -----------------------------------------------------------
    def collect(self) -> Dict[str, dict]:
        """``{name: {"type": "probe", "value": ...}}`` snapshot.  Probes
        run *outside* the registry lock (their callables take the
        owning subsystem's locks; holding ours across them would couple
        two unrelated lock domains)."""
        with self._lock:
            items = sorted(self._probes.items())
        return {name: {"type": "probe", "value": probe.value}
                for name, probe in items}

    def export_jsonl(self, path, extra: Optional[dict] = None) -> dict:
        """Append one JSON line ``{"metrics": collect(), **extra}`` to
        ``path`` — a scrape, not a rewrite, so a sampler loop appending
        every N seconds yields a time series."""
        record = dict(extra or {})
        record["metrics"] = self.collect()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        return record

    def render(self) -> str:
        """Human-readable listing; a probe with a renderer delegates to
        it (the shared SLO renderer keeps CLI and registry identical)."""
        with self._lock:
            items = sorted(self._probes.items())
        lines: List[str] = []
        for name, probe in items:
            if probe.renderer is not None:
                body = probe.renderer(probe.value)
                lines.append(f"{name}:")
                lines.extend("  " + ln for ln in body.splitlines())
            else:
                lines.append(f"{name}: {probe.value!r}")
        return "\n".join(lines)
