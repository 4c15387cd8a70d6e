"""repro.obs — unified observability: spans, metrics, traces, forensics.

The runtime counts in several places (serving SLO tallies, allocator
stats, tensor-cache counters, the simulated device timeline); this
package is the layer that reads them as one story:

* :mod:`repro.obs.trace` — the span tracer.  One serving request (or
  one engine iteration) is one tree of timed :class:`Span` s with a
  shared trace id; armed via ``REPRO_TRACE`` / ``capture()`` through
  the one :class:`~repro.check.instrument.ArmingSwitch` scaffold
  ``REPRO_TRACE_SYNC`` also uses (one global load + ``is None`` per
  disarmed hook).  The armed tracer is ``repro.obs.trace.ACTIVE``; a
  re-export here would be a copy that never follows ``arm()``.
* :mod:`repro.obs.export` — the Chrome trace-event exporter: wall-clock
  spans merged with the *simulated* device timeline streams into one
  Perfetto-loadable ``trace.json``, plus the schema validator the
  obs-smoke CI job gates on (span nesting, one root per offered
  request, completed+failed+shed partition the roots).
* :mod:`repro.obs.metrics` — the :class:`MetricsRegistry`, a
  namespace of probes that ``ServerMetrics``, ``FleetMetrics``,
  mempool stats and cache counters register into, with a JSON-lines
  exporter and one renderer the CLI reuses.
* :mod:`repro.obs.recorder` — the flight recorder: a bounded ring of
  recent events dumped automatically on request failure, shed burst,
  ``parallel_run`` timeout, or a stuck worker.
"""

from repro.obs.export import (
    build_chrome_trace,
    export_chrome_trace,
    validate_trace,
    validate_trace_file,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import RECORDER, FlightRecorder
from repro.obs.trace import (
    Span,
    Tracer,
    active_tracer,
    arm,
    armed,
    capture,
    disarm,
)

__all__ = [
    "FlightRecorder",
    "MetricsRegistry",
    "RECORDER",
    "Span",
    "Tracer",
    "active_tracer",
    "arm",
    "armed",
    "build_chrome_trace",
    "capture",
    "disarm",
    "export_chrome_trace",
    "validate_trace",
    "validate_trace_file",
]
