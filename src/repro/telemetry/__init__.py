"""Process-wide observability: metrics, timelines, drift monitoring.

Four pieces:

* :mod:`repro.telemetry.registry` — the :class:`MetricsRegistry` of
  counters/gauges/histograms/spans, installed process-wide via
  :func:`set_registry` / :func:`use_registry`; all pipeline hooks
  no-op (one global load + ``is None`` test) when nothing is
  installed, and nothing ever reads a clock unless one is explicitly
  attached.
* :mod:`repro.telemetry.export` — Prometheus-style text exposition and
  JSON snapshots.
* :mod:`repro.telemetry.timeline` — Chrome-trace/Perfetto JSON from a
  :class:`~repro.smvp.trace.TraceLog` plus stage spans.
* :mod:`repro.telemetry.drift` — measured-vs-modeled comparison
  against Equations (1)/(2) and the β bound, with thresholded
  pass/fail for CI.

Everything is surfaced as views of one traced run by ``repro-trace``
(``--metrics-out`` / ``--timeline-out`` / ``--drift``), the one command
that runs the time loop.
"""

from repro.telemetry.drift import (
    DriftError,
    DriftMonitor,
    DriftRecord,
    DriftReport,
    DriftThresholds,
    eq2_t_comm,
    fit_machine,
    modeled_breakdown,
)
from repro.telemetry.export import (
    render_prometheus,
    render_snapshot_json,
    write_metrics,
)
from repro.telemetry.registry import (
    Counter,
    DEFAULT_SECONDS_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    Span,
    count,
    get_registry,
    observe,
    record_eviction,
    record_fault_stats,
    set_gauge,
    set_registry,
    stage_span,
    use_registry,
)
from repro.telemetry.timeline import (
    chrome_trace,
    render_chrome_trace,
    span_events,
    trace_events,
    validate_trace_events,
)

__all__ = [
    "Counter",
    "DEFAULT_SECONDS_BUCKETS",
    "DriftError",
    "DriftMonitor",
    "DriftRecord",
    "DriftReport",
    "DriftThresholds",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "chrome_trace",
    "count",
    "eq2_t_comm",
    "fit_machine",
    "get_registry",
    "modeled_breakdown",
    "observe",
    "record_eviction",
    "record_fault_stats",
    "render_chrome_trace",
    "render_prometheus",
    "render_snapshot_json",
    "set_gauge",
    "set_registry",
    "span_events",
    "stage_span",
    "trace_events",
    "use_registry",
    "validate_trace_events",
    "write_metrics",
]
