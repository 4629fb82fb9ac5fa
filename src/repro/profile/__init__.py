"""Critical-path profiler: per-PE spans, blame attribution, reports.

The "why is it slow" layer on top of the telemetry's "how slow is it":
:mod:`~repro.profile.spans` records per-PE / per-message spans inside
the executor (``profile=True``), :mod:`~repro.profile.critical_path`
turns one superstep's spans into a critical path and a wall-time
attribution over {compute, imbalance, latency, bandwidth, verify,
recovery, overhead}, and :mod:`~repro.profile.report` aggregates a run
into the blame table, folded stacks and the ``--regress`` gate behind
``repro-trace --profile``.  The spans travel in the trace log (schema
2), so a saved ``repro-trace --json`` log is the profiler's one file
format.
"""

from repro.profile.critical_path import (
    BUCKETS,
    CONCURRENT_BACKENDS,
    SuperstepProfile,
    WireFit,
    analyze_log,
    analyze_superstep,
    fit_wire,
)
from repro.profile.report import (
    DEFAULT_REGRESS_THRESHOLD,
    ProfileReport,
    build_report,
    compare_reports,
    render_folded,
    render_report,
)
from repro.profile.spans import (
    HOST,
    HOST_KINDS,
    PE_KINDS,
    PeSpan,
    SpanRecorder,
    SuperstepSpans,
)

__all__ = [
    "BUCKETS",
    "CONCURRENT_BACKENDS",
    "DEFAULT_REGRESS_THRESHOLD",
    "HOST",
    "HOST_KINDS",
    "PE_KINDS",
    "PeSpan",
    "ProfileReport",
    "SpanRecorder",
    "SuperstepProfile",
    "SuperstepSpans",
    "WireFit",
    "analyze_log",
    "analyze_superstep",
    "build_report",
    "compare_reports",
    "fit_wire",
    "render_folded",
    "render_report",
]
