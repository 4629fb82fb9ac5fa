"""Critical-path profiler: per-PE spans, blame attribution, reports.

The "why is it slow" layer on top of the telemetry's "how slow is it":
:mod:`~repro.profile.spans` records per-PE / per-message spans inside
the executor (``profile=True``), :mod:`~repro.profile.critical_path`
turns one superstep's spans into a task DAG, a critical path, and a
wall-time attribution over {compute, imbalance, latency, bandwidth,
verify, recovery, overhead}, and :mod:`~repro.profile.report`
aggregates runs into the blame table / folded stacks / JSON snapshots
behind the ``repro-profile`` CLI.
"""

from repro.profile.critical_path import (
    BUCKETS,
    CONCURRENT_BACKENDS,
    SuperstepProfile,
    TaskDag,
    WireFit,
    analyze_log,
    analyze_superstep,
    build_task_dag,
    fit_wire,
)
from repro.profile.report import (
    DEFAULT_REGRESS_THRESHOLD,
    ProfileReport,
    build_report,
    compare_snapshots,
    load_snapshot,
    render_folded,
    render_report,
    render_snapshot,
    snapshot,
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
    "TaskDag",
    "WireFit",
    "analyze_log",
    "analyze_superstep",
    "build_report",
    "build_task_dag",
    "compare_snapshots",
    "fit_wire",
    "load_snapshot",
    "render_folded",
    "render_report",
    "render_snapshot",
    "snapshot",
]
