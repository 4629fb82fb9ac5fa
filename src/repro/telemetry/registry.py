"""Process-wide metrics registry: counters, gauges, histograms, spans.

The registry is the observability core of the reproduction.  Every
pipeline stage (mesh generation, partitioning, assembly, the superstep
engine, the exchange, the fault machinery, the BSP
simulator) calls the cheap module-level helpers in this module; when no
registry is installed those helpers return immediately, so the
instrumented paths stay bit-identical to the uninstrumented ones and
cost one global load plus one ``is None`` test.

Determinism contract
--------------------

The registry itself never reads a clock.  It does not import ``time``;
wall-clock access happens only when a caller *explicitly* attaches a
clock callable (normally :func:`repro.util.clock.now`) via
:meth:`MetricsRegistry.attach_clock` or the ``clock=`` constructor
argument.  Without an attached clock, span context managers are no-ops
and every recorded value is a pure function of the workload — two runs
with the same seed produce byte-identical snapshots.

One registry is installed process-wide: a module-level instance
reached through :func:`get_registry` / :func:`set_registry`, with
:func:`use_registry` for scoped installation.
"""

from __future__ import annotations

import bisect
import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

#: A monotonic-seconds callable, e.g. ``repro.util.clock.now``.
Clock = Callable[[], float]

#: Canonical (sorted) form of a label set, usable as a dict key.
LabelKey = Tuple[Tuple[str, str], ...]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Default histogram buckets for second-scale durations (upper bounds;
#: an implicit +Inf bucket catches the overflow).
DEFAULT_SECONDS_BUCKETS: Tuple[float, ...] = (
    1e-6,
    1e-5,
    1e-4,
    1e-3,
    1e-2,
    1e-1,
    1.0,
    10.0,
)


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


class Counter:
    """A monotonically increasing sum, optionally split by labels."""

    kind = "counter"

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = _check_name(name)
        self.help_text = help_text
        self._series: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1, **labels: object) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name} cannot decrease (amount={amount})"
            )
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels: object) -> float:
        return self._series.get(_label_key(labels), 0)

    @property
    def total(self) -> float:
        return sum(self._series.values())

    def series(self) -> List[Tuple[LabelKey, float]]:
        return sorted(self._series.items())


class Gauge:
    """A point-in-time value, optionally split by labels."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = _check_name(name)
        self.help_text = help_text
        self._series: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        self._series[_label_key(labels)] = float(value)

    def value(self, **labels: object) -> float:
        return self._series.get(_label_key(labels), 0.0)

    def series(self) -> List[Tuple[LabelKey, float]]:
        return sorted(self._series.items())


class Histogram:
    """Fixed-bucket histogram (cumulative-bucket Prometheus style).

    ``buckets`` are ascending finite upper bounds; observations above
    the last bound land in the implicit +Inf bucket.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
        help_text: str = "",
    ) -> None:
        self.name = _check_name(name)
        self.help_text = help_text
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"histogram {name} buckets must be ascending and unique: "
                f"{buckets!r}"
            )
        self.buckets = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative_counts(self) -> List[int]:
        """Per-bound cumulative counts, +Inf last (Prometheus ``le``)."""
        out: List[int] = []
        running = 0
        for c in self.counts:
            running += c
            out.append(running)
        return out


@dataclass(frozen=True)
class Span:
    """A named interval on a track, in attached-clock seconds."""

    name: str
    t_start: float
    t_end: float
    track: str = "stages"

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


class MetricsRegistry:
    """Container for named metrics plus an optional attached clock."""

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self._metrics: Dict[str, object] = {}
        self._clock = clock
        self.spans: List[Span] = []

    # -- clock ---------------------------------------------------------

    @property
    def clock(self) -> Optional[Clock]:
        return self._clock

    def attach_clock(self, clock: Clock) -> None:
        """Explicitly opt this registry into wall-clock span timing."""
        self._clock = clock

    # -- metric accessors (get-or-create) ------------------------------

    def _get(self, name: str, kind: str, factory: Callable[[], object]):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif metric.kind != kind:  # type: ignore[attr-defined]
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{metric.kind}, not {kind}"  # type: ignore[attr-defined]
            )
        return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get(
            name, "counter", lambda: Counter(name, help_text)
        )

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get(name, "gauge", lambda: Gauge(name, help_text))

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
        help_text: str = "",
    ) -> Histogram:
        return self._get(
            name, "histogram", lambda: Histogram(name, buckets, help_text)
        )

    def metrics(self) -> List[object]:
        """All registered metrics, sorted by name."""
        return [self._metrics[k] for k in sorted(self._metrics)]

    # -- spans ---------------------------------------------------------

    def add_span(
        self, name: str, t_start: float, t_end: float, track: str = "stages"
    ) -> None:
        """Record a pre-measured interval (no clock read happens here)."""
        self.spans.append(Span(name, float(t_start), float(t_end), track))

    @contextmanager
    def span(self, name: str, track: str = "stages") -> Iterator[None]:
        """Time a block with the attached clock; no-op without one."""
        clock = self._clock
        if clock is None:
            yield
            return
        t0 = clock()
        try:
            yield
        finally:
            self.add_span(name, t0, clock(), track)

    # -- snapshot ------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A deterministic, JSON-ready dump of everything recorded."""
        counters: Dict[str, object] = {}
        gauges: Dict[str, object] = {}
        histograms: Dict[str, object] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                counters[name] = {
                    "help": metric.help_text,
                    "series": [
                        {"labels": dict(key), "value": value}
                        for key, value in metric.series()
                    ],
                    "total": metric.total,
                }
            elif isinstance(metric, Gauge):
                gauges[name] = {
                    "help": metric.help_text,
                    "series": [
                        {"labels": dict(key), "value": value}
                        for key, value in metric.series()
                    ],
                }
            elif isinstance(metric, Histogram):
                histograms[name] = {
                    "help": metric.help_text,
                    "buckets": list(metric.buckets),
                    "counts": list(metric.counts),
                    "sum": metric.sum,
                    "count": metric.count,
                }
        return {
            "version": 1,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "spans": [
                {
                    "name": s.name,
                    "track": s.track,
                    "t_start": s.t_start,
                    "t_end": s.t_end,
                }
                for s in self.spans
            ],
        }


# ---------------------------------------------------------------------------
# Module-level installation.
# ---------------------------------------------------------------------------

_REGISTRY: Optional[MetricsRegistry] = None


def get_registry() -> Optional[MetricsRegistry]:
    """The installed registry, or ``None`` (instrumentation disabled)."""
    return _REGISTRY


def set_registry(
    registry: Optional[MetricsRegistry],
) -> Optional[MetricsRegistry]:
    """Install (or clear, with ``None``) the process registry.

    Returns the previously installed registry so callers can restore it.
    """
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Install ``registry`` for the duration of a ``with`` block."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


# -- hot-path helpers: one global load + None test when disabled ----------


def count(name: str, amount: float = 1, **labels: object) -> None:
    """Increment a counter on the installed registry, if any."""
    reg = _REGISTRY
    if reg is not None:
        reg.counter(name).inc(amount, **labels)


def set_gauge(name: str, value: float, **labels: object) -> None:
    """Set a gauge on the installed registry, if any."""
    reg = _REGISTRY
    if reg is not None:
        reg.gauge(name).set(value, **labels)


def observe(
    name: str,
    value: float,
    buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
) -> None:
    """Observe into a histogram on the installed registry, if any."""
    reg = _REGISTRY
    if reg is not None:
        reg.histogram(name, buckets).observe(value)


@contextmanager
def stage_span(name: str, track: str = "stages") -> Iterator[None]:
    """Time a block iff a registry with an attached clock is installed."""
    reg = _REGISTRY
    if reg is None or reg.clock is None:
        yield
        return
    with reg.span(name, track):
        yield


def record_executor_setup(kernel: str, backend: str, schedule: object) -> None:
    """Count one executor construction and publish its schedule gauges.

    Duck-typed on ``CommSchedule``'s ``num_parts`` / ``c_max`` /
    ``b_max`` — the telemetry layer never imports :mod:`repro.smvp`.
    """
    reg = _REGISTRY
    if reg is None:
        return
    reg.counter("repro_smvp_setups_total", "executor constructions").inc(
        kernel=kernel, backend=backend
    )
    reg.gauge("repro_smvp_num_pes", "PE count").set(schedule.num_parts)
    reg.gauge("repro_smvp_c_max_words", "schedule C_max").set(schedule.c_max)
    reg.gauge("repro_smvp_b_max_blocks", "schedule B_max").set(schedule.b_max)


def record_fault_stats(stats: object, component: str) -> None:
    """Fold a ``FaultStats``-shaped dataclass into fault counters.

    Duck-typed on ``__dataclass_fields__`` so the telemetry layer does
    not import :mod:`repro.faults` (which would invert the dependency
    direction).  Each integer field becomes one labelled series of
    ``repro_fault_events_total``.
    """
    reg = _REGISTRY
    if reg is None or stats is None:
        return
    fields = getattr(stats, "__dataclass_fields__", None)
    if fields is None:
        return
    events = reg.counter(
        "repro_fault_events_total",
        "fault injections/detections/recoveries by kind",
    )
    for field_name in sorted(fields):
        value = getattr(stats, field_name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if value:
            events.inc(value, kind=field_name, component=component)


def record_sdc_event(event: object) -> None:
    """Fold one silent-data-corruption event into the SDC counters.

    Duck-typed like :func:`record_fault_stats` — the telemetry layer
    never imports :mod:`repro.smvp.abft`.  Expects the attribute shape
    of ``abft.SdcEvent``: ``action`` (injected / detected / recomputed
    / escalated), ``phase`` (compute / exchange), ``kind`` (flip-y /
    sticky), ``pe``, and ``physical_pe``.
    """
    reg = _REGISTRY
    if reg is None or event is None:
        return
    reg.counter(
        "repro_sdc_events_total",
        "silent-data-corruption injections/detections/recoveries",
    ).inc(
        action=getattr(event, "action", "unknown"),
        phase=getattr(event, "phase", "unknown"),
        kind=getattr(event, "kind", "unknown"),
        pe=getattr(event, "physical_pe", -1),
    )


def record_eviction(event: object) -> None:
    """Fold one PE-eviction event into the resilience counters.

    Duck-typed like :func:`record_fault_stats` — the telemetry layer
    never imports :mod:`repro.resilience`.  Expects the attribute shape
    of ``resilience.EvictionEvent``: ``dead_pe``, ``superstep``,
    ``migrated_words``, ``migrated_blocks``, ``repartition_flops``,
    ``recovery_source``.
    """
    reg = _REGISTRY
    if reg is None or event is None:
        return
    labels = {
        "dead_pe": getattr(event, "dead_pe", -1),
        "source": getattr(event, "recovery_source", "unknown"),
    }
    reg.counter(
        "repro_pe_evictions_total", "permanent PE failures evicted online"
    ).inc(**labels)
    reg.counter(
        "repro_eviction_migrated_words_total",
        "state words migrated to survivors during evictions",
    ).inc(getattr(event, "migrated_words", 0), **labels)
    reg.counter(
        "repro_eviction_migrated_blocks_total",
        "state-migration messages during evictions",
    ).inc(getattr(event, "migrated_blocks", 0), **labels)
    reg.counter(
        "repro_eviction_repartition_flops_total",
        "redistribution work performed during evictions",
    ).inc(getattr(event, "repartition_flops", 0), **labels)
    reg.gauge(
        "repro_eviction_last_superstep", "superstep of the latest eviction"
    ).set(getattr(event, "superstep", -1))
