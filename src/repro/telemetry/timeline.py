"""Chrome-trace / Perfetto timeline export.

Converts a :class:`~repro.smvp.trace.TraceLog` (per-superstep phase
durations and per-PE traffic) plus any registry stage spans into the
Chrome trace-event JSON format, loadable in ``chrome://tracing`` or
https://ui.perfetto.dev.

Layout: one process (``pid`` 0) with

* four *phase* tracks (``tid`` 0-3: scatter / compute / exchange /
  gather) carrying one complete ("X") event per superstep,
* a *verify* track (``tid`` 4) for the ABFT check windows of profiled
  verified supersteps,
* one track per distinct registry span track (``tid`` 50+) for the
  upstream stages (mesh build, partitioning, assembly, ...),
* a *wire* track (``tid`` 90) carrying each profiled message transit
  as its own span with ``words``/``src``/``dst`` args — the messages
  inside the exchange window, one timeline row,
* one track per PE (``tid`` 100 + pe): for unprofiled traces the PE's
  exchange window with its words/blocks as ``args``; for profiled
  traces that PE's actual compute / recovery spans.

Timestamps are *synthesized* from the recorded durations: superstep
``k`` starts where superstep ``k-1``'s ``t_smvp`` ended, so the export
is a pure function of the trace — no clock is read here, and two runs
of a deterministic simulator workload export byte-identical timelines.
Profiled traces place their span events at the recorded offsets within
the superstep's ``[start, start + t_smvp]`` slot (host windows tile
that interval exactly), so tracks never carry overlapping spans —
:func:`validate_trace_events` asserts this for every export.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence

from repro.profile.spans import HOST
from repro.smvp.trace import SuperstepTrace, TraceLog
from repro.telemetry.registry import MetricsRegistry, Span

#: Seconds -> Chrome-trace microseconds.
_US = 1e6

#: tid layout (see module docstring).
PHASE_TRACKS = ("scatter", "compute", "exchange", "gather")
VERIFY_TID = 4
STAGE_TID_BASE = 50
WIRE_TID = 90
PE_TID_BASE = 100

#: Profiled host-window kind -> phase track tid.
_HOST_KIND_TIDS = {
    "scatter": 0,
    "compute": 1,
    "exchange": 2,
    "gather": 3,
    "verify": VERIFY_TID,
}

#: Required keys per the trace-event schema we target.
REQUIRED_EVENT_KEYS = ("ph", "ts", "pid", "tid")

#: Same-track span-overlap tolerance (microseconds): adjacent host
#: windows share a clock reading exactly; worker spans are clamped.
_OVERLAP_EPS_US = 1e-3


def _event(
    name: str,
    ph: str,
    ts: float,
    pid: int,
    tid: int,
    **extra: object,
) -> Dict[str, object]:
    out: Dict[str, object] = {
        "name": name,
        "ph": ph,
        "ts": ts,
        "pid": pid,
        "tid": tid,
    }
    out.update(extra)
    return out


def _thread_name(pid: int, tid: int, name: str) -> Dict[str, object]:
    return _event(
        "thread_name", "M", 0, pid, tid, args={"name": name}
    )


def _profiled_events(
    trace: SuperstepTrace,
    start: float,
    pid: int,
) -> tuple:
    """Span events for one profiled superstep, placed at its slot.

    Span times are clamped into ``[0, t_smvp]`` (worker clocks may be
    marginally skewed) so every event stays inside the superstep's
    timeline slot.  Returns ``(events, used_verify, used_wire, pes)``.
    """
    t_smvp = trace.t_smvp
    events: List[Dict[str, object]] = []
    used_verify = False
    used_wire = False
    pes = 0
    for s in trace.pe_spans:
        t0 = min(max(s.t_start, 0.0), t_smvp)
        t1 = min(max(s.t_end, t0), t_smvp)
        args: Dict[str, object] = {"step": trace.step}
        if s.pe == HOST:
            tid = _HOST_KIND_TIDS.get(s.kind, 0)
            name = s.kind
            used_verify = used_verify or s.kind == "verify"
        elif s.kind == "wire":
            tid = WIRE_TID
            name = f"msg:{s.pe}->{s.dst}"
            args.update(words=int(s.words), src=s.pe, dst=s.dst)
            used_wire = True
        else:
            tid = PE_TID_BASE + s.pe
            name = s.kind
            pes = max(pes, s.pe + 1)
        events.append(
            _event(
                name,
                "X",
                start + t0 * _US,
                pid,
                tid,
                dur=(t1 - t0) * _US,
                args=args,
            )
        )
    return events, used_verify, used_wire, pes


def trace_events(
    traces: Sequence[SuperstepTrace],
    pid: int = 0,
    origin_us: float = 0.0,
) -> List[Dict[str, object]]:
    """Phase + per-PE events for a sequence of supersteps."""
    events: List[Dict[str, object]] = []
    pes_seen = 0
    verify_seen = False
    wire_seen = False
    cursor = origin_us
    for trace in traces:
        start = cursor
        if getattr(trace, "pe_spans", None) is not None:
            evs, used_verify, used_wire, pes = _profiled_events(
                trace, start, pid
            )
            events.extend(evs)
            verify_seen = verify_seen or used_verify
            wire_seen = wire_seen or used_wire
            pes_seen = max(pes_seen, pes)
            events.append(
                _event(
                    "traffic",
                    "C",
                    start,
                    pid,
                    0,
                    args={
                        "words": trace.total_words,
                        "blocks": trace.total_blocks,
                    },
                )
            )
            cursor = start + trace.t_smvp * _US
            continue
        args = {
            "step": trace.step,
            "kernel": trace.kernel,
            "backend": trace.backend,
        }
        phase_durations = (
            trace.t_scatter,
            trace.t_comp,
            trace.t_comm,
            trace.t_gather,
        )
        t = start
        exchange_start = start
        for tid, (phase, duration) in enumerate(
            zip(PHASE_TRACKS, phase_durations)
        ):
            if phase == "exchange":
                exchange_start = t
            events.append(
                _event(
                    phase,
                    "X",
                    t,
                    pid,
                    tid,
                    dur=duration * _US,
                    args=args,
                )
            )
            t += duration * _US
        # Per-PE exchange windows with traffic counts.
        num_pes = len(trace.words_sent)
        pes_seen = max(pes_seen, num_pes)
        for pe in range(num_pes):
            events.append(
                _event(
                    "exchange",
                    "X",
                    exchange_start,
                    pid,
                    PE_TID_BASE + pe,
                    dur=trace.t_comm * _US,
                    args={
                        "step": trace.step,
                        "words": int(trace.words_sent[pe]),
                        "blocks": int(trace.blocks_sent[pe]),
                    },
                )
            )
        # Per-superstep traffic counter samples.
        events.append(
            _event(
                "traffic",
                "C",
                exchange_start,
                pid,
                0,
                args={
                    "words": trace.total_words,
                    "blocks": trace.total_blocks,
                },
            )
        )
        cursor = start + trace.t_smvp * _US
    # Track naming metadata.
    meta = [
        _thread_name(pid, tid, f"phase:{phase}")
        for tid, phase in enumerate(PHASE_TRACKS)
    ]
    if verify_seen:
        meta.append(_thread_name(pid, VERIFY_TID, "phase:verify"))
    if wire_seen:
        meta.append(_thread_name(pid, WIRE_TID, "wire"))
    meta.extend(
        _thread_name(pid, PE_TID_BASE + pe, f"PE {pe}")
        for pe in range(pes_seen)
    )
    return meta + events


def span_events(
    spans: Iterable[Span],
    pid: int = 0,
) -> List[Dict[str, object]]:
    """Registry stage spans as complete events, one track per name.

    Span timestamps are rebased so the earliest span starts at 0.
    """
    spans = list(spans)
    if not spans:
        return []
    origin = min(s.t_start for s in spans)
    tracks = sorted({s.track for s in spans})
    tids = {track: STAGE_TID_BASE + i for i, track in enumerate(tracks)}
    events = [
        _thread_name(pid, tids[track], f"stage:{track}")
        for track in tracks
    ]
    for span in spans:
        events.append(
            _event(
                span.name,
                "X",
                (span.t_start - origin) * _US,
                pid,
                tids[span.track],
                dur=span.duration * _US,
            )
        )
    return events


def chrome_trace(
    log: Optional[TraceLog] = None,
    registry: Optional[MetricsRegistry] = None,
    pid: int = 0,
) -> Dict[str, object]:
    """The full Perfetto-loadable document for a run."""
    events: List[Dict[str, object]] = []
    if registry is not None:
        events.extend(span_events(registry.spans, pid=pid))
    if log is not None:
        events.extend(trace_events(log.traces, pid=pid))
    validate_trace_events(events)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def render_chrome_trace(
    log: Optional[TraceLog] = None,
    registry: Optional[MetricsRegistry] = None,
    pid: int = 0,
) -> str:
    """Chrome-trace JSON text for ``--timeline-out`` / the CLI."""
    return (
        json.dumps(chrome_trace(log, registry, pid=pid), sort_keys=True)
        + "\n"
    )


def validate_trace_events(events: Iterable[Dict[str, object]]) -> None:
    """Assert the trace-event schema invariants we rely on.

    Every event carries ``ph``/``ts``/``pid``/``tid``; complete ("X")
    events also carry ``name`` and a non-negative ``dur``; and no two
    complete events on the same ``(pid, tid)`` track overlap in time
    (beyond a sub-microsecond tolerance for shared clock readings) —
    a track is one timeline row, and overlapping rows render as lies.
    Raises ``ValueError`` on the first violation.
    """
    events = list(events)
    for i, event in enumerate(events):
        for key in REQUIRED_EVENT_KEYS:
            if key not in event:
                raise ValueError(
                    f"trace event {i} missing {key!r}: {event!r}"
                )
        if not isinstance(event["ph"], str) or not event["ph"]:
            raise ValueError(f"trace event {i} has invalid ph: {event!r}")
        if event["ph"] == "X":
            if "name" not in event or "dur" not in event:
                raise ValueError(
                    f"complete event {i} needs name and dur: {event!r}"
                )
            if float(event["dur"]) < 0:  # type: ignore[arg-type]
                raise ValueError(
                    f"complete event {i} has negative dur: {event!r}"
                )
        if float(event["ts"]) < 0:  # type: ignore[arg-type]
            raise ValueError(
                f"trace event {i} has negative ts: {event!r}"
            )
    spans_by_track: Dict[tuple, List[tuple]] = {}
    for i, event in enumerate(events):
        if event.get("ph") != "X":
            continue
        ts = float(event["ts"])  # type: ignore[arg-type]
        spans_by_track.setdefault((event["pid"], event["tid"]), []).append(
            (ts, ts + float(event["dur"]), i)  # type: ignore[arg-type]
        )
    for (epid, etid), track in sorted(spans_by_track.items()):
        track.sort()
        prev_end = None
        prev_i = None
        for ts, te, i in track:
            if prev_end is not None and ts < prev_end - _OVERLAP_EPS_US:
                raise ValueError(
                    f"overlapping spans on track pid={epid} tid={etid}: "
                    f"event {prev_i} runs past {ts:.3f}us where event "
                    f"{i} starts (ends {prev_end:.3f}us)"
                )
            if prev_end is None or te > prev_end:
                prev_end, prev_i = te, i
