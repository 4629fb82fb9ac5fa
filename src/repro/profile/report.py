"""Aggregated profiler reports: blame table, folded stacks, regress gate.

``build_report`` folds per-superstep :class:`SuperstepProfile` records
into one run-level :class:`ProfileReport`; ``render_report`` prints the
blame table ``repro-trace --profile`` shows, ``render_folded`` emits
flamegraph folded stacks (``stack;frames count`` with integer
microsecond counts), and ``compare_reports`` is the noise-aware
``--regress`` gate between the reports of two saved trace logs.

The regression threshold adapts to run noise: with per-step ``t_smvp``
samples in the old report, the gate uses ``max(base, 2 * CV)`` where
CV is the old run's coefficient of variation — a noisy baseline earns
a wider band instead of flaking.  Only *slowdowns* fail; getting
faster never does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.profile.critical_path import (
    BUCKETS,
    SuperstepProfile,
    analyze_log,
)

#: Baseline relative slowdown tolerated by ``compare_reports``.
DEFAULT_REGRESS_THRESHOLD = 0.10

#: Buckets smaller than this share of the old total are not gated —
#: a 3x jump in a microscopic bucket is noise, not a regression.
MIN_GATED_SHARE = 0.05


@dataclass
class ProfileReport:
    """Run-level aggregation of per-superstep profiles."""

    backend: str
    kernel: str
    steps: int
    rhs: int
    t_total: float
    buckets: Dict[str, float]
    pe_compute: Dict[int, float]
    straggler: Dict[int, float]
    identity_max_err: float
    per_step_t_smvp: List[float]
    wire: Dict[str, float]
    profiles: List[SuperstepProfile] = field(default_factory=list)


def build_report(traces) -> ProfileReport:
    """Aggregate every profiled trace in ``traces`` (a TraceLog or a
    plain sequence of SuperstepTrace)."""
    traces = list(getattr(traces, "traces", traces))
    profiles = analyze_log(traces)
    if not profiles:
        raise ValueError(
            "no profiled supersteps: traces carry no pe_spans "
            "(run with profile enabled)"
        )
    by_step = {
        t.step: t for t in traces if getattr(t, "pe_spans", None)
    }
    buckets = {name: 0.0 for name in BUCKETS}
    pe_compute: Dict[int, float] = {}
    identity_max = 0.0
    messages = 0
    words = 0
    for p in profiles:
        for name, v in p.buckets.items():
            buckets[name] = buckets.get(name, 0.0) + v
        for pe, v in sorted(p.pe_compute.items()):
            pe_compute[pe] = pe_compute.get(pe, 0.0) + v
        identity_max = max(identity_max, p.identity_error)
        messages += p.wire_fit.messages
        words += p.wire_fit.words
    straggler: Dict[int, float] = {}
    if pe_compute:
        ordered = sorted(pe_compute.values())
        mid = len(ordered) // 2
        if len(ordered) % 2:
            median = ordered[mid]
        else:
            median = 0.5 * (ordered[mid - 1] + ordered[mid])
        for pe, v in sorted(pe_compute.items()):
            straggler[pe] = v / median if median > 0.0 else 1.0
    n = len(profiles)
    mean_a = (
        sum(p.wire_fit.latency_per_msg for p in profiles) / n
    )
    mean_b = (
        sum(p.wire_fit.seconds_per_word for p in profiles) / n
    )
    last = by_step[profiles[-1].step]
    return ProfileReport(
        backend=profiles[-1].backend,
        kernel=getattr(last, "kernel", "csr"),
        steps=n,
        rhs=int(getattr(last, "rhs", 1)),
        t_total=sum(p.t_smvp for p in profiles),
        buckets=buckets,
        pe_compute=pe_compute,
        straggler=straggler,
        identity_max_err=identity_max,
        per_step_t_smvp=[p.t_smvp for p in profiles],
        wire={
            "latency_per_msg": mean_a,
            "seconds_per_word": mean_b,
            "messages": float(messages),
            "words": float(words),
        },
        profiles=profiles,
    )


def render_report(
    report: ProfileReport, modeled: Optional[Dict[str, float]] = None
) -> str:
    """The human-readable blame table."""
    lines = [
        f"critical-path profile: {report.steps} supersteps, "
        f"backend={report.backend}, kernel={report.kernel}, "
        f"rhs={report.rhs}",
        "",
        f"{'bucket':<12} {'seconds':>12} {'share':>7}"
        + ("" if modeled is None else f" {'modeled':>12}"),
    ]
    total = report.t_total or 1.0
    for name in BUCKETS:
        v = report.buckets.get(name, 0.0)
        row = f"{name:<12} {v:>12.6f} {v / total:>6.1%}"
        if modeled is not None:
            row += f" {modeled.get(name, 0.0):>12.6f}"
        lines.append(row)
    lines.append(
        f"{'total':<12} {report.t_total:>12.6f} {'100.0%':>7}"
        + (
            ""
            if modeled is None
            else f" {modeled.get('total', 0.0):>12.6f}"
        )
    )
    lines.append(
        f"critical-path identity: max |path - t_smvp| = "
        f"{report.identity_max_err:.3e} s"
    )
    if report.pe_compute:
        lines.append("")
        lines.append(
            f"{'PE':>4} {'compute s':>12} {'straggler':>10}"
        )
        for pe in sorted(report.pe_compute):
            lines.append(
                f"{pe:>4} {report.pe_compute[pe]:>12.6f} "
                f"{report.straggler[pe]:>10.2f}"
            )
    if report.wire["messages"] > 0:
        lines.append(
            f"wire fit: {report.wire['latency_per_msg']:.3e} s/msg + "
            f"{report.wire['seconds_per_word']:.3e} s/word over "
            f"{int(report.wire['messages'])} messages / "
            f"{int(report.wire['words'])} words"
        )
    return "\n".join(lines)


def render_folded(traces) -> str:
    """Flamegraph folded stacks, aggregated over the run.

    One line per distinct stack, count = total integer microseconds.
    Host windows self-time is the window minus its contained per-PE
    compute spans, which get child frames.  Wire spans fold under a
    top-level ``wire`` root, one frame per message pair, so messages
    compare side by side; their time is also inside the self time of
    the exchange (or send) window they ran in.
    """
    traces = list(getattr(traces, "traces", traces))
    agg: Dict[str, float] = {}

    def bump(stack: str, seconds: float) -> None:
        if seconds > 0.0:
            agg[stack] = agg.get(stack, 0.0) + seconds

    for trace in traces:
        spans = getattr(trace, "pe_spans", None)
        if spans is None:
            continue
        pe_spans = [s for s in spans if s.pe >= 0]
        for window in spans.host_windows():
            contained = 0.0
            for s in pe_spans:
                if s.kind == "wire":
                    continue
                d = s.overlap(window.t_start, window.t_end)
                if d > 0.0:
                    bump(f"smvp;{window.kind};PE{s.pe}", d)
                    contained += d
            bump(
                f"smvp;{window.kind}",
                max(window.duration - contained, 0.0),
            )
        for s in pe_spans:
            if s.kind == "wire":
                bump(f"wire;{s.pe}->{s.dst}", s.duration)
    lines = []
    for stack in sorted(agg):
        us = int(round(agg[stack] * 1e6))
        if us > 0:
            lines.append(f"{stack} {us}")
    return "\n".join(lines) + "\n"


def _noise_threshold(steps: List[float], base: float) -> float:
    if len(steps) < 2:
        return base
    mean = sum(steps) / len(steps)
    if mean <= 0.0:
        return base
    var = sum((s - mean) ** 2 for s in steps) / (len(steps) - 1)
    cv = math.sqrt(var) / mean
    return max(base, 2.0 * cv)


def compare_reports(
    old: ProfileReport,
    new: ProfileReport,
    base_threshold: float = DEFAULT_REGRESS_THRESHOLD,
) -> Tuple[bool, List[str]]:
    """Noise-aware regression gate between two runs' reports.

    Returns ``(ok, lines)``; ``ok`` is False when the new total, or any
    bucket carrying at least :data:`MIN_GATED_SHARE` of the old total,
    slowed down by more than the (noise-widened) threshold.
    """
    if not (math.isfinite(base_threshold) and base_threshold > 0.0):
        raise ValueError(
            f"base_threshold must be finite and > 0, got {base_threshold!r}"
        )
    threshold = _noise_threshold(old.per_step_t_smvp, base_threshold)
    lines = [
        f"regression threshold: {threshold:.1%} "
        f"(base {base_threshold:.1%}, noise-adjusted from "
        f"{len(old.per_step_t_smvp)} old steps)"
    ]
    ok = True
    checks: List[Tuple[str, float, float]] = [
        ("t_total", old.t_total, new.t_total)
    ]
    for name in sorted(old.buckets):
        old_v = old.buckets[name]
        if old.t_total > 0.0 and old_v < MIN_GATED_SHARE * old.t_total:
            continue
        checks.append((f"bucket:{name}", old_v, new.buckets.get(name, 0.0)))
    for name, old_v, new_v in checks:
        if old_v <= 0.0:
            lines.append(f"  {name}: old=0, skipped")
            continue
        ratio = new_v / old_v
        verdict = "ok"
        if ratio > 1.0 + threshold:
            verdict = "REGRESSION"
            ok = False
        lines.append(
            f"  {name}: {old_v:.6f}s -> {new_v:.6f}s "
            f"({ratio - 1.0:+.1%}) [{verdict}]"
        )
    return ok, lines
