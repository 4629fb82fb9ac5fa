"""Critical-path extraction and wall-time attribution.

Turns one profiled :class:`~repro.smvp.trace.SuperstepTrace` (any
object carrying ``pe_spans`` / ``t_smvp`` / ``backend`` / ``step``)
into a blame breakdown over the buckets

``compute``
    Useful per-PE product time.  For the concurrently executing
    backend (``threaded``) this is the *mean* per-PE span,
    so the gap to the slowest PE lands in ``imbalance``; for the
    serially executing one (``serial``) it is the sum.
``imbalance``
    Slowest-PE excess over the mean on concurrent backends — the
    paper's ``max_i F_i`` pessimism made visible.
``latency``
    Per-message time: the latency share of measured wire time (via the
    per-message least-squares fit ``d = a + b*w``) plus the non-wire
    residue of the exchange window (the rounds' summation, snapshot
    bookkeeping).
``bandwidth``
    Per-word time: the volume share of wire time.
``verify`` / ``recovery``
    ABFT check windows, minus the recovery recomputes they contain,
    which get their own bucket.
``overhead``
    Scatter/gather plus orchestration residue inside compute windows.

**Critical-path identity.**  The host windows are consecutive reads of
one monotonic clock, so they tile ``[0, t_smvp]`` exactly; every
window's full duration is attributed to exactly one bucket (or split
exactly between two).  Therefore ``sum(buckets) == t_smvp`` and the
extracted critical path — the chain of host windows, each labeled by
its dominant contributor — sums to ``t_smvp`` to float-addition
precision.  Tests and the CI gate rely on this identity.

Per-PE spans from worker threads/processes are *clamped* into their
matching host window before any accounting: ``perf_counter`` is
CLOCK_MONOTONIC system-wide on Linux, so cross-thread and cross-process
readings are comparable, but clamping keeps the attribution total even
on hosts where they are skewed.

This module imports nothing from :mod:`repro.smvp` (traces are duck
typed) so the trace dataclass can import :mod:`repro.profile.spans`
without a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.profile.spans import HOST, PeSpan, SuperstepSpans

#: Backends whose per-PE products genuinely run concurrently; the
#: compute window is then bounded by the slowest PE, not the sum.
CONCURRENT_BACKENDS = frozenset({"threaded"})

#: Blame buckets, in render order.
BUCKETS = (
    "compute",
    "imbalance",
    "latency",
    "bandwidth",
    "verify",
    "recovery",
    "overhead",
)

@dataclass(frozen=True)
class WireFit:
    """Least-squares per-message wire model ``d = a + b*w``."""

    latency_per_msg: float  # a: seconds per message
    seconds_per_word: float  # b: seconds per word
    messages: int
    words: int

    @property
    def latency_fraction(self) -> float:
        """Share of total wire time the fit blames on per-message
        latency (1.0 when there is no volume term to separate)."""
        lat = self.messages * self.latency_per_msg
        vol = self.words * self.seconds_per_word
        total = lat + vol
        return lat / total if total > 0.0 else 1.0

    def to_dict(self) -> dict:
        return {
            "latency_per_msg": self.latency_per_msg,
            "seconds_per_word": self.seconds_per_word,
            "messages": self.messages,
            "words": self.words,
        }


def fit_wire(wires: Sequence[PeSpan]) -> WireFit:
    """Fit ``duration = a + b*words`` over the measured messages.

    Clamped to the physical region ``a, b >= 0``: a negative slope
    (tiny, noisy samples) collapses to the pure-latency model, a
    negative intercept to the pure-bandwidth model.  Degenerate inputs
    (no messages, or all the same size) fall back accordingly.
    """
    n = len(wires)
    if n == 0:
        return WireFit(0.0, 0.0, 0, 0)
    durations = [s.duration for s in wires]
    words = [float(s.words) for s in wires]
    total_words = int(sum(s.words for s in wires))
    mean_d = sum(durations) / n
    mean_w = sum(words) / n
    var_w = sum((w - mean_w) ** 2 for w in words)
    if var_w <= 0.0:
        return WireFit(max(mean_d, 0.0), 0.0, n, total_words)
    cov = sum(
        (w - mean_w) * (d - mean_d) for w, d in zip(words, durations)
    )
    b = cov / var_w
    a = mean_d - b * mean_w
    if b < 0.0:
        b, a = 0.0, mean_d
    elif a < 0.0:
        sq = sum(w * w for w in words)
        a, b = 0.0, (sum(w * d for w, d in zip(words, durations)) / sq)
        b = max(b, 0.0)
    return WireFit(max(a, 0.0), max(b, 0.0), n, total_words)


@dataclass(frozen=True)
class SuperstepProfile:
    """One superstep's full attribution."""

    step: int
    backend: str
    t_smvp: float
    buckets: Dict[str, float]
    pe_compute: Dict[int, float]  # per-PE product seconds
    straggler: Dict[int, float]  # pe seconds / median seconds
    wire_fit: WireFit
    critical_path: Tuple[Tuple[str, float], ...]  # (label, seconds)

    @property
    def critical_len(self) -> float:
        return sum(d for _, d in self.critical_path)

    @property
    def identity_error(self) -> float:
        """|critical-path length - t_smvp| — ~1e-15 relative by
        construction; the CI gate checks it stays within clock
        resolution."""
        return abs(self.critical_len - self.t_smvp)


def _clamped_durations(
    spans: Sequence[PeSpan], window: PeSpan
) -> Dict[int, float]:
    """Per-PE seconds of ``spans`` clamped into ``window``."""
    out: Dict[int, float] = {}
    for s in spans:
        d = s.overlap(window.t_start, window.t_end)
        if d > 0.0:
            out[s.pe] = out.get(s.pe, 0.0) + d
    return out


def analyze_superstep(trace) -> SuperstepProfile:
    """Attribute one profiled superstep's wall time to the buckets."""
    spans: Optional[SuperstepSpans] = getattr(trace, "pe_spans", None)
    if spans is None:
        raise ValueError(
            "trace has no pe_spans; run the executor with profile=True "
            "(or pass --profile on the CLI)"
        )
    backend = getattr(trace, "backend", "serial")
    t_smvp = float(getattr(trace, "t_smvp"))
    host = spans.host_windows()
    pe_spans = [s for s in spans if s.pe != HOST]
    wires = [s for s in pe_spans if s.kind == "wire"]
    recoveries = [s for s in pe_spans if s.kind == "recovery"]
    fit = fit_wire(wires)
    lfrac = fit.latency_fraction
    concurrent = backend in CONCURRENT_BACKENDS

    buckets = {name: 0.0 for name in BUCKETS}
    pe_compute: Dict[int, float] = {}
    path: List[Tuple[str, float]] = []

    for window in host:
        w = window.duration
        kind = window.kind
        label = kind
        if kind in ("scatter", "gather"):
            buckets["overhead"] += w
        elif kind == "verify":
            healed = sum(
                s.overlap(window.t_start, window.t_end)
                for s in recoveries
            )
            healed = min(healed, w)
            buckets["recovery"] += healed
            buckets["verify"] += w - healed
            if healed > 0.0:
                label = "verify+recovery"
        elif kind == "compute":
            per_pe = _clamped_durations(
                [s for s in pe_spans if s.kind == "compute"], window
            )
            for pe, d in sorted(per_pe.items()):
                pe_compute[pe] = pe_compute.get(pe, 0.0) + d
            durations = list(per_pe.values())
            total_in = sum(durations)
            if concurrent and durations:
                d_max = max(durations)
                d_mean = total_in / len(durations)
                buckets["compute"] += d_mean
                buckets["imbalance"] += d_max - d_mean
                buckets["overhead"] += max(w - d_max, 0.0)
                # Clamping guarantees d_max <= w, so no residue is lost.
                label = f"{kind}[PE {max(per_pe, key=per_pe.get)}]"
            else:
                buckets["compute"] += min(total_in, w)
                buckets["overhead"] += max(w - total_in, 0.0)
                if per_pe:
                    label = f"{kind}[PE {max(per_pe, key=per_pe.get)}]"
        elif kind == "exchange":
            wire_in = sum(
                s.overlap(window.t_start, window.t_end) for s in wires
            )
            wire_in = min(wire_in, w)
            buckets["latency"] += lfrac * wire_in + (w - wire_in)
            buckets["bandwidth"] += (1.0 - lfrac) * wire_in
            if wires:
                heaviest = max(wires, key=lambda s: s.duration)
                label = f"{kind}[msg {heaviest.pe}->{heaviest.dst}]"
        else:
            buckets["overhead"] += w
        path.append((label, w))

    # Straggler score: per-PE product seconds over the median PE.
    straggler: Dict[int, float] = {}
    if pe_compute:
        ordered = sorted(pe_compute.values())
        mid = len(ordered) // 2
        if len(ordered) % 2:
            median = ordered[mid]
        else:
            median = 0.5 * (ordered[mid - 1] + ordered[mid])
        for pe, d in sorted(pe_compute.items()):
            straggler[pe] = d / median if median > 0.0 else 1.0

    return SuperstepProfile(
        step=int(getattr(trace, "step", 0)),
        backend=backend,
        t_smvp=t_smvp,
        buckets=buckets,
        pe_compute=pe_compute,
        straggler=straggler,
        wire_fit=fit,
        critical_path=tuple(path),
    )


def analyze_log(traces) -> List[SuperstepProfile]:
    """Profile every trace that carries spans (skipping bare ones)."""
    out = []
    for trace in traces:
        if getattr(trace, "pe_spans", None) is not None:
            out.append(analyze_superstep(trace))
    return out
