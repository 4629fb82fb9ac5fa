"""Model-vs-measured drift monitoring.

The paper's argument chain is: measure application properties (F_i,
C_i, B_i), predict phase times with Equations (1)/(2), trust the
prediction because the β bound caps the model's pessimism.  The drift
monitor closes that loop at runtime: feed it the per-superstep
:class:`~repro.smvp.trace.PhaseBreakdown` stream from either the real
executor or the BSP simulator, and it compares each superstep against
the analytic prediction for the same workload on a given
:class:`~repro.model.machine.Machine`.

Two modeled communication times are tracked, both from the schedule's
one Eq. (2) accounting (``CommSchedule.comm_busy`` / ``eq2_terms``):

* the *exact* per-PE form ``max_i (B_i T_l + C_i T_w)`` — what the
  barrier-mode simulator computes, so simulator drift is zero by
  construction;
* the paper's Equation (2) aggregate ``B_max T_l + C_max T_w`` — the
  pessimistic bound, which must stay within ``β ×`` the exact form
  (a violation means the measured traffic no longer matches the
  schedule the β bound was computed from).

``DriftMonitor`` is itself a valid trace sink (``monitor(trace)``), so
it can be attached anywhere a :class:`~repro.smvp.trace.TraceLog` can.
This module is deliberately clock-free: it only ever consumes times
measured elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.model.machine import Machine
from repro.smvp.schedule import CommSchedule
from repro.smvp.trace import PhaseBreakdown
from repro.stats.beta import beta_bound
from repro.telemetry.registry import get_registry

#: Relative slack allowed on the β check before it counts as violated
#: (β itself is exact arithmetic; the slack absorbs float roundoff).
BETA_TOLERANCE = 1e-9


class DriftError(ValueError):
    """Raised by :meth:`DriftReport.check` when drift exceeds bounds."""


def _relative(measured: float, modeled: float) -> float:
    """Signed relative drift; 0 when both are (near-)zero."""
    if modeled != 0.0:
        return (measured - modeled) / modeled
    return 0.0 if measured == 0.0 else float("inf")


def modeled_breakdown(
    flops_per_pe: np.ndarray,
    schedule: CommSchedule,
    machine: Machine,
    rhs: int = 1,
) -> PhaseBreakdown:
    """Exact per-PE barrier-model prediction for one superstep.

    ``rhs`` is the block width: an r-column superstep does r times the
    flops and ships r words per shared dof at unchanged block count.
    ``rhs=1`` is bit-identical to the historical prediction.
    """
    machine.require_comm("drift monitoring")
    if rhs < 1:
        raise ValueError("rhs must be >= 1")
    flops = np.asarray(flops_per_pe, dtype=np.float64)
    tf = machine.tf * rhs
    t_comp = float((flops * tf).max()) if len(flops) else 0.0
    # The simulator's per-PE accounting (queue-search contention
    # included), so sim-vs-model drift is exactly zero.
    busy = schedule.comm_busy(machine, rhs)
    t_comm = float(busy.max()) if len(busy) else 0.0
    return PhaseBreakdown(
        t_comp=t_comp, t_comm=t_comm, t_smvp=t_comp + t_comm
    )


def eq2_t_comm(schedule: CommSchedule, machine: Machine, rhs: int = 1) -> float:
    """The paper's Equation (2): ``B_max T_l + C_max T_w``.

    With ``rhs > 1`` the volume term grows r-fold (``C_max`` shared
    words each carry r columns) while the latency term ``B_max T_l``
    is unchanged — the block engine's whole point.
    """
    machine.require_comm("Equation (2)")
    if rhs < 1:
        raise ValueError("rhs must be >= 1")
    latency, bandwidth = schedule.eq2_terms(machine, rhs)
    return latency + bandwidth


def contended_t_comm(
    schedule: CommSchedule, machine: Machine, rhs: int = 1
) -> float:
    """Contention-corrected Eq. (2): ``B_max T_l + r C_max T_w + T_q Q_max^2``.

    ``Q_max`` is the deepest receive queue any PE sees in one exchange
    (:attr:`~repro.smvp.schedule.CommSchedule.q_max`).  Requires a
    machine with ``tq`` set (fit one with
    :func:`fit_machine_contended`).
    """
    if machine.tq is None:
        raise ValueError(
            f"machine {machine.name!r} has no contention coefficient tq; "
            "fit one with fit_machine_contended"
        )
    q = float(schedule.q_max)
    return eq2_t_comm(schedule, machine, rhs=rhs) + machine.tq * q * q


@dataclass(frozen=True)
class DriftThresholds:
    """Relative-drift bounds for :meth:`DriftReport.check`."""

    max_comp_drift: float = 0.25
    max_comm_drift: float = 0.25
    max_efficiency_delta: float = 0.10

    def __post_init__(self) -> None:
        # A nan or inf bound passes every drift; one <= 0 fails all.
        for name, value in vars(self).items():
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(
                    f"{name} must be finite and > 0, got {value!r}"
                )


#: Tightened defaults for contention-aware machines: once the model
#: accounts for queue contention, the residual it leaves unexplained
#: should be smaller, so the monitor demands less slack.
CONTENDED_THRESHOLDS = DriftThresholds(
    max_comp_drift=0.25,
    max_comm_drift=0.15,
    max_efficiency_delta=0.08,
)


@dataclass(frozen=True)
class DriftRecord:
    """One superstep's measured-vs-modeled comparison."""

    step: int
    measured: PhaseBreakdown
    modeled: PhaseBreakdown
    words_measured: Optional[int] = None
    words_scheduled: Optional[int] = None
    #: Per-term measured-vs-modeled residuals (compute / latency /
    #: bandwidth), populated when the observed trace carried profiler
    #: spans: term -> {"measured", "modeled", "residual"}.
    term_residuals: Optional[dict] = None

    @property
    def comp_drift(self) -> float:
        return _relative(self.measured.t_comp, self.modeled.t_comp)

    @property
    def comm_drift(self) -> float:
        return _relative(self.measured.t_comm, self.modeled.t_comm)

    @property
    def efficiency_delta(self) -> float:
        return self.measured.efficiency - self.modeled.efficiency

    @property
    def traffic_drift(self) -> float:
        """Relative excess words vs the schedule (retransmits show up here)."""
        if self.words_measured is None or self.words_scheduled is None:
            return 0.0
        return _relative(
            float(self.words_measured), float(self.words_scheduled)
        )

    def to_dict(self) -> dict:
        out = {
            "step": self.step,
            "t_comp_measured": self.measured.t_comp,
            "t_comp_modeled": self.modeled.t_comp,
            "comp_drift": self.comp_drift,
            "t_comm_measured": self.measured.t_comm,
            "t_comm_modeled": self.modeled.t_comm,
            "comm_drift": self.comm_drift,
            "efficiency_measured": self.measured.efficiency,
            "efficiency_modeled": self.modeled.efficiency,
            "efficiency_delta": self.efficiency_delta,
            "traffic_drift": self.traffic_drift,
        }
        if self.term_residuals is not None:
            out["term_residuals"] = self.term_residuals
        return out


@dataclass
class DriftReport:
    """Everything the monitor observed, plus pass/fail logic."""

    machine: str
    beta: float
    eq2_t_comm: float
    exact_t_comm: float
    thresholds: DriftThresholds
    records: List[DriftRecord] = field(default_factory=list)

    @property
    def beta_violated(self) -> bool:
        """Eq. (2) exceeding β × the exact model breaks the paper's bound."""
        return self.eq2_t_comm > self.beta * self.exact_t_comm * (
            1.0 + BETA_TOLERANCE
        )

    @property
    def max_abs_comp_drift(self) -> float:
        return max((abs(r.comp_drift) for r in self.records), default=0.0)

    @property
    def max_abs_comm_drift(self) -> float:
        return max((abs(r.comm_drift) for r in self.records), default=0.0)

    @property
    def max_abs_efficiency_delta(self) -> float:
        return max(
            (abs(r.efficiency_delta) for r in self.records), default=0.0
        )

    def violations(self) -> List[str]:
        out: List[str] = []
        if not self.records:
            # A gate must never pass on nothing: with no records every
            # max-drift below is 0.0 by default.
            out.append("no supersteps observed")
        t = self.thresholds
        if self.max_abs_comp_drift > t.max_comp_drift:
            out.append(
                f"T_comp drift {self.max_abs_comp_drift:.3%} exceeds "
                f"{t.max_comp_drift:.3%}"
            )
        if self.max_abs_comm_drift > t.max_comm_drift:
            out.append(
                f"T_comm drift {self.max_abs_comm_drift:.3%} exceeds "
                f"{t.max_comm_drift:.3%}"
            )
        if self.max_abs_efficiency_delta > t.max_efficiency_delta:
            out.append(
                f"efficiency delta {self.max_abs_efficiency_delta:.3f} "
                f"exceeds {t.max_efficiency_delta:.3f}"
            )
        if self.beta_violated:
            out.append(
                f"beta bound violated: Eq.(2) T_comm "
                f"{self.eq2_t_comm:.3e} > beta({self.beta:.3f}) x exact "
                f"{self.exact_t_comm:.3e}"
            )
        return out

    @property
    def ok(self) -> bool:
        return not self.violations()

    def check(self) -> None:
        """Raise :class:`DriftError` when any bound is exceeded."""
        problems = self.violations()
        if problems:
            raise DriftError("; ".join(problems))

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "machine": self.machine,
            "beta": self.beta,
            "eq2_t_comm": self.eq2_t_comm,
            "exact_t_comm": self.exact_t_comm,
            "beta_violated": self.beta_violated,
            "max_abs_comp_drift": self.max_abs_comp_drift,
            "max_abs_comm_drift": self.max_abs_comm_drift,
            "max_abs_efficiency_delta": self.max_abs_efficiency_delta,
            "violations": self.violations(),
            "supersteps": [r.to_dict() for r in self.records],
        }

    def render_table(self) -> str:
        header = (
            f"{'step':>5} {'comp meas':>11} {'comp model':>11} "
            f"{'drift':>8} {'comm meas':>11} {'comm model':>11} "
            f"{'drift':>8} {'eff meas':>8} {'eff model':>9}"
        )
        lines = [header, "-" * len(header)]
        for r in self.records:
            lines.append(
                f"{r.step:>5} {r.measured.t_comp:>11.4e} "
                f"{r.modeled.t_comp:>11.4e} {r.comp_drift:>8.2%} "
                f"{r.measured.t_comm:>11.4e} {r.modeled.t_comm:>11.4e} "
                f"{r.comm_drift:>8.2%} {r.measured.efficiency:>8.3f} "
                f"{r.modeled.efficiency:>9.3f}"
            )
        lines.append("-" * len(header))
        beta_state = "VIOLATED" if self.beta_violated else "ok"
        lines.append(
            f"machine={self.machine}  beta={self.beta:.3f}  "
            f"Eq.(2) T_comm={self.eq2_t_comm:.4e}  "
            f"exact T_comm={self.exact_t_comm:.4e}  [{beta_state}]"
        )
        lines.append(
            f"max |drift|: comp={self.max_abs_comp_drift:.2%}  "
            f"comm={self.max_abs_comm_drift:.2%}  "
            f"efficiency delta={self.max_abs_efficiency_delta:.3f}"
        )
        profiled = [r for r in self.records if r.term_residuals]
        if profiled:
            worst: dict = {}
            for r in profiled:
                for term, d in r.term_residuals.items():
                    res = abs(d["residual"])
                    if res > worst.get(term, -1.0):
                        worst[term] = res
            worst_term = max(worst, key=worst.get)
            terms = "  ".join(
                f"{term}={worst[term]:.2%}"
                for term in ("compute", "latency", "bandwidth")
                if term in worst
            )
            lines.append(
                f"profiled term residuals (max |.|): {terms}  "
                f"[worst: {worst_term}]"
            )
        return "\n".join(lines)


class DriftMonitor:
    """Compare a stream of phase breakdowns against the model.

    Usable directly as a trace sink::

        monitor = DriftMonitor(flops, schedule, machine)
        smvp = DistributedSMVP(..., trace_sink=monitor)
    """

    def __init__(
        self,
        flops_per_pe: np.ndarray,
        schedule: CommSchedule,
        machine: Machine,
        thresholds: Optional[DriftThresholds] = None,
        rhs: int = 1,
    ) -> None:
        machine.require_comm("drift monitoring")
        if rhs < 1:
            raise ValueError("rhs must be >= 1")
        self.machine = machine
        self.schedule = schedule
        self.rhs = int(rhs)
        self.flops = np.asarray(flops_per_pe, dtype=np.float64)
        self.modeled = modeled_breakdown(self.flops, schedule, machine, rhs=rhs)
        # A contention-aware machine explains more of the measured comm
        # time, so it is held to the tighter default bounds.
        self.thresholds = thresholds or (
            CONTENDED_THRESHOLDS
            if machine.tq is not None
            else DriftThresholds()
        )
        self.beta = beta_bound(
            schedule.words_per_pe, schedule.blocks_per_pe
        )
        self.eq2 = eq2_t_comm(schedule, machine, rhs=rhs)
        self.words_scheduled = int(schedule.total_words) * self.rhs
        self.records: List[DriftRecord] = []

    def observe(
        self,
        breakdown: PhaseBreakdown,
        step: Optional[int] = None,
        words_measured: Optional[int] = None,
    ) -> DriftRecord:
        """Record one superstep; extracts what it can from the trace."""
        if step is None:
            step = getattr(breakdown, "step", len(self.records))
        if words_measured is None:
            words = getattr(breakdown, "words_sent", None)
            if words is not None:
                words_measured = int(np.asarray(words).sum())
        term_residuals = None
        if getattr(breakdown, "pe_spans", None) is not None:
            term_residuals = self._term_residuals(breakdown)
        record = DriftRecord(
            step=int(step),
            measured=PhaseBreakdown(
                t_comp=breakdown.t_comp,
                t_comm=breakdown.t_comm,
                t_smvp=breakdown.t_smvp,
            ),
            modeled=self.modeled,
            words_measured=words_measured,
            words_scheduled=self.words_scheduled,
            term_residuals=term_residuals,
        )
        self.records.append(record)
        reg = get_registry()
        if reg is not None:
            reg.counter(
                "repro_drift_observations_total",
                "supersteps compared against the model",
            ).inc()
            reg.gauge(
                "repro_drift_efficiency_delta",
                "last measured-minus-modeled efficiency",
            ).set(record.efficiency_delta)
        return record

    def _term_residuals(self, trace) -> dict:
        """Profiler buckets vs the model's per-term predictions.

        The analytic model splits a superstep into compute
        (``max_i F_i T_f r``), latency (``B_max T_l``) and bandwidth
        (``C_max T_w r``); the profiler's buckets measure the same
        three terms directly (compute + imbalance is the slowest-PE
        product time, matching the model's ``max_i``), so a drifting
        prediction is localized to the term that drifted.
        """
        from repro.profile.critical_path import analyze_superstep

        buckets = analyze_superstep(trace).buckets
        latency, bandwidth = self.schedule.eq2_terms(self.machine, self.rhs)
        modeled = {
            "compute": self.modeled.t_comp,
            "latency": latency,
            "bandwidth": bandwidth,
        }
        measured = {
            "compute": buckets["compute"] + buckets["imbalance"],
            "latency": buckets["latency"],
            "bandwidth": buckets["bandwidth"],
        }
        return {
            term: {
                "measured": measured[term],
                "modeled": modeled[term],
                "residual": _relative(measured[term], modeled[term]),
            }
            for term in ("compute", "latency", "bandwidth")
        }

    # A DriftMonitor is a TraceSink.
    __call__ = observe

    def report(self) -> DriftReport:
        return DriftReport(
            machine=self.machine.name,
            beta=float(self.beta),
            eq2_t_comm=float(self.eq2),
            exact_t_comm=self.modeled.t_comm,
            thresholds=self.thresholds,
            records=list(self.records),
        )


def fit_machine(
    breakdowns: Sequence[PhaseBreakdown],
    flops_per_pe: np.ndarray,
    schedule: CommSchedule,
    name: str = "host-fit",
) -> Machine:
    """Calibrate a (T_f, T_l, T_w) machine from measured supersteps.

    Used by ``repro-trace --drift`` (without ``--machine``) to compare
    a real host run against itself: T_f from the mean compute phase over
    ``max_i F_i``, T_w from the mean communication phase over ``C_max``
    with T_l folded to zero (the host exchange has no per-block wire
    latency to separate out).
    """
    if not breakdowns:
        raise ValueError("need at least one measured superstep to fit")
    flops = np.asarray(flops_per_pe, dtype=np.float64)
    f_max = float(flops.max()) if len(flops) else 0.0
    if f_max <= 0:
        raise ValueError("cannot fit tf: no flops recorded")
    mean_comp = sum(b.t_comp for b in breakdowns) / len(breakdowns)
    mean_comm = sum(b.t_comm for b in breakdowns) / len(breakdowns)
    tf = max(mean_comp / f_max, 1e-15)
    c_max = float(schedule.c_max)
    tw = mean_comm / c_max if c_max > 0 else 0.0
    return Machine(name=name, tf=tf, tl=0.0, tw=max(tw, 0.0))


@dataclass(frozen=True)
class ContentionFit:
    """Outcome of a uniform-vs-contended machine calibration.

    Both machines are fit by least squares over the same sweep of
    measured supersteps at different PE counts; the uniform model is
    nested inside the contended one (``tq = 0``), so
    ``contended_residual <= uniform_residual`` whenever the contention
    term explains any of the measured communication time.  Residuals
    are RMS seconds of the per-superstep ``T_comm`` prediction error.
    """

    machine: Machine
    uniform_machine: Machine
    uniform_residual: float
    contended_residual: float
    samples: int

    @property
    def residual_reduction(self) -> float:
        """Fraction of the uniform model's residual the contention
        term removed (0 when the contended fit degenerated)."""
        if self.uniform_residual <= 0:
            return 0.0
        return 1.0 - self.contended_residual / self.uniform_residual


def _rms(residuals: np.ndarray) -> float:
    return float(np.sqrt(np.mean(residuals * residuals)))


def fit_machine_contended(
    sweep,
    name: str = "host-fit-contended",
) -> ContentionFit:
    """Fit (T_l, T_w, T_q) from measured supersteps across a PE sweep.

    ``sweep`` is a sequence of ``(breakdowns, flops_per_pe, schedule)``
    triples — one per PE count, each with the supersteps measured at
    that layout.  The uniform model regresses the measured ``T_comm``
    on ``(B_max, C_max)``; the contended model adds the queue-search
    term ``Q_max**2`` (see :func:`contended_t_comm`).  A single-layout
    sweep cannot separate the predictors (they are colinear at fixed
    p), which is why the contention term is fit from a sweep and not
    from one run.  Coefficients are clamped non-negative; if
    clamping degrades the contended fit below the uniform one, the
    contention term is dropped (``tq = 0``) so the contended model
    never predicts worse than the uniform model it extends.
    """
    rows = []
    targets = []
    comp_rows = []
    for breakdowns, flops_per_pe, schedule in sweep:
        flops = np.asarray(flops_per_pe, dtype=np.float64)
        f_max = float(flops.max()) if len(flops) else 0.0
        q = float(schedule.q_max)
        for b in breakdowns:
            rows.append([float(schedule.b_max), float(schedule.c_max), q * q])
            targets.append(float(b.t_comm))
            if f_max > 0:
                comp_rows.append(b.t_comp / f_max)
    if not rows:
        raise ValueError("need at least one measured superstep to fit")
    design = np.asarray(rows, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    tf = max(float(np.mean(comp_rows)) if comp_rows else 0.0, 1e-15)

    def _solve(columns: np.ndarray) -> np.ndarray:
        coef, *_ = np.linalg.lstsq(columns, y, rcond=None)
        return np.maximum(coef, 0.0)

    uniform_coef = _solve(design[:, :2])
    uniform_residual = _rms(y - design[:, :2] @ uniform_coef)
    contended_coef = _solve(design)
    contended_residual = _rms(y - design @ contended_coef)
    if contended_residual > uniform_residual:
        contended_coef = np.append(uniform_coef, 0.0)
        contended_residual = uniform_residual
    uniform = Machine(
        name=f"{name}-uniform",
        tf=tf,
        tl=float(uniform_coef[0]),
        tw=float(uniform_coef[1]),
    )
    contended = Machine(
        name=name,
        tf=tf,
        tl=float(contended_coef[0]),
        tw=float(contended_coef[1]),
        tq=float(contended_coef[2]),
    )
    return ContentionFit(
        machine=contended,
        uniform_machine=uniform,
        uniform_residual=uniform_residual,
        contended_residual=contended_residual,
        samples=len(rows),
    )
