"""Per-superstep instrumentation records.

One superstep = one distributed SMVP: a compute phase (local products)
and a communication phase (pairwise exchange-and-sum).  Both the *real*
executor (:class:`~repro.smvp.executor.DistributedSMVP`) and the BSP
*simulator* (:class:`~repro.simulate.bsp.BspSimulator`) describe a
superstep by the same three numbers — compute time, communication
time, total — so the shared fields live here, in one dataclass, and
each side extends it with what only it knows:

* :class:`PhaseBreakdown` — the common core (t_comp / t_comm / t_smvp
  plus the paper's efficiency definition).
* :class:`SuperstepTrace` — emitted by the executor: measured wall
  times per phase (via :mod:`repro.util.clock`), per-PE traffic, fault
  stats, and which kernel/backend ran it.
* ``PhaseTimes`` (in :mod:`repro.simulate.bsp`) — the simulator's
  modeled times, extending the same core.

* :class:`PhaseClock` — turns the clock marks the executor's one
  superstep pipeline reads into host windows, and is the only site that
  builds a :class:`SuperstepTrace` from measurements.

A *trace sink* is any callable ``(SuperstepTrace) -> None``; attach one
to the executor (``trace_sink=``) or pass it through the time stepper's
``run(..., trace_sink=...)``.  :class:`TraceLog` is the standard sink:
it collects traces and renders the per-step table / JSON behind the
``repro-trace`` CLI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.faults.detection import FaultStats
from repro.profile.spans import (
    HOST,
    WINDOW_FIELD,
    SpanRecorder,
    SuperstepSpans,
)

#: Current trace-log JSON schema.  Version 2 added ``schema_version``
#: itself, the ``rhs`` field (PR 8), and the optional ``pe_spans``
#: profiler payload; readers accept 1 and 2 and reject anything newer
#: with a clear error.
TRACE_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class PhaseBreakdown:
    """Shared timing core of one superstep (measured or modeled)."""

    t_comp: float  # computation-phase time (seconds)
    t_comm: float  # communication-phase time (seconds)
    t_smvp: float  # total superstep time (seconds)

    @property
    def efficiency(self) -> float:
        """T_comp / T_smvp, the paper's efficiency definition."""
        return self.t_comp / self.t_smvp if self.t_smvp > 0 else 1.0


@dataclass(frozen=True)
class SuperstepTrace(PhaseBreakdown):
    """Measured record of one executed superstep.

    Wall times come from :mod:`repro.util.clock`; traffic counts are
    the executor's actual words/blocks (retransmits included when a
    fault injector is active).  ``t_smvp`` covers the full scatter /
    compute / exchange / gather cycle, so ``t_smvp >= t_scatter +
    t_comp + t_comm + t_gather`` up to clock resolution.
    """

    step: int
    kernel: str
    backend: str
    t_scatter: float
    t_gather: float
    words_sent: np.ndarray  # per PE, this superstep
    blocks_sent: np.ndarray  # per PE, this superstep
    faults: Optional[FaultStats] = None  # None on the fault-free path
    t_verify: float = 0.0  # ABFT check/heal time (0.0 when disabled)
    rhs: int = 1  # right-hand-side columns per superstep (block width)
    #: Profiler span payload (``profile=True`` only); ``None`` keeps
    #: the trace byte-identical to the unprofiled schema.
    pe_spans: Optional[SuperstepSpans] = None

    @property
    def total_words(self) -> int:
        return int(self.words_sent.sum())

    @property
    def total_blocks(self) -> int:
        return int(self.blocks_sent.sum())

    def to_dict(self) -> dict:
        """JSON-ready representation (arrays become lists)."""
        out = {
            "step": self.step,
            "kernel": self.kernel,
            "backend": self.backend,
            "t_scatter": self.t_scatter,
            "t_comp": self.t_comp,
            "t_comm": self.t_comm,
            "t_gather": self.t_gather,
            "t_smvp": self.t_smvp,
            "t_verify": self.t_verify,
            "rhs": self.rhs,
            "words_sent": [int(w) for w in self.words_sent],
            "blocks_sent": [int(b) for b in self.blocks_sent],
        }
        if self.faults is not None:
            out["faults"] = {
                name: getattr(self.faults, name)
                for name in self.faults.__dataclass_fields__
            }
        if self.pe_spans is not None:
            out["pe_spans"] = self.pe_spans.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SuperstepTrace":
        """Inverse of :meth:`to_dict` (lists become arrays again)."""
        faults = None
        if "faults" in data and data["faults"] is not None:
            # A counter an older log carries and this version retired
            # (``repaired_blocks``) is dropped.
            known = FaultStats.__dataclass_fields__
            faults = FaultStats(
                **{k: v for k, v in data["faults"].items() if k in known}
            )
        pe_spans = None
        if data.get("pe_spans") is not None:
            pe_spans = SuperstepSpans.from_dict(data["pe_spans"])
        return cls(
            step=int(data["step"]),
            kernel=data["kernel"],
            backend=data["backend"],
            t_scatter=float(data["t_scatter"]),
            t_comp=float(data["t_comp"]),
            t_comm=float(data["t_comm"]),
            t_gather=float(data["t_gather"]),
            t_smvp=float(data["t_smvp"]),
            t_verify=float(data.get("t_verify", 0.0)),
            rhs=int(data.get("rhs", 1)),
            words_sent=np.asarray(data["words_sent"], dtype=np.int64),
            blocks_sent=np.asarray(data["blocks_sent"], dtype=np.int64),
            faults=faults,
            pe_spans=pe_spans,
        )


#: Anything that accepts a trace is a sink.
TraceSink = Callable[[SuperstepTrace], None]


class PhaseClock:
    """Consecutive clock marks -> host windows -> one trace.

    The executor's pipeline reads the clock at fixed points and hands
    each reading here, labelled with the phase that just ended; each
    window's seconds add to one trace time (``WINDOW_FIELD``).  With
    ``profile``, a ``recorder`` also gets every window as a host span
    and contributes the per-PE / wire spans it collected.
    """

    def __init__(self, kernel: str, backend: str, profile: bool = False) -> None:
        self.kernel = kernel
        self.backend = backend
        self.recorder = SpanRecorder() if profile else None
        self._t0 = 0.0
        self._marks: List[tuple] = []

    def begin(self, t0: float) -> None:
        """Open a superstep at clock reading ``t0``."""
        self._t0 = t0
        self._marks = []
        if self.recorder is not None:
            self.recorder.start()

    def mark(self, kind: str, t: float) -> None:
        """Close the ``kind`` window at clock reading ``t``."""
        self._marks.append((kind, t))

    def emit(
        self, sink: TraceSink, step: int, rhs: int, record, sdc: FaultStats
    ) -> None:
        """Build the superstep's trace from the marks; hand it to ``sink``.

        ``record`` is the exchange's record; ``sdc`` the superstep's
        SDC/ABFT tally, merged into its fault stats when nonzero.
        """
        faults = record.faults
        if sdc != FaultStats():
            faults = sdc if faults is None else faults.merge(sdc)
        times = dict.fromkeys(WINDOW_FIELD.values(), 0.0)
        rec = self.recorder
        t_prev = self._t0
        for kind, t in self._marks:
            times[WINDOW_FIELD[kind]] += t - t_prev
            if rec is not None:
                rec.add(kind, HOST, t_prev, t)
            t_prev = t
        sink(
            SuperstepTrace(
                t_smvp=t_prev - self._t0,
                step=step,
                kernel=self.kernel,
                backend=self.backend,
                words_sent=record.words_sent,
                blocks_sent=record.blocks_sent,
                faults=faults,
                rhs=rhs,
                pe_spans=None if rec is None else rec.finish(self._t0),
                **times,
            )
        )


class TraceLog:
    """The standard trace sink: collect, summarize, render.

    >>> log = TraceLog()
    >>> smvp = DistributedSMVP(..., trace_sink=log)
    >>> stepper.run(100)
    >>> print(log.render_table())
    """

    def __init__(self) -> None:
        self.traces: List[SuperstepTrace] = []

    def __call__(self, trace: SuperstepTrace) -> None:
        self.traces.append(trace)

    def __len__(self) -> int:
        return len(self.traces)

    def summary(self) -> dict:
        """Aggregate totals over all recorded supersteps."""
        n = len(self.traces)
        if n == 0:
            return {"steps": 0}
        faults = None
        for t in self.traces:
            if t.faults is not None:
                faults = t.faults if faults is None else faults.merge(t.faults)
        out = {
            "steps": n,
            "kernel": self.traces[-1].kernel,
            "backend": self.traces[-1].backend,
            "t_comp_total": float(sum(t.t_comp for t in self.traces)),
            "t_comm_total": float(sum(t.t_comm for t in self.traces)),
            "t_smvp_total": float(sum(t.t_smvp for t in self.traces)),
            "t_verify_total": float(sum(t.t_verify for t in self.traces)),
            "words_total": sum(t.total_words for t in self.traces),
            "blocks_total": sum(t.total_blocks for t in self.traces),
        }
        if faults is not None:
            out["faults"] = {
                name: getattr(faults, name)
                for name in faults.__dataclass_fields__
            }
        return out

    def render_table(self) -> str:
        """Fixed-width per-step table plus a totals row."""
        header = (
            f"{'step':>5} {'backend':<13} {'kernel':<16} "
            f"{'t_comp ms':>10} {'t_comm ms':>10} {'t_smvp ms':>10} "
            f"{'eff':>5} {'words':>9} {'blocks':>7} {'faults':>7}"
        )
        lines = [header, "-" * len(header)]
        for t in self.traces:
            n_faults = (
                "-"
                if t.faults is None
                else str(
                    t.faults.injected_drops
                    + t.faults.injected_corruptions
                    + t.faults.injected_duplicates
                )
            )
            lines.append(
                f"{t.step:>5} {t.backend:<13} {t.kernel:<16} "
                f"{1e3 * t.t_comp:>10.3f} {1e3 * t.t_comm:>10.3f} "
                f"{1e3 * t.t_smvp:>10.3f} {t.efficiency:>5.2f} "
                f"{t.total_words:>9} {t.total_blocks:>7} {n_faults:>7}"
            )
        s = self.summary()
        if self.traces:
            lines.append("-" * len(header))
            lines.append(
                f"{'total':>5} {s['backend']:<13} {s['kernel']:<16} "
                f"{1e3 * s['t_comp_total']:>10.3f} "
                f"{1e3 * s['t_comm_total']:>10.3f} "
                f"{1e3 * s['t_smvp_total']:>10.3f} {'':>5} "
                f"{s['words_total']:>9} {s['blocks_total']:>7}"
            )
        return "\n".join(lines)

    def render_json(self) -> str:
        """Machine-readable report: per-step records plus the summary."""
        return json.dumps(
            {
                "version": 1,
                "schema_version": TRACE_SCHEMA_VERSION,
                "summary": self.summary(),
                "supersteps": [t.to_dict() for t in self.traces],
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "TraceLog":
        """Rebuild a log from :meth:`render_json` output.

        Accepts ``schema_version`` 1 and 2; payloads without one fall
        back to the legacy ``version`` key (which was always 1).
        Anything newer is rejected — a future writer's fields would be
        silently dropped otherwise.
        """
        payload = json.loads(text)
        schema = payload.get("schema_version")
        if schema is not None:
            if schema not in (1, TRACE_SCHEMA_VERSION):
                raise ValueError(
                    f"unsupported trace log version {schema!r} "
                    f"(expected <= {TRACE_SCHEMA_VERSION})"
                )
        else:
            version = payload.get("version")
            if version != 1:
                raise ValueError(
                    f"unsupported trace log version {version!r} "
                    f"(expected 1)"
                )
        log = cls()
        for record in payload.get("supersteps", []):
            log(SuperstepTrace.from_dict(record))
        return log
