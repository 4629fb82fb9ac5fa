"""Per-PE span recording for the critical-path profiler.

A *span* is one timed interval inside a superstep: a PE's local
product, a message on the wire, an ABFT check window, a recovery
recompute.  The executor records spans only when constructed with
``profile=True`` — the default path stays clock-free and bit-identical,
exactly like ``trace_sink=None``.

Span times are stored **relative to the superstep's own start** (the
``t0`` of the emitting ``multiply``), so a :class:`SuperstepSpans`
payload is self-contained: the host windows with ``pe == -1`` tile
``[0, t_smvp]`` with no gaps (consecutive reads of the same monotonic
clock), which is what makes the critical-path identity in
:mod:`repro.profile.critical_path` exact by construction.

Two span families share the container:

* **host windows** (``pe == -1``): the orchestration phases as the
  foreground thread saw them — ``scatter`` / ``compute`` / ``exchange``
  / ``gather``, plus a ``verify`` window after each phase whenever a
  checking observer (ABFT, sanitizer) is attached.  They partition the
  superstep.
* **per-PE spans** (``pe >= 0``): one ``compute`` span per PE, one
  ``wire`` span per message of the exchange plan (``pe`` = source,
  ``dst`` = destination, ``words`` = payload size; the message's
  snapshot, and its fault protocol when an injector is attached), and
  ``recovery`` spans for ABFT recomputes.  They nest inside the host
  windows — ``wire`` inside ``exchange``.

This module deliberately imports nothing from :mod:`repro.smvp` or
:mod:`repro.telemetry` so the trace dataclass can carry a
:class:`SuperstepSpans` without an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.util.clock import now

#: ``pe`` value marking a host (orchestration) window.
HOST = -1

#: Host window kind -> the trace time its seconds add to: the one rule
#: from windows to ``SuperstepTrace`` fields.
WINDOW_FIELD = {
    "scatter": "t_scatter",
    "compute": "t_comp",
    "exchange": "t_comm",
    "verify": "t_verify",
    "gather": "t_gather",
}

#: Host window kinds, in the order the superstep emits them.
HOST_KINDS = tuple(WINDOW_FIELD)

#: Per-PE span kinds.
PE_KINDS = ("compute", "recovery", "wire")


@dataclass(frozen=True)
class PeSpan:
    """One timed interval, relative to the superstep start (seconds)."""

    kind: str
    pe: int  # -1 = host orchestration window
    t_start: float
    t_end: float
    words: int = 0  # wire spans: payload words shipped
    dst: int = -1  # wire spans: destination PE

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def overlap(self, t_start: float, t_end: float) -> float:
        """Seconds of this span inside ``[t_start, t_end]`` (>= 0)."""
        return max(
            0.0, min(self.t_end, t_end) - max(self.t_start, t_start)
        )

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "pe": self.pe,
            "t_start": self.t_start,
            "t_end": self.t_end,
        }
        if self.words:
            out["words"] = self.words
        if self.dst >= 0:
            out["dst"] = self.dst
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "PeSpan":
        return cls(
            kind=data["kind"],
            pe=int(data["pe"]),
            t_start=float(data["t_start"]),
            t_end=float(data["t_end"]),
            words=int(data.get("words", 0)),
            dst=int(data.get("dst", -1)),
        )


@dataclass(frozen=True)
class SuperstepSpans:
    """All spans of one superstep, sorted by start time."""

    spans: Tuple[PeSpan, ...]

    def __iter__(self):
        return iter(self.spans)

    def __len__(self) -> int:
        return len(self.spans)

    def host_windows(self) -> List[PeSpan]:
        """The orchestration windows, in time order (they tile
        ``[0, t_smvp]``)."""
        return [s for s in self.spans if s.pe == HOST]

    def by_kind(
        self, kind: str, host: Optional[bool] = None
    ) -> List[PeSpan]:
        out = []
        for s in self.spans:
            if s.kind != kind:
                continue
            if host is True and s.pe != HOST:
                continue
            if host is False and s.pe == HOST:
                continue
            out.append(s)
        return out

    def total(self, kind: str, host: Optional[bool] = None) -> float:
        return sum(s.duration for s in self.by_kind(kind, host=host))

    def to_dict(self) -> List[dict]:
        return [s.to_dict() for s in self.spans]

    @classmethod
    def from_dict(cls, records: Iterable[dict]) -> "SuperstepSpans":
        return cls(tuple(PeSpan.from_dict(r) for r in records))


class SpanRecorder:
    """Collects absolute-time spans during one superstep.

    ``add`` takes *absolute* clock readings (``repro.util.clock.now``);
    ``finish(origin)`` rebases everything to the superstep start and
    returns the frozen, sorted :class:`SuperstepSpans`.

    Thread safety: ``list.append`` is atomic under the GIL, so the
    threaded backend's workers may record concurrently without a lock;
    ``start`` installs a *fresh* list so a straggling append to a
    previous superstep's list can never leak into the current one.
    """

    def __init__(self) -> None:
        self._spans: List[Tuple[str, int, float, float, int, int]] = []

    def start(self) -> None:
        """Begin a new superstep's recording."""
        self._spans = []

    def add(
        self,
        kind: str,
        pe: int,
        t_start: float,
        t_end: float,
        words: int = 0,
        dst: int = -1,
    ) -> None:
        self._spans.append((kind, pe, t_start, t_end, words, dst))

    def timed(self, kind: str, pe: int, fn, *args):
        """``fn(*args)`` with a ``kind`` span for ``pe`` around it."""
        t_start = now()
        result = fn(*args)
        self.add(kind, pe, t_start, now())
        return result

    def finish(self, origin: float) -> SuperstepSpans:
        """Rebase to ``origin`` and freeze the recording."""
        spans = [
            PeSpan(
                kind=kind,
                pe=pe,
                t_start=t_start - origin,
                t_end=t_end - origin,
                words=words,
                dst=dst,
            )
            for kind, pe, t_start, t_end, words, dst in self._spans
        ]
        spans.sort(key=lambda s: (s.t_start, s.pe, s.kind))
        return SuperstepSpans(tuple(spans))

