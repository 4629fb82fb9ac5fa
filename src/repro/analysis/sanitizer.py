"""The superstep sanitizer (``REPRO_SAN=1``): dynamic BSP race detection.

The static rules in :mod:`repro.analysis.ownership` catch discipline
violations visible in the source; this module catches them in *running
code* — a backend that mutates its neighbour's input, output slots that
alias each other, an exchange that skips (or invents) a scheduled
message, a gather that reads ghost entries the exchange never filled,
an eviction that swaps the partition without rebuilding the ownership
map.

Mechanism: as an observer of the executor's superstep pipeline, the
sanitizer checks every access a phase makes against the ownership map
(``DataDistribution``) and the exchange schedule's happens-before
structure (``CommSchedule`` pair table), and logs it as a (pe, phase,
dof-set) record:

* **compute** — the phase runs on *tracked* views of the per-PE
  inputs: :class:`TrackedArray` is an ``np.ndarray`` subclass whose
  ``__getitem__``/``__setitem__`` append access records to a log
  shared across worker threads (CPython ``list.append`` is atomic
  under the GIL, so the threaded backend needs no extra locking).
  Writes to any input slot are input mutations; output slots sharing
  memory pairwise are racy write/write pairs.
* **exchange** — the checks read the index maps the exchange executes,
  the plan's message table: every message must match a scheduled
  ``(src, dst)`` message with exactly the scheduled dof set; scheduled
  messages the plan never sends leave stale ghosts; writes outside the
  scheduled incoming dof set are non-owner writes.
* **gather** — the checks read the gather map (``owner_pos``): each
  PE may read only the dofs it owns; reading a ghost dof is
  order-dependent (its value depends on exchange completeness) and is
  blamed exactly.

Findings carry exact ``(pe, step, phase, dof)`` blame.  Disabled
(``REPRO_SAN`` unset) nothing is attached — the only cost is one
``is None`` test per multiply, the same pattern as telemetry and
runtime contracts.

See DESIGN.md section 12 and the ``repro-san`` CLI.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "SanFinding",
    "SanitizerError",
    "SuperstepSanitizer",
    "TrackedArray",
    "sanitizer_enabled",
]

#: Cap on dofs listed per finding (full sets stay in the finding's data).
_BLAME_DOFS = 8


def sanitizer_enabled() -> bool:
    """Whether ``REPRO_SAN=1`` opts the process into sanitized runs."""
    return os.environ.get("REPRO_SAN", "") == "1"


@dataclass(frozen=True)
class SanFinding:
    """One detected BSP-discipline violation, with exact blame."""

    kind: str  # racy-write-write | non-owner-write | input-mutation |
    #            stale-ghost | ghost-read | unscheduled-exchange-write |
    #            duplicate-delivery | stale-ownership-map
    pe: int  # blamed PE slot (-1 = executor-wide)
    step: int
    phase: str  # compute | exchange | gather | superstep
    dofs: Tuple[int, ...]
    detail: str

    def format(self) -> str:
        shown = ",".join(str(d) for d in self.dofs[:_BLAME_DOFS])
        if len(self.dofs) > _BLAME_DOFS:
            shown += f",... ({len(self.dofs)} total)"
        where = f"pe {self.pe}" if self.pe >= 0 else "executor"
        head = f"step {self.step} {self.phase} {where}: {self.kind}"
        tail = f" [dofs {shown}]" if self.dofs else ""
        return f"{head}: {self.detail}{tail}"


class SanitizerError(RuntimeError):
    """Raised (strict mode) when a superstep ends with findings."""

    def __init__(self, findings: Sequence[SanFinding]) -> None:
        self.findings = list(findings)
        lines = "\n  ".join(f.format() for f in self.findings)
        super().__init__(
            f"repro-san: {len(self.findings)} finding(s)\n  {lines}"
        )


class _AccessLog:
    """Shared mutable log the tracked views append into.

    ``phase`` is flipped by the sanitizer between phases; worker
    threads only append, so no locking is needed under the GIL.
    """

    __slots__ = ("phase", "records")

    def __init__(self) -> None:
        self.phase = "compute"
        self.records: List[Tuple[int, str, str, np.ndarray]] = []


class TrackedArray(np.ndarray):
    """ndarray view recording indexed reads/writes with dof precision.

    Only views created via :meth:`wrap` record; any derived view or
    ufunc result has its tracking state reset by
    ``__array_finalize__``.  Values and memory are untouched — a
    tracked view is bit-identical to its base.
    """

    def __array_finalize__(self, obj) -> None:
        self._san_log = None
        self._san_pe = -1

    @classmethod
    def wrap(cls, arr: np.ndarray, log: _AccessLog, pe: int) -> "TrackedArray":
        view = np.asarray(arr).view(cls)
        view._san_log = log
        view._san_pe = pe
        return view

    def _dofs(self, idx) -> np.ndarray:
        flat = np.arange(self.size).reshape(self.shape)
        elems = np.atleast_1d(np.asarray(flat[idx])).ravel()
        if self.ndim == 2 and self.shape[1] > 0:
            # Block vectors are (ndofs, r): a dof is a *row*, and an
            # access to any column of a row touches that dof.
            return np.unique(elems // self.shape[1])
        return elems

    def __getitem__(self, idx):
        log = self._san_log
        if log is not None:
            log.records.append(
                (self._san_pe, "r", log.phase, self._dofs(idx))
            )
        return super().__getitem__(idx)

    def __setitem__(self, idx, value) -> None:
        log = self._san_log
        if log is not None:
            log.records.append(
                (self._san_pe, "w", log.phase, self._dofs(idx))
            )
        super().__setitem__(idx, value)


def _union(chunks: List[np.ndarray]) -> np.ndarray:
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(chunks).astype(np.int64))


def _overlap_dofs(a: np.ndarray, b: np.ndarray) -> Tuple[int, ...]:
    """Dofs of ``a`` (its local numbering) whose memory ``b`` also maps.

    Exact for C-contiguous buffers (the per-PE vector layout, 1-D, or
    the block layout, (ndofs, r) with a dof per *row*); falls back to
    "unknown" (empty) otherwise — ``shares_memory`` has already
    established the race either way.
    """
    if not (a.flags.c_contiguous and b.flags.c_contiguous):
        return ()
    a0 = a.__array_interface__["data"][0]
    b0 = b.__array_interface__["data"][0]
    lo = max(a0, b0)
    hi = min(a0 + a.nbytes, b0 + b.nbytes)
    if lo >= hi or a.itemsize == 0:
        return ()
    start = (lo - a0) // a.itemsize
    stop = (hi - a0 + a.itemsize - 1) // a.itemsize
    if a.ndim == 2 and a.shape[1] > 0:
        width = a.shape[1]
        start, stop = start // width, (stop + width - 1) // width
    return tuple(range(int(start), int(stop)))


class SuperstepSanitizer:
    """Checks one executor's supersteps against ownership + schedule.

    Built by :class:`~repro.smvp.executor.DistributedSMVP` from its
    own distribution-derived maps:

    ``owned_dofs[pe]``
        Local dof indices PE ``pe`` owns (the gather source map) —
        everything else in the slot is a ghost.
    ``expected_sends[(src, dst)]``
        The dst-local dofs the schedule says ``src`` contributes to
        ``dst`` in every exchange (from ``CommSchedule.pairs``).
    ``ownership_hash``
        The bound :class:`DataDistribution`'s hash; ``begin_step``
        re-checks it so any reconfiguration that swaps the
        distribution without rebuilding the sanitizer is flagged
        (eviction atomicity).

    ``layout`` (set by :meth:`for_layout`) is the executor's
    :class:`~repro.smvp.layout.SuperstepLayout`: the gather check reads
    its ``owner_pos`` as it stands when the gather has run.

    ``strict=True`` raises :class:`SanitizerError` at the end of any
    superstep that produced findings; ``strict=False`` accumulates
    them for an end-of-run report (the ``repro-san`` CLI).
    """

    def __init__(
        self,
        num_parts: int,
        local_sizes: Sequence[int],
        owned_dofs: Sequence[np.ndarray],
        expected_sends: Dict[Tuple[int, int], np.ndarray],
        ownership_hash: int,
        strict: bool = True,
    ) -> None:
        self.num_parts = int(num_parts)
        self.local_sizes = [int(n) for n in local_sizes]
        self.owned_dofs = [
            np.unique(np.asarray(d, dtype=np.int64)) for d in owned_dofs
        ]
        self.expected_sends = {
            key: np.unique(np.asarray(d, dtype=np.int64))
            for key, d in expected_sends.items()
        }
        self.ownership_hash = int(ownership_hash)
        self.strict = strict
        self.findings: List[SanFinding] = []
        #: (pe, step, phase, kind) -> number of recorded accesses.
        self.access_counts: Dict[Tuple[int, int, str, str], int] = {}
        self.steps_checked = 0
        self._log = _AccessLog()
        self._step = -1
        self._step_start = 0  # findings index at begin_step
        self.layout = None

    @classmethod
    def for_layout(cls, layout) -> "SuperstepSanitizer":
        """A sanitizer bound to an executor's index maps
        (:class:`repro.smvp.layout.SuperstepLayout`); expected sends
        come from its schedule, not the pair-table copy it compiles."""
        expected: Dict[Tuple[int, int], np.ndarray] = {}
        for a, b, dof_a, dof_b in layout.schedule.pairs:
            expected[(a, b)] = dof_b
            expected[(b, a)] = dof_a
        sanitizer = cls(
            num_parts=len(layout.dof_rows),
            local_sizes=[rows.size for rows in layout.dof_rows],
            owned_dofs=layout.gather_src,
            expected_sends=expected,
            ownership_hash=layout.distribution.ownership_hash,
        )
        sanitizer.layout = layout
        return sanitizer

    # -- the superstep pipeline's observer hooks ---------------------------
    # (see DistributedSMVP: each returns the per-PE arrays the pipeline
    # continues with — tracked input views, same memory, same bits)

    def begin(self, step: int, x_global: np.ndarray, distribution) -> None:
        self.begin_step(step, distribution)

    def after_scatter(self, x_locals):
        tracked = self.wrap(x_locals)
        self.set_phase("compute")
        return tracked

    def after_compute(self, x_locals, y_locals):
        self.check_compute(y_locals)
        self.set_phase("exchange")
        return y_locals

    def after_exchange(self, x_locals, messages, y_locals):
        self.check_exchange(messages)
        self.set_phase("gather")
        return y_locals

    def after_gather(self, y_locals):
        self.check_gather(self.layout.owner_pos, self.layout.offsets)
        return y_locals

    def end(self, ok: bool) -> None:
        if ok:  # a superstep that raised is retried, not tallied
            self.end_step()

    # -- lifecycle ---------------------------------------------------------

    def adopt(self, predecessor: "SuperstepSanitizer") -> None:
        """Continue a predecessor's report across a reconfiguration.

        The findings list, access tallies, and strictness are shared
        (not copied) so a post-eviction executor keeps appending to
        the same run-level report — mirroring how SDC history survives
        eviction.
        """
        self.findings = predecessor.findings
        self.access_counts = predecessor.access_counts
        self.steps_checked = predecessor.steps_checked
        self.strict = predecessor.strict

    def begin_step(self, step: int, distribution) -> None:
        """Open a superstep; re-verify the bound ownership map."""
        self._step = int(step)
        self._step_start = len(self.findings)
        self._log = _AccessLog()
        self._log.phase = "compute"
        current = int(distribution.ownership_hash)
        if current != self.ownership_hash:
            self._emit(
                "stale-ownership-map",
                -1,
                "superstep",
                (),
                f"executor distribution hash {current:#010x} does not "
                f"match the sanitizer's bound ownership map "
                f"{self.ownership_hash:#010x}; a reconfiguration swapped "
                "the distribution without rebuilding the sanitizer",
            )

    def wrap(self, arrays: Sequence[np.ndarray]) -> List[TrackedArray]:
        return [
            TrackedArray.wrap(arr, self._log, pe)
            for pe, arr in enumerate(arrays)
        ]

    def set_phase(self, phase: str) -> None:
        self._log.phase = phase

    # -- per-phase checks --------------------------------------------------

    def check_compute(self, y_locals: Sequence[np.ndarray]) -> None:
        """Post-compute: no input mutations, no aliased output slots."""
        writes: Dict[int, List[np.ndarray]] = {}
        for pe, kind, phase, dofs in self._log.records:
            if phase == "compute" and kind == "w":
                writes.setdefault(pe, []).append(dofs)
        for pe in sorted(writes):
            dofs = _union(writes[pe])
            self._emit(
                "input-mutation",
                pe,
                "compute",
                tuple(int(d) for d in dofs),
                f"input slot x[{pe}] was written during the compute "
                "phase; inputs are frozen after scatter",
            )
        for a in range(len(y_locals)):
            ya = np.asarray(y_locals[a])
            if ya.shape != (self.local_sizes[a],) and not (
                ya.ndim == 2 and ya.shape[0] == self.local_sizes[a]
            ):
                self._emit(
                    "non-owner-write",
                    a,
                    "compute",
                    (),
                    f"output slot y[{a}] has shape {ya.shape}, expected "
                    f"({self.local_sizes[a]},) or "
                    f"({self.local_sizes[a]}, r)",
                )
            for b in range(a + 1, len(y_locals)):
                yb = np.asarray(y_locals[b])
                if np.shares_memory(ya, yb):
                    self._emit(
                        "racy-write-write",
                        a,
                        "compute",
                        _overlap_dofs(ya, yb),
                        f"output slots y[{a}] and y[{b}] share memory; "
                        "concurrent per-PE products would race",
                    )

    def check_exchange(self, messages: Sequence) -> None:
        """Post-exchange: the executed messages (anything with ``src``,
        ``dst`` and ``dof_dst``) must equal the schedule exactly.

        Each message's accesses are logged: the rounds' ``+=`` reads
        and writes the receiver's ``dof_dst``; the snapshot read the
        sender's copies of the same shared nodes, which are what the
        reverse message delivers (the plan sends every pair both ways).
        """
        seen: Dict[Tuple[int, int], int] = {}
        into: Dict[Tuple[int, int], np.ndarray] = {}
        records = self._log.records
        for msg in messages:
            key = (int(msg.src), int(msg.dst))
            seen[key] = seen.get(key, 0) + 1
            dofs = np.unique(np.asarray(msg.dof_dst, dtype=np.int64))
            into[key] = dofs
            records.append((key[1], "r", "exchange", dofs))
            records.append((key[1], "w", "exchange", dofs))
            expected = self.expected_sends.get(key)
            if expected is None:
                self._emit(
                    "unscheduled-exchange-write",
                    key[0],
                    "exchange",
                    tuple(int(d) for d in dofs),
                    f"delivery {key[0]}->{key[1]} is not in the "
                    "communication schedule",
                )
            elif not np.array_equal(dofs, expected):
                extra = np.setdiff1d(dofs, expected)
                self._emit(
                    "unscheduled-exchange-write",
                    key[0],
                    "exchange",
                    tuple(int(d) for d in (extra if extra.size else dofs)),
                    f"delivery {key[0]}->{key[1]} touches dofs outside "
                    "its scheduled shared-node set",
                )
        for key, count in sorted(seen.items()):
            if count > 1 and key in self.expected_sends:
                self._emit(
                    "duplicate-delivery",
                    key[1],
                    "exchange",
                    tuple(int(d) for d in self.expected_sends[key]),
                    f"scheduled delivery {key[0]}->{key[1]} was applied "
                    f"{count} times; shared partials were double-summed",
                )
        for src, dst in sorted(into):
            if (dst, src) in into:
                records.append((src, "r", "exchange", into[(dst, src)]))
        for key in sorted(self.expected_sends):
            if key not in seen:
                self._emit(
                    "stale-ghost",
                    key[1],
                    "exchange",
                    tuple(int(d) for d in self.expected_sends[key]),
                    f"scheduled delivery {key[0]}->{key[1]} never "
                    "arrived; the receiver's shared dofs hold stale "
                    "partial sums",
                )
        # Every exchange-phase write — the messages' and any made
        # through a tracked view — must stay inside the scheduled
        # incoming dof set.
        incoming: Dict[int, List[np.ndarray]] = {}
        for (_src, dst), dofs in self.expected_sends.items():
            incoming.setdefault(dst, []).append(dofs)
        writes: Dict[int, List[np.ndarray]] = {}
        for pe, kind, phase, dofs in self._log.records:
            if phase == "exchange" and kind == "w":
                writes.setdefault(pe, []).append(dofs)
        for pe in sorted(writes):
            wrote = _union(writes[pe])
            allowed = _union(incoming.get(pe, []))
            extra = np.setdiff1d(wrote, allowed)
            if extra.size:
                self._emit(
                    "non-owner-write",
                    pe,
                    "exchange",
                    tuple(int(d) for d in extra),
                    f"exchange-phase write into y[{pe}] outside the "
                    "scheduled incoming shared dofs",
                )

    def check_gather(self, owner_pos: np.ndarray, offsets: np.ndarray) -> None:
        """Post-gather: each PE contributed only the dofs it owns.

        ``owner_pos`` is the gather map (the buffer position each
        global dof was read from), ``offsets`` the buffer's per-PE
        slice starts; each PE's reads are logged."""
        pe_of = np.searchsorted(offsets, owner_pos, side="right") - 1
        local = owner_pos - offsets[pe_of]
        for pe in range(self.num_parts):
            read = np.unique(local[pe_of == pe])
            self._log.records.append((pe, "r", "gather", read))
            extra = np.setdiff1d(read, self.owned_dofs[pe])
            if extra.size:
                self._emit(
                    "ghost-read",
                    pe,
                    "gather",
                    tuple(int(d) for d in extra),
                    f"gather read ghost dofs of y[{pe}] it does not "
                    "own; the committed value depends on exchange "
                    "completeness and summation order",
                )

    def end_step(self) -> None:
        """Close the superstep: tally accesses, raise when strict."""
        for pe, kind, phase, dofs in self._log.records:
            key = (pe, self._step, phase, kind)
            self.access_counts[key] = self.access_counts.get(key, 0) + len(
                dofs
            )
        self.steps_checked += 1
        new = self.findings[self._step_start :]
        if new and self.strict:
            raise SanitizerError(new)

    # -- reporting ---------------------------------------------------------

    def _emit(
        self, kind: str, pe: int, phase: str, dofs: Tuple[int, ...], detail: str
    ) -> None:
        self.findings.append(
            SanFinding(
                kind=kind,
                pe=pe,
                step=self._step,
                phase=phase,
                dofs=dofs,
                detail=detail,
            )
        )

    def summary(self) -> Dict[str, object]:
        by_kind: Dict[str, int] = {}
        for finding in self.findings:
            by_kind[finding.kind] = by_kind.get(finding.kind, 0) + 1
        return {
            "steps_checked": self.steps_checked,
            "findings": len(self.findings),
            "by_kind": dict(sorted(by_kind.items())),
            "reads_tracked": sum(
                n for (_, _, _, k), n in self.access_counts.items() if k == "r"
            ),
            "writes_tracked": sum(
                n for (_, _, _, k), n in self.access_counts.items() if k == "w"
            ),
        }

    def render_report(self) -> str:
        """Human-readable end-of-run report (the ``repro-san`` CLI)."""
        lines = []
        for finding in self.findings:
            lines.append(finding.format())
        stats = self.summary()
        lines.append(
            f"repro-san: {stats['findings']} finding(s) over "
            f"{stats['steps_checked']} superstep(s); tracked "
            f"{stats['reads_tracked']} read / "
            f"{stats['writes_tracked']} write dof accesses"
        )
        return "\n".join(lines) + "\n"
