"""Algorithm-based fault tolerance (ABFT) for the superstep engine.

The exchange middleware's CRC-32 protects blocks *in flight*; a bit
that flips in a PE's arithmetic — its kernel product y — is invisible
to it.  This module adds the classic Huang-Abraham checksum defense,
adapted to the paper's replicated-shared-node SMVP:

* At setup, for each PE precompute the **checksum row**
  ``w_i = c^T K_i`` with ``c = 1`` (the column sums of the local block)
  and its absolute companion ``w_abs_i = c^T |K_i|``.  Both are
  O(nnz_i), once.
* Every superstep, the invariant ``c^T y_i = w_i . x_i`` is checked in
  O(n_i): two dot products against work that cost O(nnz_i).  A
  mismatch localizes the corruption to *that PE's compute phase*,
  which one recompute of its product heals.
* After the exchange, ``sum(y_i^post) = sum(y_i^pre) + sum(incoming
  payloads to i)`` re-checks each PE in O(n_i + words_i).  It is a
  detector only: a failure blames *that PE's exchange phase* and the
  superstep is retried whole.

**Tolerance derivation.**  Both sides of the compute invariant are
n_i-term float64 sums, so their difference is bounded by the standard
worst-case rounding envelope ``gamma_n * S`` with ``gamma_n ≈ n *
eps`` and ``S = w_abs_i . |x_i|`` (which also bounds ``sum |y_i|``,
since ``|y_j| <= sum_k |K_jk| |x_k|``).  The checker uses

``tol_i = tol_factor * eps * (n_i + nnz_i/n_i) * (w_abs_i . |x_i|)``

— the extra ``nnz_i/n_i`` term covers the rounding already baked into
``w_i`` itself.  The injector (:meth:`repro.faults.FaultInjector.
sdc_site`) flips only exponent/sign bits of words within three decades
of the array's peak magnitude, so an injected flip perturbs the
checksum by at least ``peak / 2048`` — orders of magnitude above
``tol_i`` for any mesh this repo builds (the margin is ~75x even in
the degenerate flat-magnitude worst case; see DESIGN.md §11).  Flips
*below* the rounding envelope are numerically indistinguishable from
legitimate rounding and are excluded from the fault model by
construction.

The checks read only what the superstep body hands them — each PE's
read-only x slice, its product and the exchange's messages — so they
run the same on global vectors and on a time loop's resident buffers.
x itself is the caller's state and is not checked: a correct product
of a wrong input is self-consistent.  A wrong stiffness entry fails
every recompute of its PE and escalates like a sticky core; the
eviction that follows reassembles the survivors' blocks from the
element data.

:class:`SdcGuard` is where all of this meets the engine: a checking
observer of the executor's one superstep body that injects the
configured flips, runs the two checks after compute and after
exchange, heals a compute failure inline, and escalates with exact
blame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Callable, Iterable, List, NamedTuple, Optional, Sequence,
)

import numpy as np
import scipy.sparse as sp

from repro.faults.detection import FaultStats
from repro.faults.errors import SdcFaultError
from repro.faults.injector import FaultInjector
from repro.telemetry.registry import record_sdc_event

#: Default multiplier on the worst-case rounding envelope.
DEFAULT_TOL_FACTOR = 4.0

#: float64 machine epsilon.
_EPS = float(np.finfo(np.float64).eps)

# Site-stream salts keep the transient and sticky flip draws disjoint.
_SALT_OUTPUT = 3
_SALT_STICKY = 4

#: SDC lifecycle action -> the ``FaultStats`` counter it increments.
_COUNTED = {
    "injected": "injected_sdc",
    "detected": "detected_sdc",
    "recomputed": "recomputed_sdc",
}


@dataclass(frozen=True)
class SdcEvent:
    """One observed step of an SDC's lifecycle, for blame reporting.

    ``action`` is one of ``"injected"``, ``"detected"``,
    ``"recomputed"``, ``"escalated"``.  ``phase`` is ``"compute"`` or
    ``"exchange"``.  ``pe`` is the current slot id; ``physical_pe``
    survives eviction renumbering and is what chaos reports blame.
    """

    step: int
    pe: int
    physical_pe: int
    phase: str
    kind: str  # "flip-y" | "sticky"
    action: str
    detail: str = ""

    def blame_line(self) -> str:
        return (
            f"SDC {self.action}: superstep {self.step}, "
            f"PE {self.physical_pe} ({self.phase}, {self.kind})"
            + (f" — {self.detail}" if self.detail else "")
        )


class AbftCheck(NamedTuple):
    """Outcome of one checksum comparison.

    For a block product (n x r), ``checksum`` is the per-column
    observed sum array (r,), and ``error``/``tol`` report the column
    with the worst tolerance margin — the check fails if *any* column
    fails, so a single flipped bit in an arbitrary column is caught.
    """

    ok: bool
    error: float  # |observed - expected| (worst column for blocks)
    tol: float
    checksum: float  # sum(y) observed, reused by the exchange check


def _column_sums(matrix: sp.spmatrix) -> np.ndarray:
    return np.asarray(matrix.sum(axis=0)).ravel().astype(np.float64)


def _abs_matrix(matrix: sp.spmatrix) -> sp.spmatrix:
    out = matrix.copy()
    out.data = np.abs(out.data)
    return out


class AbftChecker:
    """Per-PE checksum rows and tolerance state for one distribution.

    Built once from the executor's authoritative local matrices, one
    PE at a time as they are assembled (:meth:`add`, so no PE's matrix
    has to outlive its own preparation); costs one O(nnz) pass per PE.
    The checker is backend-agnostic: it verifies whatever products the
    backend returns against the assembled blocks the backend was
    prepared from, so detection parity across backends is structural,
    not incidental.
    """

    def __init__(
        self,
        local_matrices: Iterable[sp.spmatrix] = (),
        tol_factor: float = DEFAULT_TOL_FACTOR,
    ) -> None:
        if tol_factor <= 0:
            raise ValueError("tol_factor must be positive")
        self.tol_factor = float(tol_factor)
        self.w: List[np.ndarray] = []
        self.w_abs: List[np.ndarray] = []
        self._terms: List[float] = []
        for matrix in local_matrices:
            self.add(matrix)

    def add(self, matrix: sp.spmatrix) -> None:
        """The next PE's checksum rows, from its local matrix."""
        self.w.append(_column_sums(matrix))
        self.w_abs.append(_column_sums(_abs_matrix(matrix)))
        n = max(1, matrix.shape[0])
        self._terms.append(float(n + matrix.nnz / n))

    @property
    def num_parts(self) -> int:
        return len(self.w)

    def _compare(
        self, observed, expected, scale, terms: float, blocked: bool
    ) -> AbftCheck:
        """``observed`` vs ``expected`` inside the rounding envelope
        ``tol_factor * eps * terms * scale`` — scalars for a vector
        product, (r,) arrays (every column must pass) for a block."""
        tol = self.tol_factor * _EPS * terms * scale
        err = np.abs(observed - expected)
        ok = bool(np.all(np.isfinite(observed)) and np.all(err <= tol))
        if not blocked:
            return AbftCheck(ok, float(err), float(tol), float(observed))
        worst = int(np.argmax(err - tol))
        return AbftCheck(ok, float(err[worst]), float(tol[worst]), observed)

    def check_compute(
        self, pe: int, x: np.ndarray, y: np.ndarray
    ) -> AbftCheck:
        """Verify ``c^T y = w . x`` for one PE's local product.

        For an n x r block the invariant holds per column — expected
        ``w . X`` and observed ``Y.sum(axis=0)`` are (r,) vectors with
        per-column tolerances, and every column must pass.
        """
        return self._compare(
            y.sum(axis=0),
            self.w[pe] @ x,
            self.w_abs[pe] @ np.abs(x),
            self._terms[pe],
            y.ndim == 2,
        )

    def check_exchange(
        self,
        pe: int,
        y_post: np.ndarray,
        pre_checksum: float,
        incoming_sum: float,
        incoming_abs: float,
        incoming_terms: int,
        x: np.ndarray,
    ) -> AbftCheck:
        """Verify one PE's post-exchange partials against the incoming
        payload checksums of the exchange's messages.

        For blocks, ``pre_checksum``/``incoming_sum``/``incoming_abs``
        are per-column (r,) arrays and every column must pass.
        """
        return self._compare(
            y_post.sum(axis=0),
            pre_checksum + incoming_sum,
            self.w_abs[pe] @ np.abs(x) + np.abs(incoming_abs),
            self._terms[pe] + float(incoming_terms),
            y_post.ndim == 2,
        )


def verify_flops_per_pe(
    distribution, schedule=None
) -> np.ndarray:
    """Modeled per-PE flop cost of the ABFT checks, for ``T_verify``.

    Per superstep each PE pays two O(n_i) dot products plus one
    O(n_i) magnitude pass for the compute check, one O(n_i) re-sum for
    the exchange check (~ 4 flops per local dof with 3 dofs per node),
    and ~2 flops per incoming exchange word for the payload checksums.
    """
    nodes = distribution.local_counts["nodes"].astype(np.float64)
    flops = 4.0 * 3.0 * nodes
    if schedule is not None:
        flops = flops + 2.0 * np.asarray(
            schedule.words_per_pe, dtype=np.float64
        )
    return flops


class SdcGuard:
    """SDC injection and ABFT check / heal / escalate, as an observer.

    A verification point follows each phase of the superstep body: the
    checksum-row compute check after the local products, the
    payload-sum check after the exchange.  A compute failure is healed
    on the spot by one recompute of the PE's product (the committed
    bits equal a fault-free superstep's); a PE whose recompute fails
    too, or whose post-exchange partial fails, raises
    :class:`~repro.faults.SdcFaultError` *before* any executor or
    caller state changes hands, so the superstep is retryable by the
    resilience supervisor.

    ``stats`` / ``events`` are cumulative and shared (not copied) with
    reconfiguration successors through :meth:`adopt`; ``step_stats``
    is the in-flight superstep's tally.  ``checker`` is the executor's
    :class:`AbftChecker` (``None`` without ABFT) and
    ``recompute(pe, x)`` its one-PE product.
    """

    def __init__(
        self,
        checker: Optional[AbftChecker],
        pe_ids: Sequence[int],
        injector: Optional[FaultInjector],
        recompute: Callable[[int, np.ndarray], np.ndarray],
    ) -> None:
        self.pe_ids = [int(p) for p in pe_ids]  # physical ids, by slot
        self.num_parts = len(self.pe_ids)
        self._recompute = recompute
        self.checker = checker
        self.injector = (
            injector
            if injector is not None and injector.sdc_enabled
            else None
        )
        self.stats = FaultStats()
        self.events: List[SdcEvent] = []
        self.step_stats = FaultStats()
        self._step = 0
        self._pre: Optional[List[Any]] = None

    @property
    def active(self) -> bool:
        """Whether any multiply needs this guard attached at all."""
        return self.checker is not None or self.injector is not None

    def adopt(self, predecessor: "SdcGuard") -> None:
        """Continue a predecessor's SDC history across a
        reconfiguration: the history is shared, not copied."""
        self.stats = predecessor.stats
        self.events = predecessor.events

    def _note(
        self,
        pe: int,
        phase: str,
        kind: str,
        action: str,
        detail: str = "",
    ) -> None:
        """Log one step of an SDC's lifecycle and count it.

        The event and the counter its action maps to are recorded
        together, so the blame log and the tally cannot disagree.
        """
        counter = _COUNTED.get(action)
        if counter is not None:
            tally = self.step_stats
            setattr(tally, counter, getattr(tally, counter) + 1)
        event = SdcEvent(
            step=self._step,
            pe=pe,
            physical_pe=self.pe_ids[pe],
            phase=phase,
            kind=kind,
            action=action,
            detail=detail,
        )
        self.events.append(event)
        record_sdc_event(event)

    def _escalate(
        self, pe: int, phase: str, kind: str, detail: str, what: str
    ):
        """Inline recovery is exhausted: log it and raise with blame."""
        self._note(pe, phase, kind, "escalated", detail)
        raise SdcFaultError(
            f"PE {self.pe_ids[pe]} {what} (superstep {self._step})",
            pe=pe,
            step=self._step,
            phase=phase,
        )

    # -- hook points -------------------------------------------------------

    def begin(self, step):
        self._step = step
        self._pre = None
        self.step_stats = FaultStats()

    def end(self, ok):
        # Escalations must not lose the tallies gathered so far.
        self.stats.add(self.step_stats)

    def after_compute(self, x_locals, y_locals):
        """Inject output corruption, verify every PE's product, heal
        inline; keeps the per-PE pre-exchange checksums (floats for
        vectors, per-column arrays for blocks) for the exchange check."""
        step, stats, injector = self._step, self.step_stats, self.injector
        if injector is not None:
            for pe, phys in enumerate(self.pe_ids):
                if injector.flipped(phys, step):
                    word, bit, _o, _n = injector.flip_sdc(
                        y_locals[pe], phys, step, salt=_SALT_OUTPUT
                    )
                    self._note(
                        pe, "compute", "flip-y", "injected",
                        f"word {word} bit {bit}",
                    )
                if injector.sticky(phys, step):
                    injector.flip_sdc(
                        y_locals[pe], phys, step, salt=_SALT_STICKY
                    )
                    self._note(
                        pe, "compute", "sticky", "injected",
                        "bad core corrupts every compute",
                    )
        if self.checker is None:
            # Injected, nothing watching: whatever was injected this
            # superstep escapes into committed state.
            stats.escaped_sdc += max(
                0, stats.injected_sdc - stats.detected_sdc
            )
            return y_locals
        pre: List[Any] = [0.0] * self.num_parts
        # A flipped exponent can sum to inf or NaN: the check refuses
        # it, so numpy need not warn.
        with np.errstate(invalid="ignore", over="ignore"):
            for pe in range(self.num_parts):
                check = self.checker.check_compute(
                    pe, x_locals[pe], y_locals[pe]
                )
                if check.ok:
                    pre[pe] = check.checksum
                    continue
                sticky = injector is not None and injector.sticky(
                    self.pe_ids[pe], step
                )
                kind = "sticky" if sticky else "flip-y"
                self._note(
                    pe, "compute", kind, "detected",
                    f"|err| {check.error:.3e} > tol {check.tol:.3e}",
                )
                pre[pe] = self._recover_compute(
                    pe, x_locals[pe], y_locals, kind
                )
        self._pre = pre
        return y_locals

    def after_exchange(self, x_locals, messages, y_locals):
        """Verify each PE's post-exchange partial against the incoming
        payload sums of the exchange's ``messages``; a failure raises
        with ``phase="exchange"`` and the superstep is retried."""
        pre = self._pre
        if self.checker is None or pre is None:
            return y_locals
        parts = self.num_parts
        incoming_sum: List[Any] = [0.0] * parts
        incoming_abs: List[Any] = [0.0] * parts
        incoming_terms = [0] * parts
        for msg in messages:
            # axis-0 sums: scalars for vector payloads, per-column sums
            # for (ndofs, r) block payloads.
            payload = msg.payload
            incoming_sum[msg.dst] = incoming_sum[msg.dst] + payload.sum(axis=0)
            incoming_abs[msg.dst] = incoming_abs[msg.dst] + np.abs(
                payload
            ).sum(axis=0)
            incoming_terms[msg.dst] += payload.shape[0]
        for pe in range(parts):
            check = self.checker.check_exchange(
                pe,
                y_locals[pe],
                pre[pe],
                incoming_sum[pe],
                incoming_abs[pe],
                incoming_terms[pe],
                x_locals[pe],
            )
            if check.ok:
                continue
            self._note(
                pe, "exchange", "flip-y", "detected",
                f"|err| {check.error:.3e} > tol {check.tol:.3e}",
            )
            self._escalate(
                pe, "exchange", "flip-y", "superstep retried",
                "post-exchange partial fails the payload-sum check",
            )
        return y_locals

    # -- recovery ----------------------------------------------------------

    def _recover_compute(
        self, pe: int, x: np.ndarray, y_locals: List[np.ndarray], kind: str
    ) -> Any:
        """Heal one PE's corrupt product inline; returns the healed
        pre-exchange checksum or raises :class:`SdcFaultError`.

        One recompute from the same input heals a transient output
        flip.  A sticky PE re-corrupts the recompute — as would a
        wrong stiffness entry, which every product of that PE reads —
        and escalates with exact blame attached.
        """
        step, injector = self._step, self.injector
        phys = self.pe_ids[pe]
        y = self._recompute(pe, x)
        self._note(pe, "compute", kind, "recomputed")
        if injector is not None and injector.sticky(phys, step):
            injector.flip_sdc(y, phys, step, salt=_SALT_STICKY, attempt=1)
            self._note(
                pe, "compute", "sticky", "injected",
                "re-corrupted the recompute",
            )
        check = self.checker.check_compute(pe, x, y)
        if check.ok:
            y_locals[pe] = y
            return check.checksum
        self._note(pe, "compute", kind, "detected", "recompute still corrupt")
        self._escalate(
            pe, "compute", kind, "recompute failed",
            "product corrupt after its recompute — a persistent fault",
        )
