"""Algorithm-based fault tolerance (ABFT) for the superstep engine.

The exchange middleware's CRC-32 protects blocks *in flight*; a bit
that flips in a PE's local memory or arithmetic — the input vector x,
the kernel product y, or the assembled stiffness block K — is invisible
to it.  This module adds the classic Huang-Abraham checksum defense,
adapted to the paper's replicated-shared-node SMVP:

* At setup, for each PE precompute the **checksum row**
  ``w_i = c^T K_i`` with ``c = 1`` (the column sums of the local block)
  and its absolute companion ``w_abs_i = c^T |K_i|``.  Both are
  O(nnz_i), once.
* Every superstep, the invariant ``c^T y_i = w_i . x_i`` is checked in
  O(n_i): two dot products against work that cost O(nnz_i).  A
  mismatch localizes the corruption to *that PE's compute phase*.
* After the exchange, ``sum(y_i^post) = sum(y_i^pre) + sum(incoming
  payloads to i)`` re-checks each PE in O(n_i + words_i), localizing
  post-exchange memory corruption to *that PE's exchange phase*.

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

Input (x) corruption cannot be caught by the product invariant — a
correct product of a wrong input is self-consistent — so local inputs
are guarded by an exact CRC-32 snapshot taken at scatter time and
re-verified immediately before compute; recovery is a re-scatter from
the authoritative global vector, in place into the PE's x slice.

Matrix (K) corruption is modeled *virtually*: the guard records the
flipped word and applies the rank-1 update ``y[row] += (new - old) *
x[col]`` after every compute until the record is scrubbed.  The
prepared states (the one copy of each local matrix the executor
holds) are never mutated — the flipped word's position and value come
from a CSR rebuilt from the afflicted PE's state — so every backend
observes the identical poisoned product and the identical healed bits.

:class:`SdcGuard` is where all of this meets the engine: a checking
observer of the executor's one superstep pipeline that injects the configured flips, runs the three checks at
the hook points after scatter, compute, and exchange, heals inline,
and escalates with exact blame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np
import scipy.sparse as sp

from repro.faults.detection import FaultStats, block_checksum, verify_block
from repro.faults.errors import SdcFaultError
from repro.faults.injector import FaultInjector, SdcTarget
from repro.telemetry.registry import record_sdc_event, record_sdc_latency

#: Default multiplier on the worst-case rounding envelope.
DEFAULT_TOL_FACTOR = 4.0

#: float64 machine epsilon.
_EPS = float(np.finfo(np.float64).eps)

# Site-stream salts keep the x / matrix / y / sticky flip draws disjoint.
_SALT_INPUT = 1
_SALT_MATRIX = 2
_SALT_OUTPUT = 3
_SALT_STICKY = 4

#: Inline recompute attempts before a compute-phase SDC escalates to
#: the supervisor (attempt 1 heals a transient output flip, attempt 2
#: scrubs a corrupted matrix block first; a sticky PE survives both).
_MAX_SDC_ATTEMPTS = 2

#: SDC lifecycle action -> the ``FaultStats`` counter it increments.
_COUNTED = {
    "injected": "injected_sdc",
    "detected": "detected_sdc",
    "recomputed": "recomputed_sdc",
    "repaired": "repaired_blocks",
}


@dataclass(frozen=True)
class SdcEvent:
    """One observed step of an SDC's lifecycle, for blame reporting.

    ``action`` is one of ``"injected"``, ``"detected"``,
    ``"recomputed"``, ``"repaired"``, ``"escalated"``, ``"escaped"``.
    ``phase`` is ``"input"``, ``"compute"``, or ``"exchange"``.
    ``pe`` is the current slot id; ``physical_pe`` survives eviction
    renumbering and is what chaos reports blame.
    """

    step: int
    pe: int
    physical_pe: int
    phase: str
    kind: str  # "flip-x" | "flip-y" | "flip-k" | "sticky"
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


def nnz_coords(matrix: sp.csr_matrix, word: int) -> "tuple[int, int]":
    """(row, col) dof coordinates of flat data word ``word`` of an
    assembled (CSR) block: one data word per nonzero."""
    row = int(np.searchsorted(matrix.indptr, word, side="right") - 1)
    return row, int(matrix.indices[word])


def flat_cols(matrix: sp.csr_matrix) -> np.ndarray:
    """Column dof of every flat data word of an assembled block (the
    importance weighting of matrix flip sites reads x through it)."""
    return matrix.indices.astype(np.int64)


@dataclass
class MatrixCorruption:
    """One live (unscrubbed) bit-flip in a PE's assembled block.

    The guard applies ``y[row] += (new - old) * x[col]`` after every
    compute while the record is live, so the poisoned product is
    bit-identical across backends without mutating any prepared state.
    """

    word: int
    bit: int
    old: float
    new: float
    row: int
    col: int
    step: int  # superstep the flip was injected

    def poison(self, x: np.ndarray, y: np.ndarray) -> None:
        """Apply the flip's rank-1 effect to a product of ``x``."""
        y[self.row] += (self.new - self.old) * x[self.col]


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

    A verification point follows each data hand-off of the superstep:
    the input CRC check after scatter, the checksum-row compute check
    after the local products, the payload-sum check after the
    exchange.  Inline recovery heals transient corruption on the spot
    (the committed bits equal a fault-free superstep's); a PE that
    cannot be healed raises :class:`~repro.faults.SdcFaultError`
    *before* any executor or caller state changes hands, so the
    superstep is retryable by the resilience supervisor.

    ``stats`` / ``events`` are cumulative and shared (not copied) with
    reconfiguration successors through :meth:`adopt`; ``step_stats``
    is the in-flight superstep's tally.  ``checker`` is the executor's
    :class:`AbftChecker` (``None`` without ABFT), ``recompute(pe, x)``
    its one-PE product, ``local_matrix(pe)`` rebuilds one PE's
    assembled block (for a matrix flip) and ``dof_rows`` are its
    scatter row maps.
    """

    def __init__(
        self,
        checker: Optional[AbftChecker],
        pe_ids: Sequence[int],
        dof_rows: Sequence[np.ndarray],
        injector: Optional[FaultInjector],
        recompute: Callable[[int, np.ndarray], np.ndarray],
        local_matrix: Callable[[int], sp.csr_matrix],
    ) -> None:
        self.pe_ids = [int(p) for p in pe_ids]  # physical ids, by slot
        self.num_parts = len(self.pe_ids)
        self._dof_rows = dof_rows
        self._recompute = recompute
        self._local_matrix = local_matrix
        self.checker = checker
        self.injector = (
            injector
            if injector is not None and injector.sdc_enabled
            else None
        )
        # Live virtual matrix corruption, one record per afflicted PE.
        self.corruption: Dict[int, MatrixCorruption] = {}
        # Each afflicted PE's rebuilt block and its flat columns.
        self._afflicted: Dict[int, Tuple[sp.csr_matrix, np.ndarray]] = {}
        self.stats = FaultStats()
        self.events: List[SdcEvent] = []
        self.step_stats = FaultStats()
        self._step = 0
        self._x_global: Optional[np.ndarray] = None
        self._pre: Optional[List[Any]] = None

    @property
    def active(self) -> bool:
        """Whether any multiply needs this guard attached at all."""
        return self.checker is not None or self.injector is not None

    def adopt(self, predecessor: "SdcGuard") -> None:
        """Continue a predecessor's SDC history across a reconfiguration.

        The history is shared, not copied.  Live virtual matrix
        corruption does NOT carry over: redistribution reassembles
        every local matrix from the authoritative element data, which
        scrubs it by construction — record the scrub (against the
        injection superstep) so the fault's lifecycle closes even when
        an eviction, not detection, annihilated it.
        """
        for pe, corruption in sorted(predecessor.corruption.items()):
            predecessor._note(
                pe, "compute", "flip-k", "repaired",
                "scrubbed by redistribution",
                step=corruption.step, tally=predecessor.stats,
            )
        self.stats = predecessor.stats
        self.events = predecessor.events

    def _note(
        self,
        pe: int,
        phase: str,
        kind: str,
        action: str,
        detail: str = "",
        step: Optional[int] = None,
        tally: Optional[FaultStats] = None,
        latency: float = 0.0,
    ) -> None:
        """Log one step of an SDC's lifecycle and count it.

        The event and the counter its action maps to are recorded
        together, so the blame log and the tally cannot disagree; a
        detection also records its latency (supersteps since injection).
        """
        counter = _COUNTED.get(action)
        if counter is not None:
            tally = self.step_stats if tally is None else tally
            setattr(tally, counter, getattr(tally, counter) + 1)
        if action == "detected":
            record_sdc_latency(latency)
        event = SdcEvent(
            step=self._step if step is None else step,
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
        self, pe: int, phase: str, kind: str, detail: str, what: str, why: str = ""
    ):
        """Inline recovery is exhausted: log it and raise with blame."""
        self._note(pe, phase, kind, "escalated", detail)
        raise SdcFaultError(
            f"PE {self.pe_ids[pe]} {what} (superstep {self._step}){why}",
            pe=pe,
            step=self._step,
            phase=phase,
        )

    # -- hook points -------------------------------------------------------

    def begin(self, step, x_global):
        self._step = step
        self._x_global = x_global
        self._pre = None
        self.step_stats = FaultStats()

    def end(self, ok):
        # Escalations must not lose the tallies gathered so far.
        self.stats.add(self.step_stats)
        self._x_global = None

    def after_scatter(self, x_locals):
        """Snapshot-CRC the scattered inputs, inject x flips, verify,
        and heal by re-scatter from the authoritative global vector —
        all in place, in the writable x slices."""
        step, injector = self._step, self.injector
        crcs = (
            [block_checksum(x) for x in x_locals]
            if self.checker is not None
            else None
        )
        if injector is not None:
            for pe, phys in enumerate(self.pe_ids):
                if injector.sdc_target(phys, step) is SdcTarget.INPUT:
                    word, bit, _old, _new = injector.flip_sdc(
                        x_locals[pe], phys, step, salt=_SALT_INPUT
                    )
                    self._note(
                        pe, "input", "flip-x", "injected",
                        f"word {word} bit {bit}",
                    )
        if crcs is None:
            return x_locals
        for pe in range(self.num_parts):
            if verify_block(x_locals[pe], crcs[pe]):
                continue
            self._note(pe, "input", "flip-x", "detected")
            np.take(
                self._x_global, self._dof_rows[pe], axis=0, out=x_locals[pe]
            )
            self._note(pe, "input", "flip-x", "recomputed", "re-scatter")
            if not verify_block(x_locals[pe], crcs[pe]):
                self._escalate(
                    pe, "input", "flip-x", "",
                    "input vector corrupt after re-scatter",
                )
        return x_locals

    def after_compute(self, x_locals, y_locals):
        """Inject matrix/output corruption, verify every PE's product,
        heal inline; keeps the per-PE pre-exchange checksums (floats for
        vectors, per-column arrays for blocks) for the exchange check."""
        step, stats, injector = self._step, self.step_stats, self.injector
        if injector is not None:
            for pe, phys in enumerate(self.pe_ids):
                if (
                    injector.sdc_target(phys, step) is SdcTarget.MATRIX
                    and pe not in self.corruption  # one live flip per block
                ):
                    self._inject_matrix_flip(pe, phys, x_locals[pe])
        # Re-apply every live matrix corruption to this superstep's
        # products — the persistent fault poisons each compute until
        # detection scrubs it.
        for pe, corruption in sorted(self.corruption.items()):
            corruption.poison(x_locals[pe], y_locals[pe])
        if injector is not None:
            for pe, phys in enumerate(self.pe_ids):
                if injector.sdc_target(phys, step) is SdcTarget.OUTPUT:
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
        for pe in range(self.num_parts):
            check = self.checker.check_compute(pe, x_locals[pe], y_locals[pe])
            if check.ok:
                pre[pe] = check.checksum
                continue
            # Detection latency counts from the superstep a live matrix
            # corruption was injected.
            corruption = self.corruption.get(pe)
            if injector is not None and injector.sticky(self.pe_ids[pe], step):
                kind = "sticky"
            else:
                kind = "flip-y" if corruption is None else "flip-k"
            self._note(
                pe, "compute", kind, "detected",
                f"|err| {check.error:.3e} > tol {check.tol:.3e}",
                latency=(
                    0.0 if corruption is None else float(step - corruption.step)
                ),
            )
            pre[pe] = self._recover_compute(pe, x_locals[pe], y_locals, kind)
        self._pre = pre
        return y_locals

    def after_exchange(self, x_locals, messages, y_locals):
        """Verify each PE's post-exchange partial against the incoming
        payload sums of the exchange's ``messages``; heal by replaying
        that PE's compute + summation."""
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

        def check_exchange(pe: int, y: np.ndarray) -> AbftCheck:
            return self.checker.check_exchange(
                pe,
                y,
                pre[pe],
                incoming_sum[pe],
                incoming_abs[pe],
                incoming_terms[pe],
                x_locals[pe],
            )

        for pe in range(parts):
            check = check_exchange(pe, y_locals[pe])
            if check.ok:
                continue
            self._note(
                pe, "exchange", "flip-y", "detected",
                f"|err| {check.error:.3e} > tol {check.tol:.3e}",
            )
            # Replay this PE alone: recompute the local product (plus
            # any live virtual matrix delta, for bit-parity with the
            # main path) and re-sum its incoming payloads in send
            # order — each dof's contributions in the rounds' order.
            y = self._recompute(pe, x_locals[pe])
            corruption = self.corruption.get(pe)
            if corruption is not None:
                corruption.poison(x_locals[pe], y)
            for msg in messages:
                if msg.dst == pe:
                    y[msg.dof_dst] += msg.payload
            self._note(
                pe, "exchange", "flip-y", "recomputed",
                "local replay from delivered payloads",
            )
            if not check_exchange(pe, y).ok:
                self._escalate(
                    pe, "exchange", "flip-y",
                    "replay still fails the payload-sum check",
                    "post-exchange partial corrupt after local replay",
                )
            y_locals[pe] = y
        return y_locals

    def after_gather(self, y_locals):
        return y_locals

    # -- injection / recovery helpers --------------------------------------

    def _inject_matrix_flip(self, pe: int, phys: int, x: np.ndarray) -> None:
        """Record a persistent bit-flip in PE ``pe``'s assembled block.

        The flipped word is drawn importance-weighted by
        ``|K[word]| * |x[col(word)]|`` so the flip's rank-1 effect on
        the product is within three decades of the largest achievable —
        i.e. guaranteed detectable this superstep.  When every
        importance is zero (an all-zero local input, e.g. the first
        steps of a cold-started wave), a flip would be a bitwise no-op
        on the product, so injection is skipped — there is no
        observable fault to detect.  The block is rebuilt from the
        PE's prepared state on its first flip and kept for that PE only.
        """
        afflicted = self._afflicted.get(pe)
        if afflicted is None:
            matrix = self._local_matrix(pe)
            afflicted = self._afflicted[pe] = (matrix, flat_cols(matrix))
        matrix, cols = afflicted
        data = np.asarray(matrix.data).reshape(-1)
        importance = np.abs(data) * np.abs(x[cols])
        if float(importance.max()) <= 0.0:
            return
        word, bit = self.injector.sdc_site(
            importance, phys, self._step, salt=_SALT_MATRIX
        )
        old = float(data[word])
        flipped = np.array([old], dtype=np.float64)
        flipped.view(np.uint64)[0] ^= np.uint64(1) << np.uint64(bit)
        row, col = nnz_coords(matrix, word)
        self.corruption[pe] = MatrixCorruption(
            word=word, bit=bit, old=old, new=float(flipped[0]),
            row=row, col=col, step=self._step,
        )
        self._note(
            pe, "compute", "flip-k", "injected",
            f"word {word} bit {bit} (dof {row},{col})",
        )

    def _recover_compute(
        self, pe: int, x: np.ndarray, y_locals: List[np.ndarray], kind: str
    ) -> Any:
        """Heal one PE's corrupt product inline; returns the healed
        pre-exchange checksum or raises :class:`SdcFaultError`.

        Attempt 1 recomputes from the (CRC-verified) input — that
        alone heals a transient output flip.  Attempt 2 first scrubs
        any live matrix corruption (the authoritative assembled block
        is clean by construction; only the virtual record poisons
        products).  A sticky PE re-corrupts every recompute, exhausts
        both attempts, and escalates with exact blame attached.
        """
        step, injector = self._step, self.injector
        phys = self.pe_ids[pe]
        for attempt in range(1, _MAX_SDC_ATTEMPTS + 1):
            corruption = self.corruption.get(pe)
            if attempt > 1 and corruption is not None:
                del self.corruption[pe]
                corruption = None
                self._note(
                    pe, "compute", "flip-k", "repaired",
                    "virtual corruption scrubbed",
                )
            y = self._recompute(pe, x)
            self._note(pe, "compute", kind, "recomputed", f"attempt {attempt}")
            if corruption is not None:
                corruption.poison(x, y)
            if injector is not None and injector.sticky(phys, step):
                injector.flip_sdc(
                    y, phys, step, salt=_SALT_STICKY, attempt=attempt
                )
                self._note(
                    pe, "compute", "sticky", "injected",
                    f"re-corrupted recovery attempt {attempt}",
                )
            check = self.checker.check_compute(pe, x, y)
            if check.ok:
                y_locals[pe] = y
                return check.checksum
            self._note(
                pe, "compute", kind, "detected",
                f"recovery attempt {attempt} still corrupt",
            )
        self._escalate(
            pe, "compute", kind,
            f"{_MAX_SDC_ATTEMPTS} recomputes exhausted",
            f"product corrupt after {_MAX_SDC_ATTEMPTS} recomputes",
            " — persistent hardware fault",
        )
