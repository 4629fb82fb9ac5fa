"""Fault detection: checksums, numerical guards, residual checks.

Three layers of defense, cheapest first:

1. **Per-block checksums** — every exchange payload carries a CRC-32 of
   its bytes; the receiver recomputes it and treats a mismatch like a
   lost block (discard + retransmit).  Catches in-flight corruption.
2. **NaN/Inf guards** — the time stepper can verify each new state is
   finite, turning a silent numerical blow-up (or an undetected corrupt
   exchange) into an immediate, typed error at the step it happened.
3. **Residual verification** — after a distributed SMVP, compare
   against the global sequential product; the end-to-end check that the
   detection/recovery layers actually preserved the numerics.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from repro.faults.errors import NumericalFaultError


def block_checksum(payload: np.ndarray) -> int:
    """CRC-32 of an exchange buffer's bytes (order-sensitive)."""
    return zlib.crc32(np.ascontiguousarray(payload).tobytes())


def verify_block(payload: np.ndarray, checksum: int) -> bool:
    """Whether a received payload matches its transmitted checksum."""
    return block_checksum(payload) == checksum


@dataclass
class FaultStats:
    """Tally of injected faults and the detections/recoveries they drew.

    ``injected_*`` counts what the injector did; ``detected_*`` counts
    what the receiver noticed.  For the subsystem to be working, every
    injected drop must show up as a detected timeout, every injected
    bit-flip as a detected checksum mismatch, and every duplicate must
    be ignored exactly once — :meth:`fully_recovered` asserts that.
    """

    injected_drops: int = 0
    injected_corruptions: int = 0
    injected_duplicates: int = 0
    detected_missing: int = 0
    detected_corrupt: int = 0
    duplicates_ignored: int = 0
    retransmits: int = 0
    words_retransmitted: int = 0
    straggler_events: int = 0
    pe_failures: int = 0
    #: Blocks routed over the verified slow path because one endpoint's
    #: links are circuit-broken (see the resilience supervisor's
    #: quarantine escalation); they bypass injection entirely.
    quarantined_blocks: int = 0
    #: Silent data corruptions: bit-flips injected into a PE's kernel
    #: output — invisible to the wire CRC by definition.
    injected_sdc: int = 0
    #: SDC occurrences caught by an ABFT checksum check.
    detected_sdc: int = 0
    #: Inline per-PE product recomputes performed to heal an SDC.
    recomputed_sdc: int = 0
    #: Injected SDCs that no check caught before the superstep
    #: committed (only possible with ABFT disabled).
    escaped_sdc: int = 0

    @property
    def any_injected(self) -> bool:
        return bool(
            self.injected_drops
            or self.injected_corruptions
            or self.injected_duplicates
            or self.straggler_events
            or self.pe_failures
            or self.injected_sdc
        )

    @property
    def sdc_contained(self) -> bool:
        """No silent corruption committed undetected."""
        return self.escaped_sdc == 0

    def fully_recovered(self) -> bool:
        """Every injected communication fault was detected and handled."""
        return (
            self.detected_missing == self.injected_drops
            and self.detected_corrupt == self.injected_corruptions
            and self.duplicates_ignored == self.injected_duplicates
            and self.retransmits
            == self.injected_drops + self.injected_corruptions
        )

    def add(self, other: "FaultStats") -> None:
        """Element-wise sum *in place* — for run totals that several
        holders share by reference (an executor and its post-eviction
        successors), where :meth:`merge`'s fresh object would fork."""
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def merge(self, other: "FaultStats") -> "FaultStats":
        """Element-wise sum (aggregating over supersteps)."""
        total = replace(self)
        total.add(other)
        return total


def check_finite(
    state: np.ndarray,
    context: str = "state",
    pe: "int | None" = None,
    step: "int | None" = None,
    phase: "str | None" = None,
) -> None:
    """Raise :class:`NumericalFaultError` if the array has NaN/Inf.

    ``pe``/``step``/``phase`` attach blame context to the error payload
    (see :meth:`NumericalFaultError.blame`) so supervisor logs and
    chaos reports can print actionable lines.
    """
    if not np.all(np.isfinite(state)):
        bad = int(np.count_nonzero(~np.isfinite(state)))
        err = NumericalFaultError(
            f"{context} contains {bad} non-finite value(s) "
            f"out of {state.size}",
            pe=pe,
            step=step,
            phase=phase,
        )
        raise err


def residual_relative_error(
    computed: np.ndarray, reference: np.ndarray
) -> float:
    """Max relative error of ``computed`` against ``reference``."""
    reference = np.asarray(reference, dtype=np.float64)
    scale = float(np.abs(reference).max()) or 1.0
    return float(np.abs(np.asarray(computed) - reference).max() / scale)


def verify_residual(
    computed: np.ndarray,
    reference: np.ndarray,
    tol: float = 1e-9,
    context: str = "SMVP",
    pe: "int | None" = None,
    step: "int | None" = None,
    phase: "str | None" = None,
) -> float:
    """End-to-end residual check; raises on excessive error.

    Returns the relative error so callers can log it.  Optional
    ``pe``/``step``/``phase`` ride on the error payload as the blamed
    context.
    """
    err = residual_relative_error(computed, reference)
    if not err <= tol:  # NaN-safe: NaN comparisons are False
        raise NumericalFaultError(
            f"{context} residual {err:.3e} exceeds tolerance {tol:.1e}",
            pe=pe,
            step=step,
            phase=phase,
        )
    return err
