"""Typed failures raised by the fault-tolerance machinery.

Every error the detection/recovery layers can surface derives from
:class:`FaultError`, so callers can catch the whole family with one
``except`` while tests assert the precise subtype.
"""

from __future__ import annotations


class FaultError(Exception):
    """Base class for all fault-subsystem errors."""


class ExchangeFaultError(FaultError):
    """A block exchange could not be completed within the retry budget.

    Carries the failing link (``src``/``dst``) and superstep so the
    resilience supervisor can blame the right PE when escalating.
    """

    def __init__(
        self,
        message: str,
        src: "int | None" = None,
        dst: "int | None" = None,
        step: "int | None" = None,
    ) -> None:
        super().__init__(message)
        self.src = src
        self.dst = dst
        self.step = step


class NumericalFaultError(FaultError):
    """A computed state contains NaN/Inf or fails a residual check.

    Carries the blamed context — PE, superstep, and phase — when the
    detecting layer knows it, so supervisor logs and chaos reports can
    print actionable blame lines instead of a bare message.
    """

    def __init__(
        self,
        message: str,
        pe: "int | None" = None,
        step: "int | None" = None,
        phase: "str | None" = None,
    ) -> None:
        super().__init__(message)
        self.pe = pe
        self.step = step
        self.phase = phase

    def blame(self) -> str:
        """One-line blame summary from whatever context is attached."""
        parts = []
        if self.pe is not None:
            parts.append(f"PE {self.pe}")
        if self.step is not None:
            parts.append(f"superstep {self.step}")
        if self.phase is not None:
            parts.append(f"phase {self.phase}")
        return ", ".join(parts) if parts else "unattributed"


class SdcFaultError(FaultError):
    """Silent data corruption that inline ABFT recovery could not heal.

    Raised by the executor's checksum verification when the blamed PE's
    one recompute fails too (the sticky bad-core model, or a wrong
    stiffness entry) or its post-exchange partial fails the payload-sum
    check.  Carries the blamed PE (current numbering), superstep, and
    phase (``"compute"`` / ``"exchange"``) so the
    resilience supervisor can escalate against the right PE directly —
    no link-endpoint ambiguity as with :class:`ExchangeFaultError`.
    """

    def __init__(
        self,
        message: str,
        pe: "int | None" = None,
        step: "int | None" = None,
        phase: "str | None" = None,
    ) -> None:
        super().__init__(message)
        self.pe = pe
        self.step = step
        self.phase = phase


class RecoveryDeadlineError(FaultError):
    """The run's total recovery effort exceeded its superstep budget.

    Raised by the resilience supervisor when the cumulative count of
    retried supersteps passes ``RecoveryPolicy.recovery_budget`` — a
    clock-free escalation deadline that turns "every PE is flaky, retry
    forever" into a typed, reportable failure.
    """

    def __init__(
        self,
        message: str,
        budget: "int | None" = None,
        retried: "int | None" = None,
        step: "int | None" = None,
    ) -> None:
        super().__init__(message)
        self.budget = budget
        self.retried = retried
        self.step = step


class CheckpointError(FaultError):
    """A checkpoint file is corrupt, incomplete, or incompatible."""


class CheckpointCompatibilityError(CheckpointError):
    """A checkpoint belongs to a different data distribution.

    Raised instead of silently mis-splicing when the checkpoint header's
    PE count or row-ownership hash disagrees with the distribution the
    caller is about to restore into.
    """


class PermanentFailureError(FaultError):
    """A PE has been declared permanently dead.

    Raised by the resilience supervisor when a PE's failures escalate
    past every recovery policy (retry, quarantine) and no eviction is
    possible — e.g. the last surviving pair, or no recoverable state
    for the dead PE's exclusive rows.
    """

    def __init__(
        self, message: str, pe: "int | None" = None, step: "int | None" = None
    ) -> None:
        super().__init__(message)
        self.pe = pe
        self.step = step
