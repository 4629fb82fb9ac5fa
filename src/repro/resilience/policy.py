"""Escalation policy and per-PE health tracking.

The supervisor (see :mod:`repro.resilience.supervisor`) turns fault
signals into one of three responses, in escalating order:

1. **RETRY** — re-run the superstep.  The central-difference step calls
   the SMVP *before* mutating any state, so a failed superstep leaves
   the trajectory untouched and retrying is always safe.
2. **QUARANTINE** — circuit-break the flaky PE's links: its exchange
   blocks take the verified slow path (no fault draws, one clean
   transmission).  Numerically a no-op; the cost is modeled, not the
   bits.
3. **EVICT** — declare the PE permanently dead, redistribute its rows
   to the survivors, splice its state, and continue on P-1 PEs.

:class:`HealthTracker` accumulates per-PE failure evidence in the
*original* PE numbering — evictions renumber the survivors, and health
history must survive renumbering — and maps the evidence to an
:class:`Escalation` through the thresholds in :class:`RecoveryPolicy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional


class PolicyConfigError(ValueError):
    """A policy dataclass was constructed with inconsistent thresholds.

    Subclasses :class:`ValueError` so call sites that predate the typed
    error (and tests written against them) keep working; new code
    should catch this type to distinguish configuration mistakes from
    runtime value errors.
    """


class PEState(Enum):
    """Lifecycle of one PE under supervision."""

    HEALTHY = "healthy"
    SUSPECT = "suspect"
    QUARANTINED = "quarantined"
    EVICTED = "evicted"


class Escalation(Enum):
    """What the supervisor should do about the latest failure."""

    RETRY = "retry"
    QUARANTINE = "quarantine"
    EVICT = "evict"


@dataclass(frozen=True)
class RecoveryPolicy:
    """Thresholds mapping failure evidence to escalations.

    Parameters
    ----------
    quarantine_after:
        Consecutive failed supersteps blaming one PE before its links
        are circuit-broken.
    evict_after:
        Consecutive failures before the PE is declared dead and
        evicted.  Must be >= ``quarantine_after``.
    prefer_shadow:
        Recover an evicted PE's exclusive rows from the survivors'
        in-memory shadow copies when they are current (zero recompute);
        ``False`` forces the checkpoint-rollback path.
    max_evictions:
        Hard cap on evictions per run (``None``: keep evicting while
        at least two PEs survive).
    recovery_budget:
        Per-run ceiling on the *cumulative* number of retried
        supersteps — a clock-free escalation deadline.  When the
        supervisor's total retry count would pass this, it raises
        :class:`~repro.faults.RecoveryDeadlineError` instead of
        retrying again, turning an every-PE-is-flaky run into a typed
        failure rather than unbounded recovery effort.  ``None``
        (default) keeps the historical behavior: only the per-step
        retry cap bounds recovery.
    """

    quarantine_after: int = 2
    evict_after: int = 4
    prefer_shadow: bool = True
    max_evictions: Optional[int] = None
    recovery_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.quarantine_after < 1:
            raise PolicyConfigError("quarantine_after must be at least 1")
        if self.evict_after < self.quarantine_after:
            raise PolicyConfigError(
                "evict_after must be >= quarantine_after"
            )
        if self.max_evictions is not None and self.max_evictions < 0:
            raise PolicyConfigError("max_evictions must be non-negative")
        if self.recovery_budget is not None and self.recovery_budget < 1:
            raise PolicyConfigError("recovery_budget must be positive")


class HealthTracker:
    """Per-PE failure evidence, keyed by *original* PE id."""

    def __init__(self, num_pes: int, policy: RecoveryPolicy) -> None:
        if num_pes < 1:
            raise ValueError("num_pes must be positive")
        self.policy = policy
        self.num_pes = num_pes
        self.consecutive_failures = [0] * num_pes
        self.total_failures = [0] * num_pes
        self.states: List[PEState] = [PEState.HEALTHY] * num_pes

    def record_success(self, pe: int) -> None:
        """A superstep completed with this PE participating cleanly.

        Clears the consecutive-failure streak; a SUSPECT PE returns to
        HEALTHY.  Quarantine lasts for the rest of the run — one good
        superstep over the verified path says nothing about the flaky
        wire.
        """
        self._check(pe)
        self.consecutive_failures[pe] = 0
        if self.states[pe] is PEState.SUSPECT:
            self.states[pe] = PEState.HEALTHY

    def record_failure(self, pe: int) -> Escalation:
        """A superstep failed with this PE blamed; returns the response."""
        self._check(pe)
        self.consecutive_failures[pe] += 1
        self.total_failures[pe] += 1
        streak = self.consecutive_failures[pe]
        if streak >= self.policy.evict_after:
            return Escalation.EVICT
        if streak >= self.policy.quarantine_after:
            self.states[pe] = PEState.QUARANTINED
            return Escalation.QUARANTINE
        self.states[pe] = PEState.SUSPECT
        return Escalation.RETRY

    def mark_evicted(self, pe: int) -> None:
        self._check(pe)
        self.states[pe] = PEState.EVICTED

    def evicted(self) -> List[int]:
        """Original ids of evicted PEs, ascending."""
        return [
            pe for pe, s in enumerate(self.states) if s is PEState.EVICTED
        ]

    def quarantined(self) -> List[int]:
        """Original ids of quarantined (but alive) PEs, ascending."""
        return [
            pe for pe, s in enumerate(self.states) if s is PEState.QUARANTINED
        ]

    def blame(self, src: int, dst: int) -> int:
        """Which endpoint of a failed link to hold responsible.

        Deterministic: the endpoint with the worse consecutive streak,
        then the worse total history, then the lower id — so repeated
        failures on one link converge on a single PE instead of
        alternating.
        """
        self._check(src)
        self._check(dst)
        key = lambda pe: (  # noqa: E731 - local sort key
            -self.consecutive_failures[pe],
            -self.total_failures[pe],
            pe,
        )
        return min((src, dst), key=key)

    def _check(self, pe: int) -> None:
        if not 0 <= pe < self.num_pes:
            raise ValueError(f"PE {pe} out of range")
        if self.states[pe] is PEState.EVICTED:
            raise ValueError(f"PE {pe} was already evicted")
