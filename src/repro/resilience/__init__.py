"""Self-healing execution for the distributed SMVP pipeline.

The fault layer (:mod:`repro.faults`) recovers *transient* faults —
dropped, corrupted, duplicated blocks — inside a superstep.  This
package handles what it cannot: links that stay broken and PEs that
die for good.  Eviction — a PE leaves — is the only reconfiguration;
a quarantined PE stays quarantined for the rest of the run.  The
pieces:

* :mod:`~repro.resilience.policy` — the escalation ladder
  (retry → quarantine → evict) and per-PE health tracking.
* :mod:`~repro.resilience.shadow` — buddy shadow copies of each PE's
  *exclusive* vector rows (everything else survives automatically via
  the paper's replicated-shared-node storage).
* :mod:`~repro.resilience.eviction` — state splicing and migration
  accounting for online PE eviction.
* :mod:`~repro.resilience.supervisor` — the superstep supervisor
  wrapping the time-stepped executor loop; evicts dead PEs online,
  redistributes their rows to the survivors, rebuilds the exchange
  schedule, and continues bit-consistently on P-1 PEs.
* :mod:`~repro.resilience.chaos` — seeded kill schedules and the
  survivor-equivalence proof harness (CLI: ``repro-chaos``).
"""

from repro.resilience.chaos import (
    ChaosReport,
    KillSchedule,
    render_chaos_report,
    run_chaos,
)
from repro.resilience.eviction import (
    MigrationSummary,
    migration_plan,
    splice_state,
)
from repro.resilience.policy import (
    Escalation,
    HealthTracker,
    PEState,
    PolicyConfigError,
    RecoveryPolicy,
)
from repro.resilience.shadow import (
    STATE_WORDS_PER_NODE,
    ShadowSegment,
    ShadowStore,
)
from repro.resilience.supervisor import (
    EvictionEvent,
    ResumePoint,
    SuperstepSupervisor,
    SupervisorReport,
)

__all__ = [
    "ChaosReport",
    "Escalation",
    "EvictionEvent",
    "HealthTracker",
    "KillSchedule",
    "MigrationSummary",
    "PEState",
    "PolicyConfigError",
    "RecoveryPolicy",
    "ResumePoint",
    "STATE_WORDS_PER_NODE",
    "ShadowSegment",
    "ShadowStore",
    "SuperstepSupervisor",
    "SupervisorReport",
    "migration_plan",
    "render_chaos_report",
    "run_chaos",
    "splice_state",
]
