"""Fault injection, detection, and recovery for the SMVP pipeline.

The paper's 6000-superstep runs assume a perfect machine: every PE
computes at full speed, every exchanged block arrives intact, and a run
that starts finishes.  Real irregular-communication workloads are the
opposite — the pairwise exchange is the fragile hot path, and one slow
or lost block stalls every PE at the barrier.  This package adds the
missing reliability axis:

* :mod:`~repro.faults.config` — seeded fault model
  (:class:`FaultConfig`): stragglers, dropped/corrupted/duplicated
  blocks, transient PE failures.
* :mod:`~repro.faults.injector` — deterministic counter-based
  :class:`FaultInjector` consulted by both the BSP simulator (timing
  effects) and the distributed executor (data effects).
* :mod:`~repro.faults.detection` — per-block CRC-32 checksums, NaN/Inf
  guards, residual verification, and the :class:`FaultStats` tally.
* :mod:`~repro.faults.recovery` — retransmit-with-backoff timing and
  checkpoint/restart (:class:`CheckpointManager`) for long runs.
* :mod:`~repro.faults.errors` — the typed error family.

The reliability *experiment* built on top lives in
:mod:`repro.tables.reliability` (CLI: ``repro-tables reliability
fault-recovery``).
"""

from repro.faults.config import FaultConfig
from repro.faults.detection import (
    FaultStats,
    block_checksum,
    check_finite,
    residual_relative_error,
    verify_block,
    verify_residual,
)
from repro.faults.errors import (
    CheckpointCompatibilityError,
    CheckpointError,
    ExchangeFaultError,
    FaultError,
    NumericalFaultError,
    PermanentFailureError,
    RecoveryDeadlineError,
    SdcFaultError,
)
from repro.faults.injector import (
    BlockFault,
    FaultInjector,
    SdcTarget,
    TransmissionOutcome,
)
from repro.faults.recovery import (
    Checkpoint,
    CheckpointManager,
    retransmit_penalty,
)

__all__ = [
    "BlockFault",
    "Checkpoint",
    "CheckpointCompatibilityError",
    "CheckpointError",
    "CheckpointManager",
    "ExchangeFaultError",
    "FaultConfig",
    "FaultError",
    "FaultInjector",
    "FaultStats",
    "NumericalFaultError",
    "PermanentFailureError",
    "RecoveryDeadlineError",
    "SdcFaultError",
    "SdcTarget",
    "TransmissionOutcome",
    "block_checksum",
    "check_finite",
    "residual_relative_error",
    "retransmit_penalty",
    "verify_block",
    "verify_residual",
]
