"""Fault-model configuration.

A :class:`FaultConfig` is a complete, seeded description of the faults
a run should experience:

* **Stragglers** — per superstep, each PE independently runs slow with
  probability ``straggler_rate``; the extra compute time is an
  exponential multiple of its nominal time (mean
  ``straggler_mean_slowdown``).  This models OS jitter, contention, and
  the "one slow PE stalls the barrier" pathology the paper's
  barrier-synchronized supersteps are maximally exposed to.
* **Block faults** — each directed block transfer is independently
  dropped, bit-flipped in flight, or duplicated.  Drops are detected by
  timeout, corruptions by checksum; both trigger a retransmit with
  exponential backoff (see :mod:`repro.faults.recovery`).
* **Transient PE failures** — per superstep, a PE crashes with
  probability ``pe_failure_rate`` and restarts from its last state,
  recomputing the step (its compute time doubles) plus a fixed restart
  penalty in simulated seconds.
* **Silent data corruption (SDC)** — per PE per superstep, a bit flips
  in *compute* rather than in flight: in the local kernel output y, at
  ``flip_rate``.  ``sticky_pes`` models a bad DIMM/core: those PEs
  re-corrupt their kernel output on *every* compute, including the
  recovery recompute, so inline healing fails and the resilience
  ladder must escalate.  CRC-32 never sees these — they happen
  outside the wire — which is exactly why the ABFT checksum checks in
  :mod:`repro.smvp.abft` exist.

All draws are derived from ``seed`` via counter-based streams keyed on
(domain, step, PE/pair, attempt) — see :mod:`repro.faults.injector` —
so a configuration is exactly reproducible regardless of the order in
which the simulator or executor asks questions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple


@dataclass(frozen=True)
class FaultConfig:
    """Seeded description of the faults to inject into a run."""

    seed: int = 0
    #: Probability a PE straggles in a given superstep.
    straggler_rate: float = 0.0
    #: Mean *extra* compute time of a straggler, as a multiple of its
    #: nominal compute time (exponentially distributed).
    straggler_mean_slowdown: float = 1.0
    #: Per directed block transmission: probability it is lost.
    drop_rate: float = 0.0
    #: Per directed block transmission: probability a bit flips in flight.
    bitflip_rate: float = 0.0
    #: Per directed block transmission: probability it arrives twice.
    duplicate_rate: float = 0.0
    #: Per PE per superstep: probability of a transient crash+restart.
    pe_failure_rate: float = 0.0
    #: Simulated seconds to restart a crashed PE (checkpoint reload etc.).
    pe_restart_penalty: float = 1e-3
    #: Retry budget per block before the exchange is declared lost.
    max_retries: int = 8
    #: Timeout before a missing block is retransmitted, as a multiple of
    #: the block's nominal transfer time (T_l + words * T_w).
    timeout_factor: float = 4.0
    #: Backoff multiplier applied to the timeout on successive retries.
    backoff_factor: float = 2.0
    #: Per PE per superstep: probability of a bit-flip in the local
    #: kernel output y (a compute/register fault).
    flip_rate: float = 0.0
    #: Physical PE ids whose kernel output is corrupted on *every*
    #: compute from ``sticky_from_step`` on — the bad-DIMM/bad-core
    #: model that defeats inline recompute and forces escalation.
    sticky_pes: Tuple[int, ...] = ()
    #: First superstep at which the sticky PEs start corrupting.
    sticky_from_step: int = 0
    #: Fractional jitter amplitude on each retry timeout: every stall is
    #: scaled by a factor in ``[1 - a, 1 + a)`` drawn deterministically
    #: from ``seed`` keyed on (step, src, dst, attempt), so reliability
    #: tables stay reproducible while avoiding the lock-step retry
    #: storms a fixed multiplier produces.  0 disables jitter.
    backoff_jitter: float = 0.1

    def __post_init__(self) -> None:
        for name in (
            "straggler_rate",
            "drop_rate",
            "bitflip_rate",
            "duplicate_rate",
            "pe_failure_rate",
            "flip_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.drop_rate + self.bitflip_rate + self.duplicate_rate > 1.0:
            raise ValueError("block fault rates must sum to at most 1")
        object.__setattr__(
            self, "sticky_pes", tuple(int(pe) for pe in self.sticky_pes)
        )
        if any(pe < 0 for pe in self.sticky_pes):
            raise ValueError("sticky_pes must be non-negative PE ids")
        if len(set(self.sticky_pes)) != len(self.sticky_pes):
            raise ValueError("sticky_pes must be distinct")
        if self.sticky_from_step < 0:
            raise ValueError("sticky_from_step must be non-negative")
        if self.straggler_mean_slowdown < 0:
            raise ValueError("straggler_mean_slowdown must be non-negative")
        if self.pe_restart_penalty < 0:
            raise ValueError("pe_restart_penalty must be non-negative")
        if self.max_retries < 1:
            raise ValueError("max_retries must be at least 1")
        if self.timeout_factor <= 0:
            raise ValueError("timeout_factor must be positive")
        if self.backoff_factor < 1:
            raise ValueError("backoff_factor must be at least 1")
        if not 0.0 <= self.backoff_jitter < 1.0:
            raise ValueError("backoff_jitter must be in [0, 1)")

    @property
    def enabled(self) -> bool:
        """Whether any fault can actually occur under this config."""
        return (
            self.straggler_rate > 0
            or self.drop_rate > 0
            or self.bitflip_rate > 0
            or self.duplicate_rate > 0
            or self.pe_failure_rate > 0
            or self.sdc_enabled
        )

    @property
    def comm_enabled(self) -> bool:
        """Whether any *in-flight* block fault can occur (the faults the
        exchange middleware's CRC + retransmit protocol handles)."""
        return (
            self.drop_rate > 0
            or self.bitflip_rate > 0
            or self.duplicate_rate > 0
        )

    @property
    def sdc_enabled(self) -> bool:
        """Whether any memory/compute corruption can occur (the faults
        only the ABFT checks in :mod:`repro.smvp.abft` can see)."""
        return self.flip_rate > 0 or bool(self.sticky_pes)

    @classmethod
    def disabled(cls, seed: int = 0) -> "FaultConfig":
        """All rates zero — injection is a no-op."""
        return cls(seed=seed)

    @classmethod
    def uniform(cls, rate: float, seed: int = 0) -> "FaultConfig":
        """One-knob config used by the reliability sweep.

        ``rate`` drives the dominant failure modes directly (stragglers
        and drops), with corruption/duplication and silent compute
        flips at half, and transient PE crashes at a tenth of it —
        roughly the relative frequencies reported for production
        clusters.
        """
        if not 0.0 <= rate <= 0.5:
            raise ValueError("uniform rate must be in [0, 0.5]")
        return cls(
            seed=seed,
            straggler_rate=rate,
            drop_rate=rate,
            bitflip_rate=rate / 2.0,
            duplicate_rate=rate / 2.0,
            pe_failure_rate=rate / 10.0,
            flip_rate=rate / 2.0,
        )

    def with_seed(self, seed: int) -> "FaultConfig":
        """The same fault mix under a different random seed."""
        return replace(self, seed=seed)
