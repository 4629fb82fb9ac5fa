"""Elastic scale-out: autoscaling policy and growth accounting.

The eviction machinery (:mod:`repro.resilience.supervisor`) shrinks a
run when hardware dies.  This module supplies the other direction —
and the judgement for both:

* :class:`ScalePolicy` — when to grow onto a fresh PE, when to shrink
  off an under-utilized one, and when a quarantined PE has served
  enough probation to be readmitted to full service;
* :func:`predicted_efficiency` — the contention-aware oracle the
  policy consults: parallel efficiency at a candidate layout under the
  fitted machine model (Eq. (2) plus the ``T_q * q_i**2`` queue-search
  term when the machine carries one);
* :func:`growth_migration_plan` — prices a growth reconfiguration the
  way :func:`repro.resilience.eviction.migration_plan` prices an
  eviction: the state words the new PE must receive and one migration
  message per donor.

Growth is cheaper than eviction in one structural way: replicated
shared-node storage means no rows are lost, so ``(u, u_prev)`` stay
valid verbatim and no splicing happens — the supervisor only rebinds
the stepper to the new executor.  That is what makes mid-run growth
bit-identical to a from-scratch run at the new layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.resilience.policy import PolicyConfigError
from repro.resilience.shadow import STATE_WORDS_PER_NODE
from repro.smvp.schedule import ScheduleDelta


@dataclass(frozen=True)
class ScalePolicy:
    """Thresholds governing elastic growth, shrink, and readmission.

    Parameters
    ----------
    grow_threshold:
        Minimum predicted-efficiency *gain* (absolute, at the
        candidate p+1 layout versus the current one) before the
        autoscaler grows.  The contention term makes this a real
        trade-off: more PEs shrink per-PE compute but deepen the
        max incoming-message queue.
    shrink_utilization:
        Predicted parallel efficiency below which the layout counts as
        under-utilized; ``shrink_patience`` consecutive evaluations
        below it shrink the run by evicting the lightest PE.
    shrink_patience:
        Consecutive under-utilized evaluations before a shrink.
    probation_steps:
        Supersteps a quarantined PE must survive on the verified path
        before :meth:`SuperstepSupervisor` readmits it.
    evaluation_interval:
        Evaluate the autoscaler every this-many completed steps.
    cooldown_steps:
        Minimum steps between consecutive scale actions, so one noisy
        evaluation cannot thrash grow/shrink.
    max_grows:
        Hard cap on grow actions per run (``None``: unbounded).
    readmit_evicted:
        Whether growth may rejoin an *evicted* physical PE (after its
        probation window) instead of provisioning fresh hardware.
        The rejoined PE keeps its physical id — and therefore its
        fault history.
    require_deficit:
        Only grow when the run is actually short-handed: PEs were
        evicted or are quarantined.  ``False`` lets the oracle grow a
        healthy run purely on predicted efficiency.
    autoscale:
        Master switch for the grow/shrink oracle.  ``False`` keeps the
        policy's probation/readmission rules active (used by the chaos
        harness's ``--readmit`` mode) without autonomous scaling.
    """

    grow_threshold: float = 0.02
    shrink_utilization: float = 0.25
    shrink_patience: int = 3
    probation_steps: int = 8
    evaluation_interval: int = 1
    cooldown_steps: int = 4
    max_grows: Optional[int] = None
    readmit_evicted: bool = True
    require_deficit: bool = True
    autoscale: bool = True

    def __post_init__(self) -> None:
        if self.grow_threshold < 0:
            raise PolicyConfigError("grow_threshold must be non-negative")
        if not 0.0 < self.shrink_utilization < 1.0:
            raise PolicyConfigError(
                "shrink_utilization must be in (0, 1)"
            )
        if self.shrink_patience < 1:
            raise PolicyConfigError("shrink_patience must be at least 1")
        if self.probation_steps < 1:
            raise PolicyConfigError("probation_steps must be at least 1")
        if self.evaluation_interval < 1:
            raise PolicyConfigError(
                "evaluation_interval must be at least 1"
            )
        if self.cooldown_steps < 0:
            raise PolicyConfigError("cooldown_steps must be non-negative")
        if self.max_grows is not None and self.max_grows < 0:
            raise PolicyConfigError("max_grows must be non-negative")


@dataclass(frozen=True)
class ScaleEvent:
    """One completed elastic action (grow, shrink, or readmission)."""

    kind: str  # "grow" | "shrink" | "readmit"
    superstep: int
    pe: int  # physical id (grow/readmit) or original id (shrink)
    num_pes_before: int
    num_pes_after: int
    migrated_words: int = 0
    migrated_blocks: int = 0
    predicted_efficiency_before: Optional[float] = None
    predicted_efficiency_after: Optional[float] = None
    readmitted: bool = False
    delta: Optional[ScheduleDelta] = None
    reason: str = ""


@dataclass(frozen=True)
class GrowthMigration:
    """State traffic required to bring one new PE online.

    The new PE must receive the ``(u, u_prev)`` words of every node
    now resident on it; each distinct donor (a PE that hosted at least
    one of those nodes under the old layout) sends one migration
    message.  Survivors keep their replicated rows — growth moves data
    *to* the newcomer only.
    """

    new_pe: int
    migrated_words: int
    migrated_blocks: int


def growth_migration_plan(
    old_distribution, new_distribution
) -> GrowthMigration:
    """Price the state movement of one growth reconfiguration."""
    new_pe = new_distribution.num_parts - 1
    if old_distribution.num_parts != new_pe:
        raise ValueError(
            "growth_migration_plan expects new layout = old layout + 1 PE"
        )
    gained = new_distribution.local_nodes(new_pe)
    donors = set()
    for pe in range(old_distribution.num_parts):
        if np.intersect1d(
            old_distribution.local_nodes(pe), gained, assume_unique=True
        ).size:
            donors.add(pe)
    return GrowthMigration(
        new_pe=new_pe,
        migrated_words=STATE_WORDS_PER_NODE * int(gained.size),
        migrated_blocks=len(donors),
    )


def predicted_efficiency(
    flops_per_pe, schedule, machine, rhs: int = 1
) -> float:
    """Parallel efficiency of a layout under the (fitted) machine.

    ``T_step = max_i(F_i T_f r) + max_i(B_i T_l + C_i T_w r
    [+ T_q q_i**2])`` — the simulator's barrier-mode accounting
    (``CommSchedule.comm_busy``), including the contention correction
    when the machine carries ``tq``.  Efficiency is
    ``T_seq / (p * T_step)`` with ``T_seq = T_f r * sum_i F_i``.  This
    is the quantity the
    autoscaler compares across candidate layouts: the contention term
    is what lets it notice when an extra PE would deepen the worst
    incoming-message queue faster than it thins the compute.
    """
    if rhs < 1:
        raise ValueError("rhs must be >= 1")
    flops = np.asarray(flops_per_pe, dtype=np.float64)
    p = schedule.num_parts
    if flops.size != p:
        raise ValueError("flops_per_pe length must match the schedule")
    if p < 1 or float(flops.sum()) <= 0:
        raise ValueError("need at least one PE with work")
    tf = machine.tf * rhs
    t_comp = tf * float(flops.max())
    busy = schedule.comm_busy(machine, rhs)
    t_step = t_comp + (float(busy.max()) if len(busy) else 0.0)
    if t_step <= 0:
        return 1.0
    t_seq = tf * float(flops.sum())
    return t_seq / (p * t_step)


def efficiency_after_growth(
    mesh, partition, machine, rhs: int = 1
) -> Tuple[float, object, object]:
    """Predicted efficiency if the current layout grew by one PE.

    Builds the candidate p+1 layout with
    :func:`~repro.smvp.distribution.redistribute_after_addition`,
    prices it with :func:`predicted_efficiency`, and returns
    ``(efficiency, candidate_partition, redistribution)`` so a caller
    that decides to grow does not repeat the repartition.
    """
    from repro.smvp.distribution import (
        DataDistribution,
        redistribute_after_addition,
    )
    from repro.smvp.schedule import CommSchedule

    new_partition, redistribution = redistribute_after_addition(
        mesh, partition
    )
    distribution = DataDistribution(mesh, new_partition)
    schedule = CommSchedule(distribution)
    eff = predicted_efficiency(
        distribution.local_counts["flops"], schedule, machine, rhs=rhs
    )
    return eff, new_partition, redistribution
