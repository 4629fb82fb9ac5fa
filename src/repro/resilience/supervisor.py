"""The superstep supervisor: retry, quarantine, evict, continue.

:class:`SuperstepSupervisor` wraps an
:class:`~repro.fem.timestepper.ExplicitTimeStepper` driving a
:class:`~repro.smvp.executor.DistributedSMVP` and turns fault signals
into the escalation ladder of :mod:`repro.resilience.policy`:

* an :class:`~repro.faults.ExchangeFaultError` (a link that exhausted
  its retransmit budget) blames one endpoint, bumps its health record,
  and the superstep is **retried** — the central-difference step calls
  the SMVP before mutating state, so a failed superstep is free to
  replay;
* an :class:`~repro.faults.SdcFaultError` (an ABFT compute check that
  one recompute did not heal, or a failed exchange check) blames the
  one PE it names, and the superstep is retried the same way;
* repeated failures **quarantine** the flaky PE's links (circuit-break
  onto the verified path — numerically a no-op) for the rest of the
  run;
* a failure streak, or a scheduled permanent kill, **evicts** the PE
  online: its elements are regrown onto the survivors
  (:func:`~repro.smvp.distribution.redistribute_after_eviction`), the
  schedule and exchange rounds are rebuilt, its exclusive rows are
  spliced from the buddy shadow (zero recompute) or from the last
  CRC-valid checkpoint (rollback + deterministic recompute), and the
  run continues on P-1 PEs bit-consistently — the final vector equals
  a fresh P-1 run launched from the spliced state.  Eviction is the
  only reconfiguration: a run never grows back.

Every eviction emits an :class:`EvictionEvent` (telemetry counters via
:func:`repro.telemetry.registry.record_eviction`) and a
:class:`ResumePoint` that the chaos harness replays to *prove*
survivor equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.faults.errors import (
    ExchangeFaultError,
    PermanentFailureError,
    RecoveryDeadlineError,
    SdcFaultError,
)
from repro.resilience.eviction import migration_plan, splice_state
from repro.resilience.policy import (
    Escalation,
    HealthTracker,
    RecoveryPolicy,
)
from repro.resilience.shadow import ShadowStore
from repro.simulate.bsp import ReconfigurationCost, model_reconfiguration
from repro.smvp.schedule import ScheduleDelta, schedule_delta
from repro.telemetry.registry import (
    count,
    record_eviction,
    stage_span,
)


@dataclass(frozen=True)
class EvictionEvent:
    """One completed online eviction."""

    dead_pe: int  # original numbering
    dead_pe_current: int  # id in the pre-eviction numbering
    superstep: int  # completed steps when the PE died
    num_pes_before: int
    num_pes_after: int
    recovery_source: str  # "shadow" | "checkpoint"
    recomputed_supersteps: int
    migrated_words: int
    migrated_blocks: int
    shadow_words: int
    repartition_flops: int
    redistribution_waves: int
    delta: ScheduleDelta
    cost: Optional[ReconfigurationCost] = None


@dataclass(frozen=True)
class ResumePoint:
    """Everything needed to relaunch the run fresh from an eviction.

    The chaos harness builds a brand-new P-1 executor from this and
    steps it to the end: exact equality with the supervised run is the
    survivor-equivalence guarantee.
    """

    partition_parts: np.ndarray
    num_parts: int
    u: np.ndarray
    u_prev: np.ndarray
    step_index: int
    superstep: int  # executor exchange counter (fault-stream key)
    quarantined: frozenset
    # Physical PE ids of the survivors (SDC fault streams key on
    # these); None on resume points from pre-ABFT runs.
    pe_ids: Optional[np.ndarray] = None


@dataclass
class SupervisorReport:
    """Outcome of one supervised run."""

    records: List = field(default_factory=list)
    evictions: List[EvictionEvent] = field(default_factory=list)
    resume_points: List[ResumePoint] = field(default_factory=list)
    retried_supersteps: int = 0
    quarantined: List[int] = field(default_factory=list)
    evicted: List[int] = field(default_factory=list)
    final_num_pes: int = 0
    # (steps, len(record_nodes), 3), as ExplicitTimeStepper.run gives
    # them; None when no nodes were recorded.
    seismograms: Optional[np.ndarray] = None

    @property
    def total_migrated_words(self) -> int:
        return sum(e.migrated_words for e in self.evictions)

    @property
    def total_reconfiguration_seconds(self) -> Optional[float]:
        costs = [e.cost for e in self.evictions]
        if not costs or any(c is None for c in costs):
            return None
        return sum(c.t_total for c in costs)


class SuperstepSupervisor:
    """Self-healing driver for a distributed time-stepped run.

    Parameters
    ----------
    stepper:
        An :class:`~repro.fem.timestepper.ExplicitTimeStepper` whose
        SMVP is a :class:`~repro.smvp.executor.DistributedSMVP` (the
        supervisor needs ``reconfigure_without`` / ``quarantine``).
    policy:
        Escalation thresholds (:class:`RecoveryPolicy`).
    checkpoints:
        Optional :class:`~repro.faults.CheckpointManager`; enables the
        rollback-and-recompute fallback and is fed ``maybe_save`` with
        the *active* distribution every step.
    kill_schedule:
        Mapping ``superstep -> PE id(s)`` (original numbering) of
        scheduled permanent failures, applied just before that
        superstep executes.
    machine:
        Optional :class:`~repro.model.machine.Machine` with comm
        constants; prices each eviction via
        :func:`~repro.simulate.bsp.model_reconfiguration`.
    max_retries_per_step:
        Hard cap on supervised retries of a single superstep (a
        backstop against a policy that never escalates).
    """

    def __init__(
        self,
        stepper,
        policy: Optional[RecoveryPolicy] = None,
        checkpoints=None,
        kill_schedule: Optional[Mapping[int, object]] = None,
        machine=None,
        max_retries_per_step: int = 16,
    ) -> None:
        smvp = stepper.smvp
        if not hasattr(smvp, "reconfigure_without"):
            raise ValueError(
                "supervision needs a DistributedSMVP-backed stepper; "
                "a sequential matvec has no PEs to heal"
            )
        if machine is not None:
            machine.require_comm("the reconfiguration cost model")
        self.stepper = stepper
        self.policy = policy or RecoveryPolicy()
        self.checkpoints = checkpoints
        self.machine = machine
        self.max_retries_per_step = int(max_retries_per_step)
        self.health = HealthTracker(smvp.num_parts, self.policy)
        self.shadow = ShadowStore(smvp.distribution)
        self.shadow.capture_from(stepper)
        self._current_to_orig: List[int] = list(range(smvp.num_parts))
        self._kills = _normalize_kills(kill_schedule)
        self.events: List[EvictionEvent] = []
        self.resume_points: List[ResumePoint] = []
        self.retried_supersteps = 0
        self._force_at = None

    # -- id plumbing -------------------------------------------------------

    @property
    def smvp(self):
        return self.stepper.smvp

    def current_id(self, original_pe: int) -> Optional[int]:
        """The PE's id in the live numbering, or ``None`` if evicted."""
        try:
            return self._current_to_orig.index(original_pe)
        except ValueError:
            return None

    def original_id(self, current_pe: int) -> int:
        return self._current_to_orig[current_pe]

    # -- the supervised loop ----------------------------------------------

    def run(
        self,
        num_steps: int,
        force_at=None,
        record_nodes: Optional[np.ndarray] = None,
    ) -> SupervisorReport:
        """Run ``num_steps`` supervised steps; never loses the run to a
        recoverable fault.

        ``record_nodes`` are checked and recorded as
        :meth:`ExplicitTimeStepper.run` does: the report's
        ``seismograms`` hold their displacements after each accepted
        step, in that method's shape."""
        self._force_at = force_at
        records: List = []
        dof, seis = None, None
        if record_nodes is not None:
            dof, seis = self.stepper.recorder(num_steps, record_nodes)
        start = self.stepper.step_index
        target = start + num_steps
        try:
            while self.stepper.step_index < target:
                k = self.stepper.step_index
                for orig_pe in self._kills.get(k, ()):
                    if self.current_id(orig_pe) is not None:
                        with stage_span("eviction", track="resilience"):
                            self._evict(orig_pe)
                records.append(self._supervised_step(force_at))
                if seis is not None:
                    row = self.stepper.step_index - 1 - start
                    seis[row] = self.stepper.state_rows(dof)[0].reshape(
                        seis.shape[1:]
                    )
                self.shadow.capture_from(self.stepper)
                if self.checkpoints is not None:
                    self.checkpoints.maybe_save(
                        self.stepper, self.smvp.distribution
                    )
        finally:
            self._force_at = None
        return SupervisorReport(
            records=records,
            evictions=list(self.events),
            resume_points=list(self.resume_points),
            retried_supersteps=self.retried_supersteps,
            quarantined=self.health.quarantined(),
            evicted=self.health.evicted(),
            final_num_pes=self.smvp.num_parts,
            seismograms=seis,
        )

    def _supervised_step(self, force_at):
        """One step under the escalation ladder; returns its record."""
        stepper = self.stepper
        for attempt in range(self.max_retries_per_step + 1):
            force = (
                force_at(stepper.time) if force_at is not None else None
            )
            try:
                record = stepper.step(force)
            except ExchangeFaultError as exc:
                self.retried_supersteps += 1
                count("repro_supervised_retries_total")
                self._check_recovery_budget(exc.step)
                if attempt >= self.max_retries_per_step:
                    raise
                self._escalate(exc)
                continue
            except SdcFaultError as exc:
                self.retried_supersteps += 1
                count("repro_supervised_retries_total", kind="sdc")
                self._check_recovery_budget(exc.step)
                if attempt >= self.max_retries_per_step:
                    raise
                self._escalate_sdc(exc)
                continue
            for orig_pe in self._current_to_orig:
                self.health.record_success(orig_pe)
            return record
        raise AssertionError("unreachable")  # pragma: no cover

    def _escalate(self, exc: ExchangeFaultError) -> None:
        """Blame an endpoint of the failed link and apply the policy."""
        if exc.src is None or exc.dst is None:
            # No link attribution — plain retry is all we can do.
            return
        blamed_orig = self.health.blame(
            self.original_id(exc.src), self.original_id(exc.dst)
        )
        escalation = self.health.record_failure(blamed_orig)
        if escalation is Escalation.QUARANTINE:
            self.smvp.quarantine(self.current_id(blamed_orig))
            count("repro_pe_quarantines_total", pe=blamed_orig)
        elif escalation is Escalation.EVICT:
            self._evict(blamed_orig)

    def _escalate_sdc(self, exc: SdcFaultError) -> None:
        """Apply the policy against the PE an ABFT check blamed.

        Unlike a failed exchange, SDC detection names a single PE
        directly — no link-endpoint ambiguity — so the failure lands
        on exactly that PE's health record.  Quarantine circuit-breaks
        its links (the numeric no-op rung of the ladder; it cannot fix
        a bad core, but it is the policy's mandated intermediate step);
        a continued streak evicts the PE and its corrupted influence
        with it.
        """
        if exc.pe is None:
            return
        blamed_orig = self.original_id(exc.pe)
        escalation = self.health.record_failure(blamed_orig)
        if escalation is Escalation.QUARANTINE:
            self.smvp.quarantine(self.current_id(blamed_orig))
            count("repro_pe_quarantines_total", pe=blamed_orig)
        elif escalation is Escalation.EVICT:
            self._evict(blamed_orig)

    def _check_recovery_budget(self, step: Optional[int]) -> None:
        """Enforce the per-run escalation deadline, if one is set."""
        budget = self.policy.recovery_budget
        if budget is not None and self.retried_supersteps > budget:
            raise RecoveryDeadlineError(
                f"recovery budget exhausted: {self.retried_supersteps} "
                f"retried supersteps exceed the per-run budget of "
                f"{budget}",
                budget=budget,
                retried=self.retried_supersteps,
                step=step,
            )

    # -- eviction ----------------------------------------------------------

    def _evict(self, orig_pe: int) -> EvictionEvent:
        """Evict one PE online and splice the run back together."""
        if len(self._current_to_orig) < 2:
            raise PermanentFailureError(
                "cannot evict the last surviving PE", pe=orig_pe
            )
        if (
            self.policy.max_evictions is not None
            and len(self.events) >= self.policy.max_evictions
        ):
            raise PermanentFailureError(
                f"eviction budget ({self.policy.max_evictions}) "
                "exhausted",
                pe=orig_pe,
            )
        stepper = self.stepper
        old_smvp = self.smvp
        cur = self._current_to_orig.index(orig_pe)
        old_distribution = old_smvp.distribution
        old_schedule = old_smvp.schedule
        step_index = stepper.step_index

        new_smvp, redistribution = old_smvp.reconfigure_without(cur)
        migration = migration_plan(
            old_distribution,
            new_smvp.distribution,
            cur,
            redistribution.survivor_map,
        )
        segment = (
            self.shadow.segment(cur, step_index)
            if self.policy.prefer_shadow
            else None
        )
        recomputed = 0
        if segment is not None:
            u, u_prev = splice_state(
                old_distribution, cur, stepper.u, stepper.u_prev, segment
            )
            stepper.rebind_smvp(new_smvp)
            stepper.set_state(u, u_prev, step_index)
            source = "shadow"
        else:
            recomputed = self._rollback_and_recompute(
                new_smvp, old_distribution, orig_pe, step_index
            )
            source = "checkpoint"
        old_smvp.close()

        self._current_to_orig.pop(cur)
        self.health.mark_evicted(orig_pe)
        self.shadow = ShadowStore(new_smvp.distribution)
        self.shadow.capture_from(stepper)

        delta = schedule_delta(
            old_schedule,
            new_smvp.schedule,
            id_map=redistribution.survivor_map,
        )
        cost = None
        if self.machine is not None:
            cost = model_reconfiguration(
                redistribution.affinity_flops,
                migration.migrated_words,
                migration.migrated_blocks,
                self.machine,
                recomputed_supersteps=recomputed,
            )
        event = EvictionEvent(
            dead_pe=orig_pe,
            dead_pe_current=cur,
            superstep=step_index,
            num_pes_before=old_distribution.num_parts,
            num_pes_after=new_smvp.num_parts,
            recovery_source=source,
            recomputed_supersteps=recomputed,
            migrated_words=migration.migrated_words,
            migrated_blocks=migration.migrated_blocks,
            shadow_words=migration.shadow_words,
            repartition_flops=redistribution.affinity_flops,
            redistribution_waves=redistribution.waves,
            delta=delta,
            cost=cost,
        )
        self.events.append(event)
        record_eviction(event)
        self.resume_points.append(
            ResumePoint(
                partition_parts=new_smvp.partition.parts.copy(),
                num_parts=new_smvp.num_parts,
                u=stepper.u.copy(),
                u_prev=stepper.u_prev.copy(),
                step_index=stepper.step_index,
                superstep=new_smvp._superstep,
                quarantined=new_smvp.quarantined,
                pe_ids=new_smvp.pe_ids.copy(),
            )
        )
        return event

    def _rollback_and_recompute(
        self, new_smvp, old_distribution, orig_pe: int, step_index: int
    ) -> int:
        """Checkpoint fallback: load, validate, recompute forward.

        Returns the number of recomputed supersteps.  The checkpoint
        must match the distribution the run was on when it was written
        (its header is validated against ``old_distribution``) — the
        whole state rolls back, so no cross-layout splicing happens.
        """
        stepper = self.stepper
        ck = (
            self.checkpoints.latest()
            if self.checkpoints is not None
            else None
        )
        if ck is None:
            raise PermanentFailureError(
                f"PE {orig_pe} died with no current shadow and no "
                "checkpoint to roll back to — the run is lost",
                pe=orig_pe,
                step=step_index,
            )
        if not ck.matches(old_distribution):
            raise PermanentFailureError(
                f"latest checkpoint (step {ck.step_index}) was written "
                "under a different distribution than the failing run — "
                "refusing to splice across layouts",
                pe=orig_pe,
                step=step_index,
            )
        stepper.rebind_smvp(new_smvp)
        stepper.set_state(ck.u, ck.u_prev, ck.step_index)
        recomputed = step_index - ck.step_index
        for _ in range(recomputed):
            force = (
                self._force_at(stepper.time)
                if self._force_at is not None
                else None
            )
            stepper.step(force)
        count(
            "repro_recomputed_supersteps_total",
            recomputed,
            pe=orig_pe,
        )
        return recomputed


def _normalize_kills(
    kill_schedule: Optional[Mapping[int, object]]
) -> Dict[int, List[int]]:
    """``{superstep: pe-or-sequence}`` -> ``{superstep: [pes]}``."""
    out: Dict[int, List[int]] = {}
    if kill_schedule is None:
        return out
    items = (
        kill_schedule.items()
        if hasattr(kill_schedule, "items")
        else kill_schedule
    )
    for step, pes in items:
        if isinstance(pes, (int, np.integer)):
            pes = [int(pes)]
        out[int(step)] = [int(pe) for pe in pes]
    return out
