"""Chaos harness: seeded kill schedules and survivor-equivalence proof.

``repro-chaos`` (see :mod:`repro.cli`) drives this module: run a
time-stepped distributed simulation under the
:class:`~repro.resilience.supervisor.SuperstepSupervisor` with a
deterministic :class:`KillSchedule` of permanent PE failures, then
*prove* the healing worked by relaunching a fresh executor from each
final :class:`~repro.resilience.supervisor.ResumePoint` and demanding
the final state match the supervised run to the last bit — the
acceptance bar of the self-healing design (DESIGN.md §10).  With
silent data corruption on (kernel-output flips, sticky cores), the
report also demands every flip detected and blamed on its PE
(DESIGN.md §11).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.pipeline import Problem, link_fault_injector
from repro.resilience.policy import RecoveryPolicy
from repro.resilience.supervisor import (
    EvictionEvent,
    SuperstepSupervisor,
    SupervisorReport,
)

#: SeedSequence domain tag for kill-schedule draws (the fault
#: injector's domains are 1-6; chaos stays clear of them).
_DOMAIN_KILLS = 101

#: Event attributes copied verbatim into ``ChaosReport.to_dict()``.
_EVICTION_KEYS = (
    "dead_pe",
    "superstep",
    "recovery_source",
    "recomputed_supersteps",
    "migrated_words",
    "migrated_blocks",
    "shadow_words",
    "repartition_flops",
)


@dataclass(frozen=True)
class KillSchedule:
    """Deterministic permanent-failure schedule.

    ``kills`` is a sorted tuple of ``(superstep, original PE id)``
    pairs; each PE appears at most once (a PE only dies once).
    """

    kills: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        pes = [pe for _, pe in self.kills]
        if len(set(pes)) != len(pes):
            raise ValueError("a PE can only be killed once")
        for step, pe in self.kills:
            if step < 0 or pe < 0:
                raise ValueError("kill entries must be non-negative")
        object.__setattr__(self, "kills", tuple(sorted(self.kills)))

    @classmethod
    def parse(cls, spec: str) -> "KillSchedule":
        """Parse ``"step:pe[,step:pe...]"``, e.g. ``"12:3,40:1"``."""
        kills = []
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            try:
                step_text, pe_text = token.split(":")
                kills.append((int(step_text), int(pe_text)))
            except ValueError:
                raise ValueError(
                    f"bad kill token {token!r}; expected 'superstep:pe'"
                ) from None
        if not kills:
            raise ValueError("empty kill schedule")
        return cls(tuple(kills))

    @classmethod
    def random(
        cls, seed: int, num_pes: int, num_steps: int, count: int = 1
    ) -> "KillSchedule":
        """Seeded random schedule: ``count`` distinct PEs at distinct
        supersteps in ``[0, num_steps)``, at least one PE surviving."""
        if not 1 <= count < num_pes:
            raise ValueError("count must leave at least one survivor")
        if count > num_steps:
            raise ValueError("need at least one superstep per kill")
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=(seed, _DOMAIN_KILLS))
        )
        pes = rng.choice(num_pes, size=count, replace=False)
        steps = rng.choice(num_steps, size=count, replace=False)
        return cls(
            tuple((int(s), int(p)) for s, p in zip(steps, pes))
        )

    def as_mapping(self) -> Dict[int, List[int]]:
        out: Dict[int, List[int]] = {}
        for step, pe in self.kills:
            out.setdefault(step, []).append(pe)
        return out

    def __str__(self) -> str:
        return ",".join(f"{step}:{pe}" for step, pe in self.kills)


@dataclass
class ChaosReport:
    """Outcome of one chaos run, equivalence proof included."""

    instance: str
    kernel: str
    backend: str
    num_steps: int
    num_pes_initial: int
    num_pes_final: int
    kill_schedule: str
    supervisor: SupervisorReport = field(repr=False, default=None)
    survivor_equivalent: Optional[bool] = None
    survivor_max_abs_diff: Optional[float] = None
    final_max_displacement: float = 0.0
    #: Whether the run's executors carried ABFT checksum verification.
    abft: bool = False
    # SDC tallies from the executor's cumulative FaultStats.
    sdc_injected: int = 0
    sdc_detected: int = 0
    sdc_recomputed: int = 0
    sdc_escaped: int = 0
    #: Every injected SDC produced a detection (and none escaped).
    sdc_all_detected: Optional[bool] = None
    #: Every detection was blamed to a (superstep, physical PE) that
    #: really had an injection — no false accusations.
    sdc_blame_correct: Optional[bool] = None
    #: No-eviction SDC runs only: the healed final state is bit-equal
    #: to a fault-free reference run of the same configuration.
    clean_equivalent: Optional[bool] = None
    clean_max_abs_diff: Optional[float] = None
    #: Sticky (bad-core) PEs all ended the run evicted.
    sticky_evicted: Optional[bool] = None

    @property
    def evictions(self) -> List[EvictionEvent]:
        return self.supervisor.evictions if self.supervisor else []

    def gates(self) -> List[Tuple[str, Optional[bool]]]:
        """Every pass/fail gate as ``(name, verdict)``; a verdict is
        ``None`` when the gate did not apply to this run (e.g. no clean
        reference on an eviction run)."""
        return [
            ("survivor equivalence", self.survivor_equivalent),
            ("all SDC detected", self.sdc_all_detected),
            ("SDC blame attribution", self.sdc_blame_correct),
            ("fault-free bit-equivalence", self.clean_equivalent),
            ("sticky PEs evicted", self.sticky_evicted),
        ]

    @property
    def failed_gates(self) -> List[str]:
        """Names of the gates that applied and broke."""
        return [name for name, verdict in self.gates() if verdict is False]

    @property
    def passed(self) -> bool:
        """Every gate that applied to this run held; a run with no
        applicable gate — ``verify=False`` and no SDC — passes
        vacuously."""
        return not self.failed_gates

    def to_dict(self) -> dict:
        """The ``repro-chaos --json`` payload: every field of the report
        but the raw supervisor record, whose evictions are flattened to
        plain values instead, plus the verdict."""
        payload = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "supervisor"
        }
        payload["evictions"] = [
            {
                **{key: getattr(e, key) for key in _EVICTION_KEYS},
                "c_max_after": e.delta.c_max_after,
                "b_max_after": e.delta.b_max_after,
                "cost_seconds": (
                    e.cost.t_total if e.cost is not None else None
                ),
            }
            for e in self.evictions
        ]
        payload["retried_supersteps"] = self.supervisor.retried_supersteps
        payload["passed"] = self.passed
        return payload


def run_chaos(
    instance: str = "sf10e",
    pes: int = 8,
    steps: int = 40,
    kills: Optional[KillSchedule] = None,
    backend: str = "serial",
    policy: Optional[RecoveryPolicy] = None,
    machine_name: str = "t3e",
    fault_rate: float = 0.0,
    seed: int = 0,
    checkpoint_dir=None,
    checkpoint_interval: int = 10,
    verify: bool = True,
    flip_rate: float = 0.0,
    sticky: Tuple[int, ...] = (),
    sticky_from: int = 0,
    abft: Optional[bool] = None,
) -> ChaosReport:
    """Run a supervised simulation under a kill schedule and verify.

    The verification relaunches a *fresh* executor from the last
    eviction's :class:`ResumePoint` — same partition, same injector
    seed, same exchange counter, same quarantine set — steps it to the
    end, and demands exact (bit-level) agreement with the supervised
    run's final ``(u, u_prev)``.

    ``flip_rate`` turns on silent data corruption: per PE per
    superstep, a bit flips in the local kernel output at that rate.
    ``sticky`` names physical PE ids that corrupt *every* kernel output
    from ``sticky_from`` on — the bad-core model that defeats the
    inline recompute and must be escalated through quarantine to
    eviction.  Either implies ABFT
    verification on every executor (override with ``abft``); when no
    kill schedule is given, SDC runs default to an *empty* one so the
    corruption story stands alone.

    SDC runs add gates beyond survivor equivalence: every injection
    detected and blamed to the right (superstep, physical PE), nothing
    escaped, and — when no eviction reshaped the partition — the healed
    final state bit-identical to a fault-free reference run.

    A kill scheduled at a superstep the run never reaches (``>=
    steps``) is refused with :class:`ValueError`: it would evict
    nothing and the survivor-equivalence gate would pass vacuously.
    """
    from repro.faults import CheckpointManager
    from repro.model.machine import MACHINES
    from repro.partition.base import Partition

    sticky = tuple(int(pe) for pe in sticky)
    sdc_configured = flip_rate > 0 or bool(sticky)
    if any(not 0 <= pe < pes for pe in sticky):
        raise ValueError(
            f"sticky PEs must be in [0, {pes}), got {sticky}"
        )
    if kills is None:
        # SDC runs default to no permanent kills: the corruption story
        # (detect/heal/escalate) should stand on its own unless the
        # caller explicitly stacks a kill schedule on top.
        kills = (
            KillSchedule(())
            if sdc_configured
            else KillSchedule.random(seed, pes, steps, count=1)
        )
    for step, _ in kills.kills:
        if step >= steps:
            raise ValueError(
                f"kill at superstep {step} never fires: the run has "
                f"{steps} steps (supersteps 0..{steps - 1})"
            )
    use_abft = bool(abft) if abft is not None else sdc_configured
    machine = MACHINES[machine_name] if machine_name else None

    problem = Problem.from_instance(instance)
    partition = problem.partition(pes)
    injector = link_fault_injector(
        fault_rate,
        seed,
        flip_rate=flip_rate,
        sticky_pes=sticky,
        sticky_from_step=sticky_from,
    )
    checkpoints = None
    if checkpoint_dir is not None:
        checkpoints = CheckpointManager(
            checkpoint_dir, interval=checkpoint_interval
        )

    force_at = problem.constant_force()
    smvp = problem.executor(
        partition,
        backend=backend,
        injector=injector,
        abft=use_abft,
    )
    stepper = problem.stepper(smvp)
    supervisor = SuperstepSupervisor(
        stepper,
        policy=policy,
        checkpoints=checkpoints,
        kill_schedule=kills.as_mapping(),
        machine=machine,
    )
    try:
        sup_report = supervisor.run(steps, force_at=force_at)
        u_final = stepper.u.copy()
        u_prev_final = stepper.u_prev.copy()
        # sdc_stats/sdc_events are shared across eviction-spawned
        # executors, so the final smvp holds the whole run's tallies.
        sdc_stats = stepper.smvp.sdc_stats
        sdc_events = list(stepper.smvp.sdc_events)
    finally:
        stepper.smvp.close()

    report = ChaosReport(
        instance=instance,
        kernel=smvp.kernel_name,
        backend=backend,
        num_steps=steps,
        num_pes_initial=pes,
        num_pes_final=sup_report.final_num_pes,
        kill_schedule=str(kills) or "none",
        supervisor=sup_report,
        final_max_displacement=float(np.abs(u_final).max()),
        abft=use_abft,
        sdc_injected=sdc_stats.injected_sdc,
        sdc_detected=sdc_stats.detected_sdc,
        sdc_recomputed=sdc_stats.recomputed_sdc,
        sdc_escaped=sdc_stats.escaped_sdc,
    )
    if sdc_configured:
        injected_sites = {
            (e.step, e.physical_pe)
            for e in sdc_events
            if e.action == "injected"
        }
        detected_sites = {
            (e.step, e.physical_pe)
            for e in sdc_events
            if e.action == "detected"
        }
        report.sdc_all_detected = (
            sdc_stats.escaped_sdc == 0
            and injected_sites <= detected_sites
        )
        report.sdc_blame_correct = detected_sites <= injected_sites
        if sticky:
            report.sticky_evicted = set(sticky) <= set(sup_report.evicted)
    if not verify:
        return report

    if sdc_configured and not sup_report.evictions:
        # No eviction reshaped the partition, so the healed trajectory
        # must be *bit-identical* to a fault-free run — the strongest
        # possible statement that every corruption was contained.
        reference = problem.executor(partition, backend=backend)
        try:
            ref_stepper = problem.stepper(reference)
            ref_stepper.run(steps, force_at=force_at)
            diff = np.abs(ref_stepper.u - u_final)
            report.clean_max_abs_diff = float(diff.max())
            report.clean_equivalent = bool(
                np.array_equal(ref_stepper.u, u_final)
                and np.array_equal(ref_stepper.u_prev, u_prev_final)
            )
        finally:
            reference.close()
    if not sup_report.resume_points:
        return report

    rp = sup_report.resume_points[-1]
    fresh = problem.executor(
        Partition(rp.partition_parts.copy(), rp.num_parts, method="resume"),
        backend=backend,
        injector=injector,
        abft=use_abft,
        pe_ids=rp.pe_ids,
    )
    try:
        fresh.reset_superstep(rp.superstep)
        for pe in sorted(rp.quarantined):
            fresh.quarantine(pe)
        fresh_stepper = problem.stepper(fresh)
        fresh_stepper.set_state(rp.u, rp.u_prev, rp.step_index)
        fresh_stepper.run(steps - rp.step_index, force_at=force_at)
        diff = np.abs(fresh_stepper.u - u_final)
        report.survivor_max_abs_diff = float(diff.max())
        report.survivor_equivalent = bool(
            np.array_equal(fresh_stepper.u, u_final)
            and np.array_equal(fresh_stepper.u_prev, u_prev_final)
        )
    finally:
        fresh.close()
    return report


def render_chaos_report(report: ChaosReport) -> List[str]:
    """Human-readable summary lines for the CLI."""
    lines = [
        f"chaos run: {report.instance} x {report.num_steps} steps, "
        f"{report.num_pes_initial} -> {report.num_pes_final} PEs "
        f"({report.kernel}/{report.backend})",
        f"kill schedule: {report.kill_schedule}",
        f"evictions: {len(report.evictions)}",
    ]
    for event in report.evictions:
        cost_text = (
            f", modeled cost {event.cost.t_total:.3e} s"
            if event.cost is not None
            else ""
        )
        lines.append(
            f"  superstep {event.superstep}: PE {event.dead_pe} "
            f"({event.num_pes_before} -> {event.num_pes_after} PEs) "
            f"via {event.recovery_source}; migrated "
            f"{event.migrated_words} words in {event.migrated_blocks} "
            f"blocks, repartition {event.repartition_flops} flops in "
            f"{event.redistribution_waves} waves"
            f"{cost_text}"
        )
        lines.append(
            f"    schedule: C_max {event.delta.c_max_before} -> "
            f"{event.delta.c_max_after}, B_max "
            f"{event.delta.b_max_before} -> {event.delta.b_max_after}, "
            f"beta {event.delta.beta_before:.3f} -> "
            f"{event.delta.beta_after:.3f}"
        )
    sup = report.supervisor
    if sup is not None:
        lines.append(
            f"retried supersteps: {sup.retried_supersteps}; "
            f"quarantined PEs: {sup.quarantined or 'none'}"
        )
        total_cost = sup.total_reconfiguration_seconds
        if total_cost is not None:
            lines.append(
                f"total migrated words: {sup.total_migrated_words}; "
                f"total reconfiguration cost: {total_cost:.3e} s"
            )
    if report.abft or report.sdc_injected:
        lines.append(
            f"SDC: {report.sdc_injected} injected, "
            f"{report.sdc_detected} detected, "
            f"{report.sdc_recomputed} recomputed, "
            f"{report.sdc_escaped} escaped"
        )
    for label, verdict in (
        ("all SDC detected", report.sdc_all_detected),
        (
            "blame attribution (superstep, physical PE)",
            report.sdc_blame_correct,
        ),
        ("sticky PEs evicted", report.sticky_evicted),
    ):
        if verdict is not None:
            lines.append(f"{label}: {'PASS' if verdict else 'FAIL'}")
    if report.clean_equivalent is not None:
        verdict = "PASS" if report.clean_equivalent else "FAIL"
        lines.append(
            f"bit-identical to fault-free run: {verdict} "
            f"(max |diff| = {report.clean_max_abs_diff:.3e})"
        )
    if report.survivor_equivalent is not None:
        verdict = "PASS" if report.survivor_equivalent else "FAIL"
        lines.append(
            f"survivor equivalence: {verdict} "
            f"(max |diff| = {report.survivor_max_abs_diff:.3e})"
        )
    lines.append(
        f"final max displacement: {report.final_max_displacement:.6e}"
    )
    return lines
