"""Tests for the self-healing execution layer (repro.resilience).

Covers the acceptance contract of the resilience subsystem:

* escalation policy and per-PE health bookkeeping,
* deterministic post-eviction redistribution with full element
  coverage and survivor-stable renumbering,
* online eviction continuing bit-consistently on P-1 PEs — including
  the max-C_i PE, two sequential evictions and an eviction during the
  very first superstep,
* shadow-splice recovery and the checkpoint rollback fallback,
* the supervised no-fault path staying bit-identical to an
  unsupervised run,
* quarantine escalation under transient link faults,
* the chaos harness and ``repro-chaos`` CLI.
"""

import numpy as np
import pytest

from repro.faults import (
    CheckpointManager,
    FaultConfig,
    FaultInjector,
    PermanentFailureError,
)
from repro.fem.assembly import assemble_lumped_mass, assemble_stiffness
from repro.fem.timestepper import ExplicitTimeStepper, stable_timestep
from repro.partition.base import Partition, partition_mesh
from repro.resilience import (
    Escalation,
    HealthTracker,
    KillSchedule,
    PEState,
    PolicyConfigError,
    RecoveryPolicy,
    ShadowStore,
    SuperstepSupervisor,
    migration_plan,
    run_chaos,
    splice_state,
)
from repro.smvp.backends import backend_names
from repro.smvp.distribution import (
    DataDistribution,
    redistribute_after_eviction,
)
from repro.smvp.executor import DistributedSMVP
from repro.smvp.schedule import schedule_delta
from repro.telemetry.registry import MetricsRegistry, use_registry


@pytest.fixture(scope="module")
def demo_stiffness(demo_mesh, demo_materials):
    return assemble_stiffness(demo_mesh, demo_materials)


@pytest.fixture(scope="module")
def demo_mass(demo_mesh, demo_materials):
    return assemble_lumped_mass(demo_mesh, demo_materials)


@pytest.fixture(scope="module")
def demo_dt(demo_mesh, demo_materials):
    return stable_timestep(demo_mesh, demo_materials)


@pytest.fixture()
def problem(demo_mesh, demo_stiffness, demo_mass, demo_dt):
    force = np.zeros(3 * demo_mesh.num_nodes)
    force[: min(300, force.size)] = 1e9
    return demo_stiffness, demo_mass, demo_dt, (lambda t: force)


def make_supervised(
    mesh, materials, problem, pes=6, kills=None, policy=None,
    backend="serial", abft=False, rhs=1, **kwargs
):
    stiffness, mass, dt, force_at = problem
    smvp = DistributedSMVP(
        mesh, partition_mesh(mesh, pes), materials,
        backend=backend, abft=abft,
    )
    stepper = ExplicitTimeStepper(stiffness, mass, dt, smvp=smvp, rhs=rhs)
    supervisor = SuperstepSupervisor(
        stepper, policy=policy, kill_schedule=kills, **kwargs
    )
    return stepper, supervisor, force_at


class TestRecoveryPolicy:
    def test_thresholds_validated(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(quarantine_after=0)
        with pytest.raises(ValueError):
            RecoveryPolicy(quarantine_after=3, evict_after=2)
        with pytest.raises(ValueError):
            RecoveryPolicy(max_evictions=-1)

    def test_recovery_policy_raises_same_type(self):
        with pytest.raises(PolicyConfigError):
            RecoveryPolicy(quarantine_after=0)

    def test_escalation_ladder(self):
        tracker = HealthTracker(4, RecoveryPolicy(2, 3))
        assert tracker.record_failure(1) is Escalation.RETRY
        assert tracker.states[1] is PEState.SUSPECT
        assert tracker.record_failure(1) is Escalation.QUARANTINE
        assert tracker.states[1] is PEState.QUARANTINED
        assert tracker.record_failure(1) is Escalation.EVICT

    def test_success_clears_streak_but_not_quarantine(self):
        tracker = HealthTracker(4, RecoveryPolicy(2, 3))
        tracker.record_failure(1)
        tracker.record_success(1)
        assert tracker.states[1] is PEState.HEALTHY
        assert tracker.consecutive_failures[1] == 0
        tracker.record_failure(2)
        tracker.record_failure(2)  # quarantined
        tracker.record_success(2)
        assert tracker.states[2] is PEState.QUARANTINED  # sticky
        assert tracker.total_failures[2] == 2

    def test_blame_is_deterministic_and_sticky(self):
        tracker = HealthTracker(4, RecoveryPolicy(2, 4))
        assert tracker.blame(2, 3) == 2  # tie: lower id
        tracker.record_failure(3)
        assert tracker.blame(2, 3) == 3  # worse streak wins

    def test_evicted_pe_rejected(self):
        tracker = HealthTracker(4, RecoveryPolicy())
        tracker.mark_evicted(2)
        assert tracker.evicted() == [2]
        with pytest.raises(ValueError):
            tracker.record_failure(2)


class TestRedistribution:
    def test_covers_and_compacts(self, demo_mesh):
        partition = partition_mesh(demo_mesh, 6, seed=1)
        new, stats = redistribute_after_eviction(demo_mesh, partition, 2)
        assert new.num_parts == 5
        assert np.all(new.parts >= 0) and np.all(new.parts < 5)
        # Survivors keep every element they owned, renumbered stably.
        for old, renum in stats.survivor_map.items():
            old_elems = partition.elements_of(old)
            assert set(old_elems) <= set(new.elements_of(renum))
        assert stats.orphan_elements == len(partition.elements_of(2))
        assert stats.dead_pe == 2
        assert stats.affinity_flops > 0 and stats.waves >= 1

    def test_deterministic(self, demo_mesh):
        partition = partition_mesh(demo_mesh, 6, seed=1)
        a, _ = redistribute_after_eviction(demo_mesh, partition, 3)
        b, _ = redistribute_after_eviction(demo_mesh, partition, 3)
        assert np.array_equal(a.parts, b.parts)

    def test_rejects_bad_inputs(self, demo_mesh):
        partition = partition_mesh(demo_mesh, 6, seed=1)
        with pytest.raises(ValueError):
            redistribute_after_eviction(demo_mesh, partition, 6)
        single = Partition(
            np.zeros(demo_mesh.num_elements, dtype=np.int32), 1
        )
        with pytest.raises(ValueError, match="last surviving"):
            redistribute_after_eviction(demo_mesh, single, 0)

    @pytest.mark.parametrize("dead", range(6))
    def test_every_victim_compacts_in_survivor_order(self, demo_mesh, dead):
        partition = partition_mesh(demo_mesh, 6, seed=1)
        new, stats = redistribute_after_eviction(demo_mesh, partition, dead)
        # Ids below the dead PE keep theirs; ids above it shift down one.
        assert stats.survivor_map == {
            old: old - (old > dead) for old in range(6) if old != dead
        }
        orphans = partition.parts == dead
        assert stats.orphan_elements == int(orphans.sum())
        kept = partition.parts[~orphans]
        assert np.array_equal(new.parts[~orphans], kept - (kept > dead))
        assert np.all(new.parts[orphans] < 5)

    def test_migration_plan_prices_new_residency(self, demo_mesh):
        partition = partition_mesh(demo_mesh, 6, seed=1)
        old = DataDistribution(demo_mesh, partition)
        new_part, stats = redistribute_after_eviction(
            demo_mesh, partition, 2
        )
        new = DataDistribution(demo_mesh, new_part)
        plan = migration_plan(old, new, 2, stats.survivor_map)
        assert plan.migrated_words > 0
        assert 1 <= plan.migrated_blocks <= 5
        assert plan.shadow_words == 6 * len(old.exclusive_nodes[2])
        assert plan.migrated_words % 6 == 0  # whole nodes, u + u_prev


class TestReconfigureWithout:
    def test_physical_ids_survive_two_evictions(
        self, demo_mesh, demo_materials
    ):
        with DistributedSMVP(
            demo_mesh, partition_mesh(demo_mesh, 5), demo_materials
        ) as first:
            second, _ = first.reconfigure_without(1)
            with second:
                # Slot 2 of the survivors is physical PE 3.
                third, _ = second.reconfigure_without(2)
                with third:
                    assert second.pe_ids.tolist() == [0, 2, 3, 4]
                    assert third.pe_ids.tolist() == [0, 2, 4]

    def test_quarantine_carries_over_remapped(
        self, demo_mesh, demo_materials
    ):
        with DistributedSMVP(
            demo_mesh, partition_mesh(demo_mesh, 5), demo_materials
        ) as old:
            old.quarantine(1)
            old.quarantine(4)
            new, _ = old.reconfigure_without(1)
            with new:
                # The dead PE's quarantine goes with it; PE 4 is slot 3.
                assert new.quarantined == frozenset({3})

    def test_successor_keeps_backend_and_abft(
        self, demo_mesh, demo_materials
    ):
        x = np.linspace(-1.0, 1.0, 3 * demo_mesh.num_nodes)
        with DistributedSMVP(
            demo_mesh, partition_mesh(demo_mesh, 4), demo_materials,
            backend="threaded", abft=True,
        ) as old:
            new, _ = old.reconfigure_without(0)
            with new:
                assert new.backend_name == "threaded"
                assert new.abft_enabled
                with DistributedSMVP(
                    demo_mesh, new.partition, demo_materials
                ) as fresh:
                    assert np.array_equal(new.multiply(x), fresh.multiply(x))


class TestShadowStore:
    def test_initial_capture_covers_step_zero(self, demo_mesh):
        dist = DataDistribution(demo_mesh, partition_mesh(demo_mesh, 4))
        store = ShadowStore(dist)
        n3 = 3 * demo_mesh.num_nodes
        store.capture(np.zeros(n3), np.zeros(n3), 0)
        assert store.segment(2, 0) is not None
        assert store.segment(2, 1) is None  # stale is reported missing

    def test_words_per_capture_counts_exclusive_only(self, demo_mesh):
        dist = DataDistribution(demo_mesh, partition_mesh(demo_mesh, 4))
        store = ShadowStore(dist)
        exclusive = sum(len(e) for e in dist.exclusive_nodes)
        assert store.words_per_capture == 2 * 3 * exclusive
        assert store.buddy_of(3) == 0

    def test_splice_refuses_coverage_holes(self, demo_mesh):
        dist = DataDistribution(demo_mesh, partition_mesh(demo_mesh, 4))
        store = ShadowStore(dist)
        n3 = 3 * demo_mesh.num_nodes
        store.capture(np.ones(n3), np.ones(n3), 5)
        seg = store.segment(1, 5)
        # Truncated shadow: simulate a buddy that lost half its copy.
        seg.dofs = seg.dofs[: len(seg.dofs) // 2]
        seg.u = seg.u[: len(seg.dofs)]
        seg.u_prev = seg.u_prev[: len(seg.dofs)]
        with pytest.raises(PermanentFailureError):
            splice_state(dist, 1, np.ones(n3), np.ones(n3), seg)


class TestOnlineEviction:
    def fresh_reference(
        self, mesh, materials, problem, resume_point, total_steps,
        rhs=1, **smvp_kwargs
    ):
        """Final state of a fresh P-1 run launched from a ResumePoint."""
        stiffness, mass, dt, force_at = problem
        rp = resume_point
        smvp = DistributedSMVP(
            mesh,
            Partition(rp.partition_parts.copy(), rp.num_parts, "resume"),
            materials,
            pe_ids=rp.pe_ids,
            **smvp_kwargs,
        )
        try:
            smvp.reset_superstep(rp.superstep)
            stepper = ExplicitTimeStepper(
                stiffness, mass, dt, smvp=smvp, rhs=rhs
            )
            stepper.set_state(rp.u, rp.u_prev, rp.step_index)
            stepper.run(total_steps - rp.step_index, force_at=force_at)
            return stepper.u.copy(), stepper.u_prev.copy()
        finally:
            smvp.close()

    @pytest.mark.parametrize(
        "rhs, abft", [(1, False), (16, False), (1, True)],
        ids=["plain", "rhs16", "abft"],
    )
    def test_eviction_matches_fresh_survivor_run(
        self, demo_mesh, demo_materials, problem, rhs, abft
    ):
        stepper, supervisor, force_at = make_supervised(
            demo_mesh, demo_materials, problem, kills={5: 2},
            rhs=rhs, abft=abft,
        )
        try:
            report = supervisor.run(12, force_at=force_at)
        finally:
            stepper.smvp.close()
        assert report.final_num_pes == 5
        assert stepper.u.shape[1:] == (() if rhs == 1 else (rhs,))
        [event] = report.evictions
        assert event.recovery_source == "shadow"
        assert event.superstep == 5
        u_ref, u_prev_ref = self.fresh_reference(
            demo_mesh, demo_materials, problem, report.resume_points[-1], 12,
            rhs=rhs, abft=abft,
        )
        assert np.array_equal(stepper.u, u_ref)
        assert np.array_equal(stepper.u_prev, u_prev_ref)

    def test_evicting_the_max_ci_pe_recomputes_bounds(
        self, demo_mesh, demo_materials, problem
    ):
        stiffness, mass, dt, force_at = problem
        smvp = DistributedSMVP(
            demo_mesh, partition_mesh(demo_mesh, 6), demo_materials
        )
        hot = int(np.argmax(smvp.schedule.words_per_pe))  # the max-C_i PE
        old_schedule = smvp.schedule
        stepper = ExplicitTimeStepper(stiffness, mass, dt, smvp=smvp)
        supervisor = SuperstepSupervisor(stepper, kill_schedule={4: hot})
        try:
            report = supervisor.run(10, force_at=force_at)
        finally:
            stepper.smvp.close()
        [event] = report.evictions
        assert event.dead_pe == hot
        # The delta is recomputed from the *new* schedule, whose C_max
        # no longer belongs to the dead PE's row set.
        identity = schedule_delta(old_schedule, old_schedule)
        assert event.delta.num_parts_after == 5
        assert event.delta.c_max_after > 0
        assert event.delta.b_max_after > 0
        assert event.delta.beta_after >= 1.0
        assert event.delta.c_max_before == identity.c_max_before
        u_ref, _ = self.fresh_reference(
            demo_mesh, demo_materials, problem, report.resume_points[-1], 10
        )
        assert np.array_equal(stepper.u, u_ref)

    @pytest.mark.parametrize("backend", sorted(backend_names()))
    def test_two_sequential_evictions(
        self, demo_mesh, demo_materials, problem, backend
    ):
        stepper, supervisor, force_at = make_supervised(
            demo_mesh, demo_materials, problem, kills={3: 1, 8: 4},
            backend=backend,
        )
        try:
            report = supervisor.run(12, force_at=force_at)
        finally:
            stepper.smvp.close()
        assert report.final_num_pes == 4
        assert [e.dead_pe for e in report.evictions] == [1, 4]
        assert report.evictions[0].num_pes_after == 5
        assert report.evictions[1].num_pes_before == 5
        u_ref, u_prev_ref = self.fresh_reference(
            demo_mesh, demo_materials, problem, report.resume_points[-1], 12,
            backend=backend,
        )
        assert np.array_equal(stepper.u, u_ref)
        assert np.array_equal(stepper.u_prev, u_prev_ref)

    def test_eviction_during_first_superstep(
        self, demo_mesh, demo_materials, problem
    ):
        stepper, supervisor, force_at = make_supervised(
            demo_mesh, demo_materials, problem, kills={0: 3}
        )
        try:
            report = supervisor.run(6, force_at=force_at)
        finally:
            stepper.smvp.close()
        [event] = report.evictions
        assert event.superstep == 0
        assert event.recovery_source == "shadow"  # construction capture
        u_ref, _ = self.fresh_reference(
            demo_mesh, demo_materials, problem, report.resume_points[-1], 6
        )
        assert np.array_equal(stepper.u, u_ref)

    def test_checkpoint_fallback_rolls_back_and_recomputes(
        self, demo_mesh, demo_materials, problem, tmp_path
    ):
        manager = CheckpointManager(tmp_path, interval=4)
        stepper, supervisor, force_at = make_supervised(
            demo_mesh,
            demo_materials,
            problem,
            kills={10: 2},
            policy=RecoveryPolicy(prefer_shadow=False),
            checkpoints=manager,
        )
        try:
            report = supervisor.run(14, force_at=force_at)
        finally:
            stepper.smvp.close()
        [event] = report.evictions
        assert event.recovery_source == "checkpoint"
        assert event.recomputed_supersteps == 2  # step 10 back to 8
        u_ref, _ = self.fresh_reference(
            demo_mesh, demo_materials, problem, report.resume_points[-1], 14
        )
        assert np.array_equal(stepper.u, u_ref)

    @pytest.mark.parametrize("backend", sorted(backend_names()))
    def test_checkpoint_rollback_on_every_backend(
        self, demo_mesh, demo_materials, problem, tmp_path, backend
    ):
        stepper, supervisor, force_at = make_supervised(
            demo_mesh,
            demo_materials,
            problem,
            kills={7: 4},
            policy=RecoveryPolicy(prefer_shadow=False),
            checkpoints=CheckpointManager(tmp_path, interval=3),
            backend=backend,
        )
        try:
            report = supervisor.run(10, force_at=force_at)
        finally:
            stepper.smvp.close()
        [event] = report.evictions
        assert event.recovery_source == "checkpoint"
        assert event.recomputed_supersteps == 1  # step 7 back to 6
        u_ref, u_prev_ref = self.fresh_reference(
            demo_mesh, demo_materials, problem, report.resume_points[-1], 10,
            backend=backend,
        )
        assert np.array_equal(stepper.u, u_ref)
        assert np.array_equal(stepper.u_prev, u_prev_ref)

    def test_no_shadow_no_checkpoint_is_a_typed_loss(
        self, demo_mesh, demo_materials, problem
    ):
        stepper, supervisor, force_at = make_supervised(
            demo_mesh,
            demo_materials,
            problem,
            kills={3: 2},
            policy=RecoveryPolicy(prefer_shadow=False),
        )
        try:
            with pytest.raises(PermanentFailureError, match="no checkpoint"):
                supervisor.run(6, force_at=force_at)
        finally:
            stepper.smvp.close()

    def test_eviction_budget_enforced(
        self, demo_mesh, demo_materials, problem
    ):
        stepper, supervisor, force_at = make_supervised(
            demo_mesh,
            demo_materials,
            problem,
            kills={1: 0, 2: 1},
            policy=RecoveryPolicy(max_evictions=1),
        )
        try:
            with pytest.raises(PermanentFailureError, match="budget"):
                supervisor.run(6, force_at=force_at)
        finally:
            stepper.smvp.close()

    def test_telemetry_counts_evictions(
        self, demo_mesh, demo_materials, problem
    ):
        registry = MetricsRegistry()
        with use_registry(registry):
            stepper, supervisor, force_at = make_supervised(
                demo_mesh, demo_materials, problem, kills={2: 1}
            )
            try:
                supervisor.run(5, force_at=force_at)
            finally:
                stepper.smvp.close()
        counters = registry.snapshot()["counters"]
        assert counters["repro_pe_evictions_total"]["total"] == 1
        assert counters["repro_eviction_migrated_words_total"]["total"] > 0
        [series] = counters["repro_pe_evictions_total"]["series"]
        assert series["labels"]["dead_pe"] == "1"
        assert series["labels"]["source"] == "shadow"


class TestSupervisedNoFaultPath:
    def test_supervised_equals_plain_run(
        self, demo_mesh, demo_materials, problem
    ):
        stiffness, mass, dt, force_at = problem
        partition = partition_mesh(demo_mesh, 6)
        plain_smvp = DistributedSMVP(
            demo_mesh, partition, demo_materials
        )
        plain = ExplicitTimeStepper(stiffness, mass, dt, smvp=plain_smvp)
        try:
            plain.run(8, force_at=force_at)
        finally:
            plain_smvp.close()

        sup_smvp = DistributedSMVP(demo_mesh, partition, demo_materials)
        supervised = ExplicitTimeStepper(
            stiffness, mass, dt, smvp=sup_smvp
        )
        supervisor = SuperstepSupervisor(supervised)
        try:
            report = supervisor.run(8, force_at=force_at)
        finally:
            supervised.smvp.close()
        assert np.array_equal(supervised.u, plain.u)
        assert np.array_equal(supervised.u_prev, plain.u_prev)
        assert report.evictions == []
        assert report.retried_supersteps == 0

    @pytest.mark.parametrize("backend", ["serial", "threaded"])
    def test_supervised_seismograms_equal_plain_run(
        self, demo_mesh, demo_materials, problem, backend
    ):
        stiffness, mass, dt, force_at = problem
        partition = partition_mesh(demo_mesh, 6)
        nodes = np.array([0, 7, demo_mesh.num_nodes - 1])
        runs = []
        for supervised in (False, True):
            smvp = DistributedSMVP(
                demo_mesh, partition, demo_materials, backend=backend
            )
            stepper = ExplicitTimeStepper(stiffness, mass, dt, smvp=smvp)
            try:
                if supervised:
                    report = SuperstepSupervisor(stepper).run(
                        8, force_at=force_at, record_nodes=nodes
                    )
                    runs.append(report.seismograms)
                else:
                    runs.append(
                        stepper.run(8, force_at=force_at, record_nodes=nodes)[1]
                    )
            finally:
                smvp.close()
        plain, supervised = runs
        assert supervised.shape == plain.shape == (8, 3, 3)
        assert plain.any()
        assert np.array_equal(supervised, plain)

    def test_scripted_kill_records_one_row_per_step(
        self, demo_mesh, demo_materials, problem
    ):
        stepper, supervisor, force_at = make_supervised(
            demo_mesh, demo_materials, problem, kills={5: 2}
        )
        nodes = np.array([3, 11])
        try:
            report = supervisor.run(12, force_at=force_at, record_nodes=nodes)
        finally:
            stepper.smvp.close()
        assert report.final_num_pes == 5
        seis = report.seismograms
        assert seis.shape == (12, 2, 3) and np.isfinite(seis).all()
        dof = (3 * nodes[:, None] + np.arange(3)).ravel()
        assert np.array_equal(seis[-1].ravel(), stepper.u[dof])
        # The steps before the kill are the unsupervised run's.
        plain, _, _ = make_supervised(demo_mesh, demo_materials, problem)
        try:
            _, want = plain.run(5, force_at=force_at, record_nodes=nodes)
        finally:
            plain.smvp.close()
        assert np.array_equal(seis[:5], want)

    def test_supervisor_refuses_bad_record_nodes_before_a_step(
        self, demo_mesh, demo_materials, problem
    ):
        stepper, supervisor, force_at = make_supervised(
            demo_mesh, demo_materials, problem
        )
        try:
            with pytest.raises(ValueError, match=r"\[-1\] are not node ids"):
                supervisor.run(3, force_at=force_at, record_nodes=[0, -1])
            assert stepper.step_index == 0
            assert supervisor.run(2, force_at=force_at).seismograms is None
        finally:
            stepper.smvp.close()

    def test_supervisor_requires_distributed_smvp(
        self, demo_stiffness, demo_mass, demo_dt
    ):
        stepper = ExplicitTimeStepper(demo_stiffness, demo_mass, demo_dt)
        with pytest.raises(ValueError, match="DistributedSMVP"):
            SuperstepSupervisor(stepper)


class TestQuarantineEscalation:
    def test_link_faults_retry_then_quarantine(
        self, demo_mesh, demo_materials, problem
    ):
        stiffness, mass, dt, force_at = problem
        injector = FaultInjector(
            FaultConfig(seed=3, drop_rate=0.35, max_retries=1)
        )
        smvp = DistributedSMVP(
            demo_mesh,
            partition_mesh(demo_mesh, 6),
            demo_materials,
            injector=injector,
        )
        stepper = ExplicitTimeStepper(stiffness, mass, dt, smvp=smvp)
        supervisor = SuperstepSupervisor(
            stepper, policy=RecoveryPolicy(quarantine_after=2, evict_after=9)
        )
        try:
            report = supervisor.run(10, force_at=force_at)
        finally:
            stepper.smvp.close()
        assert stepper.step_index == 10  # the run survived
        assert report.retried_supersteps > 0
        assert report.quarantined  # at least one PE circuit-broken
        assert stepper.smvp.quarantined  # applied to the transport

    def test_quarantine_lasts_for_the_rest_of_the_run(
        self, demo_mesh, demo_materials, problem
    ):
        """No readmission: once circuit-broken, a PE stays quarantined
        through every later clean superstep."""
        stiffness, mass, dt, force_at = problem
        injector = FaultInjector(
            FaultConfig(seed=3, drop_rate=0.35, max_retries=1)
        )
        smvp = DistributedSMVP(
            demo_mesh,
            partition_mesh(demo_mesh, 6),
            demo_materials,
            injector=injector,
        )
        stepper = ExplicitTimeStepper(stiffness, mass, dt, smvp=smvp)
        supervisor = SuperstepSupervisor(
            stepper, policy=RecoveryPolicy(quarantine_after=1, evict_after=99)
        )
        try:
            report = supervisor.run(10, force_at=force_at)
        finally:
            stepper.smvp.close()
        assert report.final_num_pes == 6 and not report.evicted
        assert report.quarantined
        assert frozenset(report.quarantined) == stepper.smvp.quarantined
        assert all(
            supervisor.health.states[pe] is PEState.QUARANTINED
            for pe in report.quarantined
        )

    def test_link_fault_streak_escalates_to_eviction(
        self, demo_mesh, demo_materials, problem
    ):
        stiffness, mass, dt, force_at = problem
        injector = FaultInjector(
            FaultConfig(seed=3, drop_rate=0.45, max_retries=1)
        )
        smvp = DistributedSMVP(
            demo_mesh,
            partition_mesh(demo_mesh, 6),
            demo_materials,
            injector=injector,
        )
        stepper = ExplicitTimeStepper(stiffness, mass, dt, smvp=smvp)
        supervisor = SuperstepSupervisor(
            stepper,
            policy=RecoveryPolicy(quarantine_after=3, evict_after=3),
        )
        try:
            report = supervisor.run(6, force_at=force_at)
        finally:
            stepper.smvp.close()
        assert stepper.step_index == 6
        assert report.evicted  # the streak crossed evict_after
        assert report.final_num_pes < 6


class TestKillSchedule:
    def test_parse_and_render(self):
        ks = KillSchedule.parse("12:3, 4:1")
        assert ks.kills == ((4, 1), (12, 3))
        assert str(ks) == "4:1,12:3"
        assert ks.as_mapping() == {4: [1], 12: [3]}

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            KillSchedule.parse("12-3")
        with pytest.raises(ValueError):
            KillSchedule.parse("")
        with pytest.raises(ValueError, match="once"):
            KillSchedule(((1, 2), (3, 2)))

    def test_random_is_seeded(self):
        a = KillSchedule.random(7, 8, 40, count=3)
        assert a == KillSchedule.random(7, 8, 40, count=3)
        assert a != KillSchedule.random(8, 8, 40, count=3)
        pes = {pe for _, pe in a.kills}
        assert len(pes) == 3 and all(0 <= pe < 8 for pe in sorted(pes))

    def test_random_keeps_a_survivor(self):
        with pytest.raises(ValueError):
            KillSchedule.random(0, 4, 10, count=4)


class TestChaosHarness:
    def test_run_chaos_proves_survivor_equivalence(self):
        report = run_chaos(
            instance="demo",
            pes=6,
            steps=10,
            kills=KillSchedule.parse("4:2"),
        )
        assert report.survivor_equivalent is True
        assert report.survivor_max_abs_diff == 0.0
        assert report.num_pes_final == 5
        [event] = report.evictions
        assert event.cost is not None and event.cost.t_total > 0
        assert event.migrated_words > 0

    @pytest.mark.parametrize("spec", ["10:1", "3:2,10:1"])
    def test_kill_past_the_last_superstep_is_refused(self, spec):
        """A kill at superstep S >= steps would evict nothing and pass
        the survivor-equivalence gate vacuously."""
        with pytest.raises(ValueError, match="never fires"):
            run_chaos(
                instance="demo", pes=6, steps=10,
                kills=KillSchedule.parse(spec),
            )

    def test_kill_at_the_last_superstep_fires(self):
        report = run_chaos(
            instance="demo", pes=6, steps=10,
            kills=KillSchedule.parse("9:1"),
        )
        [event] = report.evictions
        assert event.superstep == 9
        assert report.num_pes_final == 5
        assert report.survivor_equivalent is True

    def test_cli_kill_at_the_last_superstep_passes(self, capsys):
        from repro.cli import main_chaos

        assert main_chaos(["--smoke", "--kill", "9:1"]) == 0
        out = capsys.readouterr().out
        assert "survivor equivalence: PASS" in out
        assert "evictions: 1" in out

    def test_cli_smoke(self, capsys):
        from repro.cli import main_chaos

        assert main_chaos(["--smoke", "--kill", "3:1"]) == 0
        out = capsys.readouterr().out
        assert "survivor equivalence: PASS" in out
        assert "evictions: 1" in out
        assert "migrated" in out

    def test_cli_json(self, capsys):
        import json

        from repro.cli import main_chaos

        assert main_chaos(["--smoke", "--kill", "3:1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["survivor_equivalent"] is True
        assert payload["evictions"][0]["dead_pe"] == 1
        assert payload["evictions"][0]["migrated_words"] > 0
        assert payload["evictions"][0]["cost_seconds"] > 0

    def test_cli_rejects_out_of_range_kill(self):
        from repro.cli import main_chaos

        with pytest.raises(SystemExit):
            main_chaos(["--smoke", "--kill", "3:17"])
