"""Tests for repro.faults and its hooks across the pipeline.

Covers the acceptance contract of the fault subsystem:

* determinism of the seeded injector,
* bit-identical behaviour with injection disabled (simulator timings
  and executor results),
* detection + recovery of injected block faults (checksums, retransmit)
  with the distributed product still matching the global one,
* checkpoint/restart reproducing an uninterrupted run,
* graceful mesh-cache degradation and the typed MeshIOError,
* T_l/T_w validation naming the machine preset,
* the reliability sweep table and CLI.
"""

import re

import numpy as np
import pytest

from repro.faults import (
    BlockFault,
    CheckpointError,
    CheckpointManager,
    ExchangeFaultError,
    FaultConfig,
    FaultInjector,
    FaultStats,
    NumericalFaultError,
    block_checksum,
    retransmit_penalty,
    verify_block,
    verify_residual,
)
from repro.fem.assembly import assemble_lumped_mass, assemble_stiffness
from repro.fem.timestepper import ExplicitTimeStepper, stable_timestep
from repro.mesh.instances import clear_mesh_cache, get_instance
from repro.mesh.io import MeshIOError, load_mesh, save_mesh
from repro.model.machine import CRAY_T3D, CRAY_T3E, Machine
from repro.partition.base import partition_mesh
from repro.simulate.bsp import BspSimulator
from repro.smvp.distribution import DataDistribution
from repro.smvp.executor import DistributedSMVP
from repro.smvp.schedule import CommSchedule


@pytest.fixture(scope="module")
def demo_stiffness(demo_mesh, demo_materials):
    return assemble_stiffness(demo_mesh, demo_materials)


@pytest.fixture(scope="module")
def demo_sim_setup(demo_mesh):
    partition = partition_mesh(demo_mesh, 16, seed=0)
    dist = DataDistribution(demo_mesh, partition)
    return dist.local_counts["flops"].astype(float), CommSchedule(dist)


class TestFaultConfig:
    def test_disabled_by_default(self):
        assert not FaultConfig().enabled
        assert not FaultConfig.disabled().enabled

    def test_uniform_enables(self):
        cfg = FaultConfig.uniform(0.05, seed=3)
        assert cfg.enabled
        assert cfg.drop_rate == 0.05
        assert cfg.bitflip_rate == 0.025

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultConfig(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(drop_rate=0.6, bitflip_rate=0.5)
        with pytest.raises(ValueError):
            FaultConfig(max_retries=0)
        with pytest.raises(ValueError):
            FaultConfig(backoff_factor=0.5)

    def test_with_seed(self):
        cfg = FaultConfig.uniform(0.1, seed=1).with_seed(2)
        assert cfg.seed == 2
        assert cfg.drop_rate == 0.1


class TestInjectorDeterminism:
    def test_same_seed_same_decisions(self):
        a = FaultInjector(FaultConfig(seed=5, drop_rate=0.3, bitflip_rate=0.2))
        b = FaultInjector(FaultConfig(seed=5, drop_rate=0.3, bitflip_rate=0.2))
        decisions_a = [a.block_fault(0, 1, s, k) for s in range(20) for k in range(3)]
        decisions_b = [b.block_fault(0, 1, s, k) for s in range(20) for k in range(3)]
        assert decisions_a == decisions_b

    def test_order_independent(self):
        inj = FaultInjector(FaultConfig(seed=5, drop_rate=0.3))
        forward = [inj.block_fault(0, 1, s) for s in range(10)]
        backward = [inj.block_fault(0, 1, s) for s in reversed(range(10))]
        assert forward == list(reversed(backward))

    def test_different_seeds_differ(self):
        mix = dict(drop_rate=0.3, bitflip_rate=0.3, duplicate_rate=0.3)
        a = FaultInjector(FaultConfig(seed=1, **mix))
        b = FaultInjector(FaultConfig(seed=2, **mix))
        da = [a.block_fault(0, 1, s) for s in range(50)]
        db = [b.block_fault(0, 1, s) for s in range(50)]
        assert da != db

    def test_zero_rates_never_fault(self):
        inj = FaultInjector(FaultConfig())
        assert not inj.enabled
        assert all(
            inj.block_fault(0, 1, s) is BlockFault.NONE for s in range(10)
        )
        assert inj.straggler_factor(3, 7) == 1.0
        assert not inj.pe_failed(3, 7)

    def test_straggler_factor_at_least_one(self):
        inj = FaultInjector(
            FaultConfig(seed=0, straggler_rate=1.0, straggler_mean_slowdown=2.0)
        )
        factors = [inj.straggler_factor(pe, 0) for pe in range(50)]
        assert all(f > 1.0 for f in factors)
        # Exponential tail: the mean extra should be near 2.
        assert 0.5 < np.mean(factors) - 1.0 < 8.0

    def test_corrupt_flips_exactly_one_bit(self):
        inj = FaultInjector(FaultConfig(seed=0, bitflip_rate=1.0))
        payload = np.random.default_rng(0).standard_normal(12)
        original = payload.copy()
        word, bit = inj.corrupt(payload, 2, 3, step=1, attempt=0)
        assert 0 <= word < 12 and 0 <= bit < 64
        changed = payload.view(np.uint64) ^ original.view(np.uint64)
        assert np.count_nonzero(changed) == 1
        assert changed[word] == np.uint64(1) << np.uint64(bit)

    def test_transmission_outcome_matches_block_faults(self):
        inj = FaultInjector(FaultConfig(seed=9, drop_rate=0.4, bitflip_rate=0.2))
        out = inj.transmission_outcome(1, 2, step=4)
        assert out.attempts == out.failures + 1 if out.delivered else True
        replay_faults = [
            inj.block_fault(1, 2, 4, k) for k in range(out.attempts)
        ]
        assert sum(f is BlockFault.DROP for f in replay_faults) == out.drops
        assert (
            sum(f is BlockFault.BITFLIP for f in replay_faults)
            == out.corruptions
        )


class TestChecksums:
    def test_roundtrip(self):
        payload = np.arange(9, dtype=np.float64)
        assert verify_block(payload, block_checksum(payload))

    def test_detects_single_bitflip(self):
        payload = np.arange(9, dtype=np.float64)
        crc = block_checksum(payload)
        payload.view(np.uint64)[4] ^= np.uint64(1) << np.uint64(17)
        assert not verify_block(payload, crc)

    def test_verify_residual(self):
        y = np.ones(5)
        assert verify_residual(y, y) == 0.0
        with pytest.raises(NumericalFaultError):
            verify_residual(y + 1e-3, y, tol=1e-9)
        with pytest.raises(NumericalFaultError):
            verify_residual(np.full(5, np.nan), y)


class TestRetransmitPenalty:
    def test_no_failures_no_penalty(self):
        assert retransmit_penalty(1.0, 0) == 0.0

    def test_exponential_backoff(self):
        base, tf_, bf = 1.0, 4.0, 2.0
        # failures=2: stalls 4 + 8, wire 2 * base.
        assert retransmit_penalty(base, 2, tf_, bf) == pytest.approx(14.0)

    def test_constant_backoff(self):
        assert retransmit_penalty(1.0, 3, 4.0, 1.0) == pytest.approx(15.0)


class TestBspSimulatorFaults:
    def test_disabled_injector_bit_identical(self, demo_sim_setup):
        flops, schedule = demo_sim_setup
        plain = BspSimulator(flops, schedule, CRAY_T3E).run("barrier")
        gated = BspSimulator(
            flops,
            schedule,
            CRAY_T3E,
            injector=FaultInjector(FaultConfig.disabled()),
        ).run("barrier")
        assert gated.t_comp == plain.t_comp
        assert gated.t_comm == plain.t_comm
        assert gated.t_smvp == plain.t_smvp
        assert np.array_equal(gated.per_pe_comm, plain.per_pe_comm)
        assert gated.faults is None

    def test_faults_deterministic(self, demo_sim_setup):
        flops, schedule = demo_sim_setup
        make = lambda: BspSimulator(
            flops,
            schedule,
            CRAY_T3E,
            injector=FaultInjector(FaultConfig.uniform(0.05, seed=11)),
        ).run("barrier", step=2)
        a, b = make(), make()
        assert a.t_smvp == b.t_smvp
        assert a.faults.retransmits == b.faults.retransmits

    def test_drops_extend_the_stall(self, demo_sim_setup):
        flops, schedule = demo_sim_setup
        plain = BspSimulator(flops, schedule, CRAY_T3E).run("barrier")
        faulty = BspSimulator(
            flops,
            schedule,
            CRAY_T3E,
            injector=FaultInjector(FaultConfig(seed=1, drop_rate=0.2)),
        ).run("barrier")
        assert faulty.faults.retransmits > 0
        assert faulty.t_comm > plain.t_comm
        assert faulty.t_comp == plain.t_comp  # drops don't slow compute

    def test_stragglers_extend_the_barrier(self, demo_sim_setup):
        flops, schedule = demo_sim_setup
        plain = BspSimulator(flops, schedule, CRAY_T3E).run("barrier")
        faulty = BspSimulator(
            flops,
            schedule,
            CRAY_T3E,
            injector=FaultInjector(
                FaultConfig(
                    seed=1, straggler_rate=0.5, straggler_mean_slowdown=1.0
                )
            ),
        ).run("barrier")
        assert faulty.faults.straggler_events > 0
        assert faulty.t_comp > plain.t_comp
        assert faulty.t_comm == pytest.approx(plain.t_comm, rel=1e-12)

    def test_pe_failures_add_restart_penalty(self, demo_sim_setup):
        flops, schedule = demo_sim_setup
        plain = BspSimulator(flops, schedule, CRAY_T3E).run("barrier")
        faulty = BspSimulator(
            flops,
            schedule,
            CRAY_T3E,
            injector=FaultInjector(
                FaultConfig(seed=4, pe_failure_rate=0.9, pe_restart_penalty=1.0)
            ),
        ).run("barrier")
        assert faulty.faults.pe_failures > 0
        assert faulty.t_comp > plain.t_comp + 1.0 - 1e-12

    def test_step_varies_the_fault_history(self, demo_sim_setup):
        flops, schedule = demo_sim_setup
        sim = BspSimulator(
            flops,
            schedule,
            CRAY_T3E,
            injector=FaultInjector(FaultConfig.uniform(0.05, seed=7)),
        )
        times = [sim.run("barrier", step=s).t_smvp for s in range(6)]
        assert len(set(times)) > 1

    def test_faults_only_in_barrier_mode(self, demo_sim_setup):
        flops, schedule = demo_sim_setup
        sim = BspSimulator(
            flops,
            schedule,
            CRAY_T3E,
            injector=FaultInjector(FaultConfig(seed=0, drop_rate=0.1)),
        )
        with pytest.raises(ValueError, match="barrier"):
            sim.run("skewed")


class TestExecutorFaults:
    @pytest.fixture(scope="class")
    def partition(self, demo_mesh):
        return partition_mesh(demo_mesh, 8)

    def test_zero_rate_bit_identical(
        self, demo_mesh, demo_materials, partition
    ):
        clean = DistributedSMVP(demo_mesh, partition, demo_materials)
        gated = DistributedSMVP(
            demo_mesh,
            partition,
            demo_materials,
            injector=FaultInjector(FaultConfig.disabled()),
        )
        x = np.random.default_rng(0).standard_normal(3 * demo_mesh.num_nodes)
        assert np.array_equal(clean.multiply(x), gated.multiply(x))

    def test_faults_recovered_and_product_exact(
        self, demo_mesh, demo_materials, demo_stiffness, partition
    ):
        injector = FaultInjector(
            FaultConfig(
                seed=7, drop_rate=0.15, bitflip_rate=0.1, duplicate_rate=0.1
            )
        )
        ds = DistributedSMVP(
            demo_mesh, partition, demo_materials, injector=injector
        )
        x = np.random.default_rng(1).standard_normal(3 * demo_mesh.num_nodes)
        y_locals = ds.compute_phase(ds.scatter(x))
        y_locals, record = ds.communication_phase(y_locals, step=0)
        stats = record.faults
        assert stats.any_injected
        assert stats.injected_drops > 0
        assert stats.detected_missing == stats.injected_drops
        assert stats.detected_corrupt == stats.injected_corruptions
        assert stats.duplicates_ignored == stats.injected_duplicates
        assert stats.fully_recovered()
        # Recovery means the result is *bit-identical* to fault-free.
        clean = DistributedSMVP(demo_mesh, partition, demo_materials)
        y_ref = clean.compute_phase(clean.scatter(x))
        y_ref, _ = clean.communication_phase(y_ref)
        for got, want in zip(y_locals, y_ref):
            assert np.array_equal(got, want)
        assert ds.verify_against_global(demo_stiffness) < 1e-12

    def test_traffic_includes_retransmits(
        self, demo_mesh, demo_materials, partition
    ):
        injector = FaultInjector(FaultConfig(seed=3, drop_rate=0.3))
        ds = DistributedSMVP(
            demo_mesh, partition, demo_materials, injector=injector
        )
        x = np.random.default_rng(2).standard_normal(3 * demo_mesh.num_nodes)
        y_locals = ds.compute_phase(ds.scatter(x))
        _, record = ds.communication_phase(y_locals, step=0)
        mat = ds.schedule.word_matrix
        assert record.faults.retransmits > 0
        assert record.words_sent.sum() > mat.sum()
        assert record.words_sent.sum() == (
            mat.sum() + record.faults.words_retransmitted
        )

    def test_superstep_counter_advances_fault_history(
        self, demo_mesh, demo_materials, partition
    ):
        injector = FaultInjector(FaultConfig(seed=5, drop_rate=0.2))
        ds = DistributedSMVP(
            demo_mesh, partition, demo_materials, injector=injector
        )
        x = np.random.default_rng(3).standard_normal(3 * demo_mesh.num_nodes)
        drops = []
        for _ in range(4):
            y_locals = ds.compute_phase(ds.scatter(x))
            _, record = ds.communication_phase(y_locals)
            drops.append(record.faults.injected_drops)
        assert len(set(drops)) > 1  # histories differ across supersteps
        ds.reset_superstep()
        y_locals = ds.compute_phase(ds.scatter(x))
        _, record = ds.communication_phase(y_locals)
        assert record.faults.injected_drops == drops[0]

    def test_retry_budget_exhaustion_raises(
        self, demo_mesh, demo_materials, partition
    ):
        injector = FaultInjector(
            FaultConfig(seed=0, drop_rate=1.0, max_retries=2)
        )
        ds = DistributedSMVP(
            demo_mesh, partition, demo_materials, injector=injector
        )
        x = np.zeros(3 * demo_mesh.num_nodes)
        y_locals = ds.compute_phase(ds.scatter(x))
        with pytest.raises(ExchangeFaultError, match="attempts"):
            ds.communication_phase(y_locals, step=0)

    def test_time_stepping_under_faults_matches_sequential(
        self, demo_mesh, demo_materials, demo_stiffness, partition
    ):
        mass = assemble_lumped_mass(demo_mesh, demo_materials)
        dt = stable_timestep(demo_mesh, demo_materials)
        injector = FaultInjector(
            FaultConfig(seed=2, drop_rate=0.1, bitflip_rate=0.05)
        )
        ds = DistributedSMVP(
            demo_mesh, partition, demo_materials, injector=injector
        )
        seq = ExplicitTimeStepper(demo_stiffness, mass, dt)
        dist = ExplicitTimeStepper(demo_stiffness, mass, dt, smvp=ds)
        force = np.zeros(3 * demo_mesh.num_nodes)
        force[123] = 1e9
        for _ in range(5):
            seq.step(force)
            dist.step(force)
        assert np.allclose(seq.u, dist.u, rtol=1e-10, atol=1e-12)


class TestCheckpointRestart:
    @pytest.fixture()
    def problem(self, demo_mesh, demo_materials, demo_stiffness):
        mass = assemble_lumped_mass(demo_mesh, demo_materials)
        dt = stable_timestep(demo_mesh, demo_materials)
        force = np.zeros(3 * demo_mesh.num_nodes)
        force[30] = 1e9
        return demo_stiffness, mass, dt, (lambda t: force)

    def test_resume_reproduces_uninterrupted_run(self, problem, tmp_path):
        stiffness, mass, dt, force_at = problem
        ref = ExplicitTimeStepper(stiffness, mass, dt, damping_alpha=0.02)
        ref.run(20, force_at=force_at)

        manager = CheckpointManager(tmp_path, interval=5, keep=3)
        killed = ExplicitTimeStepper(stiffness, mass, dt, damping_alpha=0.02)
        killed.run(12, force_at=force_at, checkpoint=manager)  # "crash"

        ck = manager.latest()
        assert ck is not None and ck.step_index == 10
        resumed = ExplicitTimeStepper(stiffness, mass, dt, damping_alpha=0.02)
        ck.restore(resumed)
        resumed.run(20 - ck.step_index, force_at=force_at)
        assert resumed.step_index == ref.step_index
        assert np.allclose(resumed.u, ref.u, rtol=1e-12, atol=0.0)
        assert np.allclose(resumed.u_prev, ref.u_prev, rtol=1e-12, atol=0.0)

    def test_corrupt_checkpoint_skipped(self, problem, tmp_path):
        stiffness, mass, dt, force_at = problem
        manager = CheckpointManager(tmp_path, interval=5, keep=0)
        stepper = ExplicitTimeStepper(stiffness, mass, dt)
        stepper.run(10, force_at=force_at, checkpoint=manager)
        assert manager.steps() == [5, 10]
        (tmp_path / "ckpt-000000010.npz").write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError):
            manager.load(10)
        latest = manager.latest()
        assert latest is not None and latest.step_index == 5

    def test_crc_detects_tampering(self, problem, tmp_path):
        stiffness, mass, dt, force_at = problem
        manager = CheckpointManager(tmp_path, interval=5)
        stepper = ExplicitTimeStepper(stiffness, mass, dt)
        stepper.run(5, force_at=force_at, checkpoint=manager)
        path = tmp_path / "ckpt-000000005.npz"
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # flip bits inside the container
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            manager.load(5)

    def test_mismatched_problem_rejected(self, problem, tmp_path):
        stiffness, mass, dt, force_at = problem
        manager = CheckpointManager(tmp_path, interval=1)
        stepper = ExplicitTimeStepper(stiffness, mass, dt)
        stepper.run(1, force_at=force_at, checkpoint=manager)
        ck = manager.latest()
        other = ExplicitTimeStepper(stiffness, mass, dt * 2.0)
        with pytest.raises(CheckpointError, match="dt"):
            ck.restore(other)

    def test_prune_keeps_most_recent(self, problem, tmp_path):
        stiffness, mass, dt, force_at = problem
        manager = CheckpointManager(tmp_path, interval=2, keep=2)
        stepper = ExplicitTimeStepper(stiffness, mass, dt)
        stepper.run(10, force_at=force_at, checkpoint=manager)
        assert manager.steps() == [8, 10]

    def test_nan_guard(self, problem):
        stiffness, mass, dt, _ = problem
        guarded = ExplicitTimeStepper(stiffness, mass, dt, check_finite=True)
        guarded.u[:] = np.nan
        with pytest.raises(NumericalFaultError, match="non-finite"):
            guarded.step()
        unguarded = ExplicitTimeStepper(stiffness, mass, dt)
        unguarded.u[:] = np.nan
        unguarded.step()  # silently propagates — the guard is opt-in


class TestMeshIOFaults:
    def test_truncated_npz_raises_typed_error(self, single_tet_mesh, tmp_path):
        path = tmp_path / "mesh.npz"
        save_mesh(single_tet_mesh, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(MeshIOError):
            load_mesh(path)

    def test_corrupt_file_leaves_no_open_handle(self, single_tet_mesh, tmp_path):
        import gc
        import warnings

        path = tmp_path / "mesh.npz"
        save_mesh(single_tet_mesh, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(MeshIOError):
                load_mesh(path)
            gc.collect()
        leaked = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaked == []

    def test_garbage_file_raises_typed_error(self, tmp_path):
        path = tmp_path / "mesh.npz"
        path.write_bytes(b"definitely not a zip file")
        with pytest.raises(MeshIOError):
            load_mesh(path)

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_mesh(tmp_path / "absent.npz")

    def test_meshioerror_is_a_valueerror(self):
        assert issubclass(MeshIOError, ValueError)

    def test_crc_catches_payload_tampering(self, single_tet_mesh, tmp_path):
        import zipfile

        path = tmp_path / "mesh.npz"
        save_mesh(single_tet_mesh, path)
        # Rewrite one member with altered bytes, keeping the zip valid.
        with np.load(path) as data:
            points = data["points"].copy()
            tets = data["tets"].copy()
            crc = data["crc"]
        points[0, 0] += 1.0  # silent corruption
        with zipfile.ZipFile(path, "w") as zf:
            import io

            for name, arr in (("points", points), ("tets", tets), ("crc", crc)):
                buf = io.BytesIO()
                np.save(buf, arr)
                zf.writestr(f"{name}.npy", buf.getvalue())
        with pytest.raises(MeshIOError, match="CRC"):
            load_mesh(path)

    def test_instance_cache_rebuilds_on_corruption(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MESH_CACHE", str(tmp_path))
        clear_mesh_cache()
        inst = get_instance("demo")
        mesh_a, _ = inst.build()
        cache_file = tmp_path / "demo-seed0.npz"
        assert cache_file.exists()
        cache_file.write_bytes(b"rotten bits")
        clear_mesh_cache()
        with pytest.warns(RuntimeWarning, match="rebuild"):
            mesh_b, _ = inst.build()
        assert mesh_b.num_nodes == mesh_a.num_nodes
        # The rebuild refreshed the on-disk cache with a loadable file.
        assert load_mesh(cache_file).num_nodes == mesh_a.num_nodes
        clear_mesh_cache()


class TestMachineValidation:
    def test_simulator_names_the_preset(self, demo_sim_setup):
        flops, schedule = demo_sim_setup
        with pytest.raises(ValueError, match="Cray T3D"):
            BspSimulator(flops, schedule, CRAY_T3D)

    def test_message_names_the_missing_constants(self):
        machine = Machine("half-specified", tf=10e-9, tl=1e-6)
        with pytest.raises(ValueError, match="T_w"):
            machine.require_comm()
        assert not machine.has_comm_constants
        CRAY_T3E.require_comm()  # fully specified: no raise

    def test_prediction_uses_the_same_check(self):
        from repro.model.application import predict_application
        from repro.model.inputs import ModelInputs

        inputs = ModelInputs.from_paper("sf2", 64)
        with pytest.raises(ValueError, match="t3e"):
            predict_application(inputs, CRAY_T3D)


class TestReliabilityTable:
    def test_sweep_table_smoke(self):
        from repro.tables.reliability import table_reliability

        text = str(
            table_reliability(
                instances=("demo",),
                num_parts=4,
                rates=(0.0, 0.05),
                num_steps=3,
            )
        )
        assert "rate" in text and "slowdown" in text
        assert "demo" in text

    def test_recovery_table_smoke(self):
        from repro.tables.reliability import table_fault_recovery

        text = str(
            table_fault_recovery(
                instance="demo", num_parts=4, rate=0.1, num_exchanges=2
            )
        )
        assert "detected by checksum" in text
        assert "True" in text

    def test_cli_tables(self, capsys):
        from repro.cli import main_tables

        assert main_tables(["reliability", "fault-recovery"]) == 0
        out = capsys.readouterr().out
        assert "Reliability" in out and "Fault recovery" in out
        for row in ("every fault recovered", "every SDC contained"):
            assert re.search(rf"^{row} +\| True +$", out, re.M), row


class TestBackoffJitter:
    def test_deterministic_and_bounded(self):
        inj = FaultInjector(
            FaultConfig(seed=5, drop_rate=0.1, backoff_jitter=0.2)
        )
        draws = [
            inj.backoff_jitter(0, 1, step=3, attempt=k) for k in range(8)
        ]
        again = [
            inj.backoff_jitter(0, 1, step=3, attempt=k) for k in range(8)
        ]
        assert draws == again
        assert all(0.8 <= j <= 1.2 for j in draws)
        assert len(set(draws)) > 1  # actually jittered, not constant

    def test_keyed_on_link_step_attempt(self):
        inj = FaultInjector(
            FaultConfig(seed=5, drop_rate=0.1, backoff_jitter=0.2)
        )
        base = inj.backoff_jitter(0, 1, step=3, attempt=0)
        assert inj.backoff_jitter(1, 0, step=3, attempt=0) != base
        assert inj.backoff_jitter(0, 1, step=4, attempt=0) != base
        assert inj.backoff_jitter(0, 1, step=3, attempt=1) != base

    def test_zero_amplitude_is_exactly_one(self):
        inj = FaultInjector(FaultConfig(seed=5, drop_rate=0.1))
        assert FaultConfig().backoff_jitter == 0.1  # documented default
        inj_off = FaultInjector(
            FaultConfig(seed=5, drop_rate=0.1, backoff_jitter=0.0)
        )
        assert inj_off.backoff_jitter(0, 1) == 1.0
        assert isinstance(inj.backoff_jitter(0, 1), float)

    def test_amplitude_validated(self):
        with pytest.raises(ValueError, match="backoff_jitter"):
            FaultConfig(backoff_jitter=1.0)
        with pytest.raises(ValueError, match="backoff_jitter"):
            FaultConfig(backoff_jitter=-0.1)

    def test_penalty_with_jitters(self):
        # Unit jitters reproduce the closed form exactly.
        plain = retransmit_penalty(1.0, 3, 4.0, 2.0)
        assert retransmit_penalty(
            1.0, 3, 4.0, 2.0, jitters=[1.0, 1.0, 1.0]
        ) == pytest.approx(plain)
        # Scaled jitters scale only the stalls, not the wire time.
        jittered = retransmit_penalty(1.0, 2, 4.0, 2.0, jitters=[0.9, 1.1])
        stalls = 4.0 * 0.9 + 8.0 * 1.1
        assert jittered == pytest.approx(stalls + 2.0)

    def test_penalty_jitter_length_validated(self):
        with pytest.raises(ValueError, match="jitter"):
            retransmit_penalty(1.0, 3, jitters=[1.0])

    def test_simulator_jitter_keeps_determinism(self, demo_sim_setup):
        flops, schedule = demo_sim_setup
        cfg = FaultConfig(seed=9, drop_rate=0.2, backoff_jitter=0.25)
        times = [
            BspSimulator(
                flops,
                schedule,
                CRAY_T3E,
                injector=FaultInjector(cfg),
            ).run("barrier", step=2).t_smvp
            for _ in range(2)
        ]
        assert times[0] == times[1]

    def test_simulator_jitter_changes_stalls(self, demo_sim_setup):
        flops, schedule = demo_sim_setup
        base = FaultConfig(seed=9, drop_rate=0.2, backoff_jitter=0.0)
        jit = FaultConfig(seed=9, drop_rate=0.2, backoff_jitter=0.25)
        t_base = BspSimulator(
            flops, schedule, CRAY_T3E, injector=FaultInjector(base)
        ).run("barrier", step=2).t_smvp
        t_jit = BspSimulator(
            flops, schedule, CRAY_T3E, injector=FaultInjector(jit)
        ).run("barrier", step=2).t_smvp
        # Same injected faults (jitter uses its own stream), different
        # stall durations.
        assert t_base != t_jit
        assert t_jit == pytest.approx(t_base, rel=0.5)


class TestCheckpointDistributionHeader:
    @pytest.fixture()
    def problem(self, demo_mesh, demo_materials, demo_stiffness):
        mass = assemble_lumped_mass(demo_mesh, demo_materials)
        dt = stable_timestep(demo_mesh, demo_materials)
        force = np.zeros(3 * demo_mesh.num_nodes)
        force[30] = 1e9
        return demo_stiffness, mass, dt, (lambda t: force)

    def test_header_roundtrip(self, problem, demo_mesh, tmp_path):
        stiffness, mass, dt, force_at = problem
        dist = DataDistribution(demo_mesh, partition_mesh(demo_mesh, 6))
        stepper = ExplicitTimeStepper(stiffness, mass, dt)
        stepper.run(4, force_at=force_at)
        manager = CheckpointManager(tmp_path, interval=1)
        manager.save(stepper, distribution=dist)
        ck = manager.latest()
        assert ck.num_pes == 6
        assert ck.ownership_hash == dist.ownership_hash
        assert ck.matches(dist)
        resumed = ExplicitTimeStepper(stiffness, mass, dt)
        ck.restore(resumed, distribution=dist)
        assert np.array_equal(resumed.u, stepper.u)

    def test_mismatched_distribution_rejected(
        self, problem, demo_mesh, tmp_path
    ):
        from repro.faults import CheckpointCompatibilityError

        stiffness, mass, dt, force_at = problem
        dist6 = DataDistribution(demo_mesh, partition_mesh(demo_mesh, 6))
        dist4 = DataDistribution(demo_mesh, partition_mesh(demo_mesh, 4))
        stepper = ExplicitTimeStepper(stiffness, mass, dt)
        stepper.run(2, force_at=force_at)
        manager = CheckpointManager(tmp_path, interval=1)
        manager.save(stepper, distribution=dist6)
        ck = manager.latest()
        assert not ck.matches(dist4)
        fresh = ExplicitTimeStepper(stiffness, mass, dt)
        with pytest.raises(CheckpointCompatibilityError, match="6 PEs"):
            ck.restore(fresh, distribution=dist4)
        # The compatibility error is still a CheckpointError.
        with pytest.raises(CheckpointError):
            ck.restore(fresh, distribution=dist4)

    def test_headerless_checkpoint_matches_anything(
        self, problem, demo_mesh, tmp_path
    ):
        stiffness, mass, dt, force_at = problem
        stepper = ExplicitTimeStepper(stiffness, mass, dt)
        stepper.run(2, force_at=force_at)
        manager = CheckpointManager(tmp_path, interval=1)
        manager.save(stepper)  # no distribution: sequential run
        ck = manager.latest()
        assert ck.num_pes is None
        dist = DataDistribution(demo_mesh, partition_mesh(demo_mesh, 4))
        assert ck.matches(dist)
        fresh = ExplicitTimeStepper(stiffness, mass, dt)
        ck.restore(fresh, distribution=dist)  # nothing to contradict

    def test_ownership_hash_distinguishes_layouts(self, demo_mesh):
        d6a = DataDistribution(demo_mesh, partition_mesh(demo_mesh, 6))
        d6b = DataDistribution(
            demo_mesh, partition_mesh(demo_mesh, 6, method="random", seed=3)
        )
        d4 = DataDistribution(demo_mesh, partition_mesh(demo_mesh, 4))
        assert d6a.ownership_hash == DataDistribution(
            demo_mesh, partition_mesh(demo_mesh, 6)
        ).ownership_hash
        assert d6a.ownership_hash != d6b.ownership_hash
        assert d6a.ownership_hash != d4.ownership_hash


class TestQuarantinedTransport:
    def test_quarantined_blocks_bypass_injection(
        self, demo_mesh, demo_materials, demo_stiffness
    ):
        # A rate that *would* fail PE 0's links without quarantine.
        cfg = FaultConfig(seed=11, drop_rate=0.9, max_retries=1)
        clean = DistributedSMVP(demo_mesh, partition_mesh(demo_mesh, 4), demo_materials)
        faulty = DistributedSMVP(
            demo_mesh,
            partition_mesh(demo_mesh, 4),
            demo_materials,
            injector=FaultInjector(cfg),
        )
        for pe in range(4):
            faulty.quarantine(pe)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(3 * demo_mesh.num_nodes)
        try:
            y_clean = clean.multiply(x)
            y_faulty = faulty.multiply(x)
        finally:
            clean.close()
            faulty.close()
        # All links quarantined: every block takes the verified path,
        # bit-identical to the clean transport.
        assert np.array_equal(y_clean, y_faulty)

    def test_quarantine_counted_in_stats(
        self, demo_mesh, demo_materials
    ):
        cfg = FaultConfig(seed=11, drop_rate=0.05)
        smvp = DistributedSMVP(
            demo_mesh,
            partition_mesh(demo_mesh, 4),
            demo_materials,
            injector=FaultInjector(cfg),
        )
        smvp.quarantine(1)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(3 * demo_mesh.num_nodes)
        try:
            x_locals = smvp.scatter(x)
            y_locals = smvp.compute_phase(x_locals)
            _, record = smvp.communication_phase(y_locals)
        finally:
            smvp.close()
        assert record.faults.quarantined_blocks > 0

    def test_quarantine_validates_pe(self, demo_mesh, demo_materials):
        smvp = DistributedSMVP(
            demo_mesh, partition_mesh(demo_mesh, 4), demo_materials
        )
        try:
            with pytest.raises(ValueError):
                smvp.quarantine(4)
            smvp.quarantine(2)
            assert smvp.quarantined == frozenset({2})
        finally:
            smvp.close()
