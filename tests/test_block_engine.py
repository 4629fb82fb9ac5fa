"""Tests for the multi-RHS (block) superstep engine.

The block refactor's contract (DESIGN.md §13):

* per-column bit-identity — an n×r block multiply equals r independent
  vector multiplies, bit for bit, on every backend;
* the r=1 vector path is untouched (golden vectors stay valid);
* every demo PE holds both shared and unshared rows, so the simulator's
  overlap mode has boundary flops to price;
* the timestepper advances r scenario columns exactly as r separate
  runs would, and seismograms grow a trailing rhs axis;
* the BSP model, Eq.(2), and the drift monitor scale the volume/flop
  terms r-fold while the latency term stays fixed;
* ABFT detects any single corrupted column and heals block supersteps
  bit-exactly;
* ``measure_tf``/``run_kernel``/the CLIs validate ``rhs >= 1``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main_measure, main_trace
from repro.faults import FaultConfig, FaultInjector
from repro.fem.assembly import assemble_lumped_mass, assemble_stiffness
from repro.fem.timestepper import ExplicitTimeStepper, stable_timestep
from repro.model.machine import CRAY_T3E
from repro.partition.base import partition_mesh
from repro.simulate import BspSimulator
from repro.smvp import AbftChecker
from repro.smvp.backends import backend_names, make_backend
from repro.smvp.distribution import DataDistribution
from repro.smvp.executor import DistributedSMVP
from repro.smvp.kernels import PackedState, get_kernel, measure_tf
from repro.smvp.schedule import CommSchedule
from repro.smvp.spark98 import run_kernel
from repro.telemetry.drift import DriftMonitor, eq2_t_comm, modeled_breakdown
from tests.conftest import FLAG_SUBSETS, flagged_multiply

PES = 4
R = 5


@pytest.fixture(scope="module")
def partition(demo_mesh):
    return partition_mesh(demo_mesh, PES, seed=2)


@pytest.fixture(scope="module")
def x_block(demo_mesh):
    return np.random.default_rng(17).standard_normal(
        (3 * demo_mesh.num_nodes, R)
    )


@pytest.fixture(scope="module")
def column_reference(demo_mesh, partition, demo_materials, x_block):
    """r independent vector multiplies — the bit-identity anchor."""
    with DistributedSMVP(demo_mesh, partition, demo_materials) as ds:
        return [ds.multiply(x_block[:, j].copy()) for j in range(R)]


# ---------------------------------------------------------------------------
# Distribution: every PE holds shared and unshared rows


class TestInteriorBoundarySplit:
    def test_every_pe_has_both_kinds_on_demo(self, demo_mesh, partition):
        dist = DataDistribution(demo_mesh, partition)
        for pe in range(PES):
            residency = dist.node_residency[dist.local_nodes(pe)]
            assert np.any(residency >= 2)
            assert np.any(residency == 1)
        assert np.all(dist.boundary_flops > 0)
        assert np.all(dist.boundary_flops < dist.local_counts["flops"])


# ---------------------------------------------------------------------------
# Executor: per-column bit-identity on every backend


class TestBlockMultiply:
    @pytest.mark.parametrize("backend", sorted(set(backend_names())))
    def test_block_equals_columns_bitwise(
        self,
        demo_mesh,
        partition,
        demo_materials,
        x_block,
        column_reference,
        backend,
    ):
        with DistributedSMVP(
            demo_mesh, partition, demo_materials, backend=backend
        ) as ds:
            y = ds.multiply(x_block)
        assert y.shape == x_block.shape
        for j in range(R):
            assert np.array_equal(y[:, j], column_reference[j]), (backend, j)

    @pytest.mark.parametrize(
        "flags", FLAG_SUBSETS, ids=lambda f: "+".join(f) or "plain"
    )
    @pytest.mark.parametrize("backend", backend_names())
    def test_flag_combinations_equal_columns_bitwise(
        self,
        demo_mesh,
        partition,
        demo_materials,
        x_block,
        column_reference,
        backend,
        flags,
    ):
        """r=4 under every subset of the feature flags: each column is
        the serial r=1 product, bit for bit."""
        y = flagged_multiply(
            demo_mesh,
            partition,
            demo_materials,
            np.ascontiguousarray(x_block[:, :4]),
            backend,
            flags,
        )
        assert y.shape == (x_block.shape[0], 4)
        for j in range(4):
            assert np.array_equal(y[:, j], column_reference[j]), (flags, j)

    @pytest.mark.parametrize("backend", sorted(set(backend_names())))
    def test_vector_path_unchanged(
        self,
        demo_mesh,
        partition,
        demo_materials,
        x_block,
        column_reference,
        backend,
    ):
        with DistributedSMVP(
            demo_mesh, partition, demo_materials, backend=backend
        ) as ds:
            y = ds.multiply(x_block[:, 0].copy())
        assert y.ndim == 1
        assert np.array_equal(y, column_reference[0])

    def test_single_column_block_matches_vector(
        self, demo_mesh, partition, demo_materials, x_block, column_reference
    ):
        with DistributedSMVP(demo_mesh, partition, demo_materials) as ds:
            y = ds.multiply(x_block[:, :1].copy())
        assert y.shape == (x_block.shape[0], 1)
        assert np.array_equal(y[:, 0], column_reference[0])

    def test_trace_records_block_width(
        self, demo_mesh, partition, demo_materials, x_block
    ):
        traces = []
        with DistributedSMVP(
            demo_mesh, partition, demo_materials, trace_sink=traces.append
        ) as ds:
            ds.multiply(x_block[:, 0].copy())
            ds.multiply(x_block)
        vec, blk = traces
        assert vec.rhs == 1
        assert blk.rhs == R
        # r words ship per shared dof in the same block count.
        assert np.array_equal(
            np.asarray(blk.words_sent), R * np.asarray(vec.words_sent)
        )
        assert np.array_equal(
            np.asarray(blk.blocks_sent), np.asarray(vec.blocks_sent)
        )

    def test_overlap_trace_records_block_width(
        self, demo_mesh, partition, demo_materials, x_block
    ):
        traces = []
        with DistributedSMVP(
            demo_mesh,
            partition,
            demo_materials,
            backend="overlap",
            trace_sink=traces.append,
        ) as ds:
            ds.multiply(x_block)
        assert traces[0].rhs == R
        assert traces[0].backend == "overlap"


# ---------------------------------------------------------------------------
# Backend protocol


class TestBackendBlockProtocol:
    @pytest.mark.parametrize(
        "how", ["fresh", "warm-out", "strided-x", "strided-out"]
    )
    @pytest.mark.parametrize("r", [1, 4])
    def test_product_is_one_call_for_every_width(
        self, two_tet_mesh, r, how, csr_kernel
    ):
        """``product`` on a vector or an n x r block, into a fresh array,
        a caller's warm buffer or a strided view of one, from contiguous
        or strided x: every column is the r=1 ``product`` of that
        column, bit for bit, on the compiled loop and on scipy's."""
        from repro.fem.material import ElementMaterials

        k = assemble_stiffness(two_tet_mesh, ElementMaterials.homogeneous(2))
        kern = csr_kernel
        state = kern.prepare(k)
        assert isinstance(state, PackedState) == (kern is get_kernel("csr"))
        wide = np.random.default_rng(0).standard_normal((k.shape[1], 2 * r))
        x = wide[:, ::2] if how == "strided-x" else wide[:, :r].copy()
        out = np.full((k.shape[0], 2 * r), np.nan)
        if how == "fresh":
            out = None
        elif how == "strided-out":
            out = out[:, ::2]
        else:
            out = out[:, :r].copy()
        if r == 1:
            x = x[:, 0]
            out = None if out is None else out[:, 0]
        y = kern.product(state, x, out)
        assert out is None or y is out
        assert y.shape == (k.shape[0],) + x.shape[1:]
        columns = y.reshape(k.shape[0], r)
        for j in range(r):
            column = np.ascontiguousarray(x.reshape(-1, r)[:, j])
            assert np.array_equal(columns[:, j], kern.product(state, column))
        assert np.allclose(y, k @ x)

    def test_unknown_backend_still_rejected(self):
        with pytest.raises(ValueError):
            make_backend("warp-drive")


# ---------------------------------------------------------------------------
# Timestepper: r scenarios in lockstep


class TestBlockTimestepper:
    @pytest.fixture(scope="class")
    def operators(self, demo_mesh, demo_materials):
        k = assemble_stiffness(demo_mesh, demo_materials)
        m = assemble_lumped_mass(demo_mesh, demo_materials)
        dt = stable_timestep(demo_mesh, demo_materials)
        return k, m, dt

    def test_block_trajectory_matches_independent_runs(self, operators):
        k, m, dt = operators
        n = k.shape[0]
        rng = np.random.default_rng(3)
        u0 = rng.standard_normal((n, 3)) * 1e-3
        block = ExplicitTimeStepper(k, m, dt, damping_alpha=0.02, rhs=3)
        block.set_state(u0, u0, 0)
        for _ in range(5):
            block.step()
        for j in range(3):
            solo = ExplicitTimeStepper(k, m, dt, damping_alpha=0.02)
            solo.set_state(u0[:, j], u0[:, j], 0)
            for _ in range(5):
                solo.step()
            assert np.array_equal(block.u[:, j], solo.u), j

    def test_seismograms_gain_rhs_axis(self, operators):
        k, m, dt = operators
        stepper = ExplicitTimeStepper(k, m, dt, rhs=2)
        nodes = np.array([0, 5])
        records, seis = stepper.run(
            4,
            force_at=lambda t: np.full(k.shape[0], 1e-6),
            record_nodes=nodes,
        )
        assert len(records) == 4
        assert seis.shape == (4, 2, 3, 2)
        # A broadcast force drives every column identically.
        assert np.array_equal(seis[..., 0], seis[..., 1])

    def test_rhs_validation(self, operators):
        k, m, dt = operators
        with pytest.raises(ValueError, match="rhs"):
            ExplicitTimeStepper(k, m, dt, rhs=0)


# ---------------------------------------------------------------------------
# Model: Eq.(2) with the r-aware volume term


class TestBlockModel:
    @pytest.fixture(scope="class")
    def schedule(self, demo_mesh, partition):
        return CommSchedule(DataDistribution(demo_mesh, partition))

    @pytest.fixture(scope="class")
    def flops(self, demo_mesh, partition):
        return DataDistribution(demo_mesh, partition).local_counts["flops"]

    def test_rhs1_is_bit_identical(self, flops, schedule):
        base = BspSimulator(flops, schedule, CRAY_T3E).run("barrier")
        one = BspSimulator(flops, schedule, CRAY_T3E, rhs=1).run("barrier")
        assert one.t_comp == base.t_comp
        assert one.t_comm == base.t_comm
        assert one.t_smvp == base.t_smvp

    def test_volume_scales_latency_does_not(self, flops, schedule):
        r = 16
        base = BspSimulator(flops, schedule, CRAY_T3E).run("barrier")
        blk = BspSimulator(flops, schedule, CRAY_T3E, rhs=r).run("barrier")
        assert blk.t_comp == pytest.approx(r * base.t_comp)
        # Latency amortizes: r columns cost less than r supersteps.
        assert blk.t_smvp < r * base.t_smvp
        assert blk.t_comm < r * base.t_comm

    def test_eq2_volume_term(self, schedule):
        m = CRAY_T3E
        base = eq2_t_comm(schedule, m)
        assert eq2_t_comm(schedule, m, rhs=1) == base
        assert eq2_t_comm(schedule, m, rhs=8) == pytest.approx(
            schedule.b_max * m.tl + schedule.c_max * m.tw * 8
        )
        with pytest.raises(ValueError, match="rhs"):
            eq2_t_comm(schedule, m, rhs=0)

    def test_simulator_rejects_bad_rhs(self, flops, schedule):
        with pytest.raises(ValueError, match="rhs"):
            BspSimulator(flops, schedule, CRAY_T3E, rhs=0)


# ---------------------------------------------------------------------------
# Telemetry: drift predictions track r


class TestBlockDrift:
    def test_breakdown_scales_with_rhs(self, demo_mesh, partition):
        dist = DataDistribution(demo_mesh, partition)
        schedule = CommSchedule(dist)
        flops = dist.local_counts["flops"]
        base = modeled_breakdown(flops, schedule, CRAY_T3E)
        blk = modeled_breakdown(flops, schedule, CRAY_T3E, rhs=4)
        assert blk.t_comp == pytest.approx(4 * base.t_comp)
        assert base.t_comm < blk.t_comm < 4 * base.t_comm
        with pytest.raises(ValueError, match="rhs"):
            modeled_breakdown(flops, schedule, CRAY_T3E, rhs=0)

    def test_monitor_words_scheduled(self, demo_mesh, partition):
        dist = DataDistribution(demo_mesh, partition)
        schedule = CommSchedule(dist)
        flops = dist.local_counts["flops"]
        mon1 = DriftMonitor(flops, schedule, CRAY_T3E)
        mon4 = DriftMonitor(flops, schedule, CRAY_T3E, rhs=4)
        assert mon4.words_scheduled == 4 * mon1.words_scheduled
        with pytest.raises(ValueError, match="rhs"):
            DriftMonitor(flops, schedule, CRAY_T3E, rhs=0)


# ---------------------------------------------------------------------------
# Measurement layers


class TestBlockMeasurement:
    def test_measure_tf_block(self, demo_mesh, demo_materials):
        k = assemble_stiffness(demo_mesh, demo_materials)
        m = measure_tf(k, repetitions=1, warmup=0, rhs=4)
        assert m.tf_ns > 0
        assert m.seconds_per_product > 0
        with pytest.raises(ValueError, match="rhs"):
            measure_tf(k, rhs=0)
        for bad in (0, -2):
            with pytest.raises(ValueError, match="repetitions must be >= 1"):
                measure_tf(k, repetitions=bad)
        with pytest.raises(ValueError, match="warmup must be >= 0"):
            measure_tf(k, warmup=-1)

    def test_run_kernel_block_flops(self):
        base = run_kernel("smv0", instance="demo", repetitions=1)
        blk = run_kernel("smv0", instance="demo", repetitions=1, rhs=4)
        assert blk.rhs == 4
        assert blk.flops == 4 * base.flops
        with pytest.raises(ValueError, match="rhs"):
            run_kernel("smv0", instance="demo", rhs=0)


# ---------------------------------------------------------------------------
# CLI surface


class TestCliRhs:
    @pytest.mark.parametrize(
        "main, extra",
        [
            (main_measure, []),
            (main_trace, ["--instance", "demo", "--steps", "1"]),
        ],
        ids=["measure", "trace"],
    )
    def test_rhs_below_one_rejected(self, main, extra, capsys):
        with pytest.raises(SystemExit) as exc:
            main(extra + ["--rhs", "0"])
        assert exc.value.code == 2
        assert "--rhs must be >= 1" in capsys.readouterr().err

    def test_trace_runs_block(self, capsys):
        argv = ["--instance", "demo", "--pes", "4", "--steps", "2"]
        assert main_trace(argv + ["--rhs", "2"]) == 0
        out = capsys.readouterr().out
        assert " rhs=2\n" in out
        assert "ran 2 steps" in out and "finite=True" in out


# ---------------------------------------------------------------------------
# ABFT on block supersteps


class TestBlockAbft:
    def test_block_flips_detected_and_healed_bit_exactly(
        self, demo_mesh, partition, demo_materials, x_block, column_reference
    ):
        with DistributedSMVP(
            demo_mesh,
            partition,
            demo_materials,
            injector=FaultInjector(FaultConfig(seed=5, flip_y_rate=1.0)),
            abft=True,
        ) as smvp:
            healed = smvp.multiply(x_block)
            stats = smvp.sdc_stats
        for j in range(R):
            assert np.array_equal(healed[:, j], column_reference[j]), j
        assert stats.injected_sdc == PES
        assert stats.detected_sdc >= stats.injected_sdc
        assert stats.escaped_sdc == 0
        assert stats.sdc_contained

    @given(
        pe=st.integers(min_value=0, max_value=PES - 1),
        col=st.integers(min_value=0, max_value=R - 1),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_any_single_column_flip_is_detected(
        self, demo_mesh, partition, demo_materials, x_block, pe, col, seed
    ):
        """A sign flip of any column's dominant word fails the check."""
        with DistributedSMVP(demo_mesh, partition, demo_materials) as smvp:
            checker = AbftChecker(smvp.local_matrices)
            nodes = smvp.local_nodes[pe]
            X_local = x_block.reshape(-1, 3, R)[nodes].reshape(-1, R)
            Y = smvp._recompute(pe, X_local)
            assert checker.check_compute(pe, X_local, Y).ok
            row = int(
                np.random.default_rng(seed).integers(0, Y.shape[0])
            )
            if Y[row, col] == 0.0:
                row = int(np.argmax(np.abs(Y[:, col])))
            Y[row, col] *= -1.0
            check = checker.check_compute(pe, X_local, Y)
        assert not check.ok
