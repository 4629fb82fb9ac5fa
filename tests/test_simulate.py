"""Tests for repro.simulate (BSP simulator and model validation)."""

import numpy as np
import pytest

from repro.model.machine import CRAY_T3D, CRAY_T3E, Machine
from repro.partition.base import Partition, partition_mesh
from repro.simulate import BspSimulator, validate_model
from repro.simulate.bsp import modeled_critical_path
from repro.smvp.distribution import DataDistribution
from repro.smvp.schedule import CommSchedule
from repro.smvp.trace import TraceLog
from repro.telemetry.drift import DriftMonitor, eq2_t_comm, modeled_breakdown


@pytest.fixture(scope="module")
def demo_setup(demo_mesh):
    partition = partition_mesh(demo_mesh, 16, seed=0)
    dist = DataDistribution(demo_mesh, partition)
    schedule = CommSchedule(dist)
    flops = dist.local_counts["flops"]
    return flops, schedule


@pytest.fixture()
def two_tet_setup(two_tet_mesh):
    dist = DataDistribution(two_tet_mesh, Partition(np.array([0, 1]), 2))
    schedule = CommSchedule(dist)
    return dist.local_counts["flops"], schedule


class TestBarrierMode:
    def test_exact_formula_two_tets(self, two_tet_setup):
        flops, schedule = two_tet_setup
        machine = CRAY_T3E
        sim = BspSimulator(flops, schedule, machine)
        times = sim.run("barrier")
        assert times.t_comp == pytest.approx(flops.max() * machine.tf)
        expected_comm = 2 * machine.tl + 18 * machine.tw
        assert times.t_comm == pytest.approx(expected_comm)
        assert times.t_smvp == pytest.approx(times.t_comp + times.t_comm)

    def test_efficiency_definition(self, demo_setup):
        flops, schedule = demo_setup
        times = BspSimulator(flops, schedule, CRAY_T3E).run("barrier")
        assert times.efficiency == pytest.approx(times.t_comp / times.t_smvp)
        assert 0 < times.efficiency < 1

    def test_machine_without_comm_constants_rejected(self, demo_setup):
        flops, schedule = demo_setup
        with pytest.raises(ValueError):
            BspSimulator(flops, schedule, CRAY_T3D)

    def test_flops_length_checked(self, demo_setup):
        _, schedule = demo_setup
        with pytest.raises(ValueError):
            BspSimulator(np.ones(3), schedule, CRAY_T3E)


class TestSkewedMode:
    def test_bounds(self, demo_setup):
        flops, schedule = demo_setup
        sim = BspSimulator(flops, schedule, CRAY_T3E)
        barrier = sim.run("barrier")
        skewed = sim.run("skewed")
        # Lower bound: some PE must compute and then do all its traffic.
        lower = (
            flops * CRAY_T3E.tf
            + schedule.blocks_per_pe * CRAY_T3E.tl
            + schedule.words_per_pe * CRAY_T3E.tw
        ).max()
        assert skewed.t_smvp >= lower - 1e-15
        # Pairwise interface blocking can cost, but not more than the
        # total serialized traffic.
        total_comm = (
            schedule.blocks_per_pe * CRAY_T3E.tl
            + schedule.words_per_pe * CRAY_T3E.tw
        ).sum()
        assert skewed.t_smvp <= barrier.t_comp + total_comm

    def test_no_messages_means_compute_only(self, two_tet_mesh):
        dist = DataDistribution(two_tet_mesh, Partition(np.zeros(2, dtype=int), 1))
        schedule = CommSchedule(dist)
        flops = dist.local_counts["flops"]
        times = BspSimulator(flops, schedule, CRAY_T3E).run("skewed")
        assert times.t_comm == 0.0

    def test_two_pes_exact(self, two_tet_setup):
        flops, schedule = two_tet_setup
        machine = CRAY_T3E
        times = BspSimulator(flops, schedule, machine).run("skewed")
        # Both PEs have equal flops; the two 9-word transfers serialize
        # on the shared pair of interfaces.
        ready = flops.max() * machine.tf
        expected = ready + 2 * (machine.tl + 9 * machine.tw)
        assert times.t_smvp == pytest.approx(expected)


class TestOverlapMode:
    def test_needs_boundary_flops(self, demo_setup):
        flops, schedule = demo_setup
        sim = BspSimulator(flops, schedule, CRAY_T3E)
        with pytest.raises(ValueError):
            sim.run("overlap")

    def test_full_overlap_hides_comm(self, demo_setup):
        flops, schedule = demo_setup
        # Zero boundary flops and tiny comm: total = compute time.
        fast = Machine("fast-net", tf=CRAY_T3E.tf, tl=1e-12, tw=1e-15)
        sim = BspSimulator(
            flops, schedule, fast, boundary_flops_per_pe=np.zeros_like(flops)
        )
        times = sim.run("overlap")
        assert times.t_smvp == pytest.approx(times.t_comp, rel=1e-6)

    def test_overlap_never_slower_than_barrier(self, demo_setup):
        flops, schedule = demo_setup
        boundary = (0.3 * flops).astype(float)
        sim = BspSimulator(
            flops, schedule, CRAY_T3E, boundary_flops_per_pe=boundary
        )
        barrier = BspSimulator(flops, schedule, CRAY_T3E).run("barrier")
        overlap = sim.run("overlap")
        assert overlap.t_smvp <= barrier.t_smvp + 1e-15

    def test_boundary_flops_validated(self, demo_setup):
        flops, schedule = demo_setup
        sim = BspSimulator(
            flops, schedule, CRAY_T3E, boundary_flops_per_pe=flops * 2
        )
        with pytest.raises(ValueError):
            sim.run("overlap")

    def test_unknown_mode(self, demo_setup):
        flops, schedule = demo_setup
        with pytest.raises(ValueError):
            BspSimulator(flops, schedule, CRAY_T3E).run("warp")


class TestModelValidation:
    @pytest.mark.parametrize("p", [4, 8, 16, 32, 64])
    def test_holds_across_pe_counts(self, demo_mesh, p):
        partition = partition_mesh(demo_mesh, p, seed=0)
        dist = DataDistribution(demo_mesh, partition)
        schedule = CommSchedule(dist)
        v = validate_model(dist.local_counts["flops"], schedule, CRAY_T3E)
        assert v.model_holds
        assert 1.0 - 1e-12 <= v.ratio <= v.beta + 1e-9

    @pytest.mark.parametrize("p", [4, 16, 64])
    @pytest.mark.parametrize("method", ["geometric", "random"])
    def test_holds_across_partitioners(self, demo_mesh, method, p):
        partition = partition_mesh(demo_mesh, p, method=method, seed=1)
        dist = DataDistribution(demo_mesh, partition)
        schedule = CommSchedule(dist)
        v = validate_model(dist.local_counts["flops"], schedule, CRAY_T3E)
        assert v.model_holds

    def test_holds_across_machines(self, demo_setup):
        flops, schedule = demo_setup
        for tl, tw in ((1e-6, 1e-9), (100e-6, 1e-9), (1e-9, 1e-6)):
            machine = Machine("m", tf=10e-9, tl=tl, tw=tw)
            v = validate_model(flops, schedule, machine)
            assert v.model_holds, (tl, tw)


class TestOneEq2Accounting:
    """Every Eq. (2) evaluation is the schedule's one accounting, so the
    copies agree bit for bit — also at block widths that are not powers
    of two, where ``C (T_w r)`` and ``(C T_w) r`` round differently."""

    MACHINES = [
        Machine("m", tf=14e-9, tl=22e-6, tw=tw, tq=tq)
        for tw in (55e-9, 7e-9, 1.3e-8, 3.1e-9)
        for tq in (None, 2.5e-7)
    ]

    @pytest.fixture(scope="class")
    def profiled_trace(self, demo_mesh, demo_materials):
        """One profiled superstep: the drift monitor's term split is
        computed only for traces carrying spans."""
        from repro.smvp.executor import DistributedSMVP

        log = TraceLog()
        with DistributedSMVP(
            demo_mesh,
            partition_mesh(demo_mesh, 4, seed=0),
            demo_materials,
            profile=True,
            trace_sink=log,
        ) as ds:
            ds.multiply(np.ones(3 * demo_mesh.num_nodes))
        return log.traces[0]

    @pytest.mark.parametrize("p", [4, 8, 16, 32, 64])
    def test_copies_agree_bitwise_on_sf10e(
        self, sf10e_mesh, profiled_trace, p
    ):
        partition = partition_mesh(sf10e_mesh, p, seed=0)
        dist = DataDistribution(sf10e_mesh, partition)
        schedule = CommSchedule(dist)
        flops = dist.local_counts["flops"]
        for machine in self.MACHINES:
            for r in (1, 3, 5, 12, 16):
                case = (p, machine.tw, machine.tq, r)
                eq2 = eq2_t_comm(schedule, machine, rhs=r)
                split = modeled_critical_path(flops, schedule, machine, rhs=r)
                assert split["latency"] + split["bandwidth"] == eq2, case

                monitor = DriftMonitor(flops, schedule, machine, rhs=r)
                terms = monitor.observe(profiled_trace).term_residuals
                latency = terms["latency"]["modeled"]
                bandwidth = terms["bandwidth"]["modeled"]
                assert latency + bandwidth == monitor.eq2, case

                sim = BspSimulator(flops, schedule, machine, rhs=r)
                run = sim.run("barrier")
                model = modeled_breakdown(flops, schedule, machine, rhs=r)
                assert model.t_comm == run.t_comm, case
