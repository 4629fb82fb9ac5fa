"""Tests for repro.smvp.kernels, repro.smvp.executor, repro.smvp.spark98."""

import numpy as np
import pytest

from repro.fem.assembly import assemble_stiffness
from repro.fem.material import materials_from_model
from repro.mesh.instances import get_instance
from repro.partition.base import partition_mesh
from repro.smvp.backends import backend_names
from repro.smvp.executor import DistributedSMVP
from repro.smvp.kernels import CSR, PackedState, measure_tf
from repro.smvp.spark98 import SUITE, run_kernel, run_suite


@pytest.fixture(scope="module")
def demo_stiffness(demo_mesh, demo_materials):
    return assemble_stiffness(demo_mesh, demo_materials)


class TestKernels:
    def test_measure_tf(self, demo_stiffness):
        m = measure_tf(demo_stiffness, "csr", repetitions=2)
        assert m.flops_per_product == 2 * demo_stiffness.nnz
        assert m.tf_ns > 0
        assert m.mflops > 0

    def test_measure_tf_unknown_kernel(self, demo_stiffness):
        with pytest.raises(ValueError):
            measure_tf(demo_stiffness, "avx512")


def assert_canonical_finite(matrix):
    """CSR with in-range, strictly ascending columns in every row (so
    sorted, no duplicates) and only finite values."""
    n = matrix.shape[0]
    indptr, indices = matrix.indptr, matrix.indices.astype(np.int64)
    assert matrix.shape == (n, n)
    assert indptr[0] == 0 and indptr[-1] == indices.size == matrix.data.size
    assert np.all(np.diff(indptr) >= 0)
    assert indices.size == 0 or 0 <= indices.min() <= indices.max() < n
    row = np.repeat(np.arange(n), np.diff(indptr))
    within = row[1:] == row[:-1]
    assert np.all(np.diff(indices)[within] > 0)
    assert np.all(np.isfinite(matrix.data))


class TestLocalStiffnessIsCanonical:
    """Every PE's assembled stiffness, on the direct route (each packed
    state's exact CSR, ``tocsr()``) and on the CSR route, is a canonical
    CSR of finite values on the repository's instances."""

    @pytest.mark.parametrize(
        "name, p", [("demo", 1), ("demo", 8), ("sf10e", 16), ("sf5e", 8)]
    )
    def test_every_local_matrix(self, csr_kernel, basin_model, name, p):
        mesh, _ = get_instance(name).build()
        partition = partition_mesh(mesh, p, seed=0)
        materials = materials_from_model(mesh, basin_model)
        with DistributedSMVP(
            mesh, partition, materials, kernel=csr_kernel
        ) as ds:
            for state in ds._states:
                direct = type(state) is PackedState
                assert direct == (csr_kernel is CSR)
                assert_canonical_finite(state.tocsr() if direct else state)


class TestDistributedSMVP:
    @pytest.mark.parametrize("method", ["geometric", "random"])
    @pytest.mark.parametrize("p", [1, 2, 7, 16, 33])
    def test_matches_global_product(
        self, demo_mesh, demo_materials, demo_stiffness, method, p
    ):
        partition = partition_mesh(demo_mesh, p, method=method, seed=1)
        ds = DistributedSMVP(demo_mesh, partition, demo_materials)
        assert ds.verify_against_global(demo_stiffness) < 1e-12

    def test_two_tet_instance(self, two_tet_mesh, homogeneous_materials):
        """The smallest mesh with a shared face: one tet per PE."""
        materials = homogeneous_materials(two_tet_mesh)
        partition = partition_mesh(two_tet_mesh, 2)
        with DistributedSMVP(two_tet_mesh, partition, materials) as ds:
            k = assemble_stiffness(two_tet_mesh, materials)
            assert ds.verify_against_global(k) < 1e-12

    @pytest.mark.parametrize("backend", sorted(backend_names()))
    def test_every_backend_multiply_agrees(
        self, demo_mesh, demo_materials, demo_stiffness, backend, csr_kernel
    ):
        partition = partition_mesh(demo_mesh, 6, seed=2)
        with DistributedSMVP(
            demo_mesh, partition, demo_materials, kernel=csr_kernel,
            backend=backend,
        ) as ds:
            compiled = [isinstance(s, PackedState) for s in ds.backend.states]
            assert compiled == [csr_kernel is CSR] * len(compiled)
            x = np.random.default_rng(7).standard_normal(
                3 * demo_mesh.num_nodes
            )
            y = ds.multiply(x)
        assert np.allclose(y, demo_stiffness @ x, rtol=1e-10)
        with DistributedSMVP(demo_mesh, partition, demo_materials) as serial:
            assert np.array_equal(y, serial.multiply(x))

    def test_unknown_kernel(self, demo_mesh, demo_materials):
        partition = partition_mesh(demo_mesh, 4)
        with pytest.raises(ValueError):
            DistributedSMVP(demo_mesh, partition, demo_materials, kernel="x")

    def test_traffic_matches_schedule(self, demo_mesh, demo_materials):
        partition = partition_mesh(demo_mesh, 8)
        ds = DistributedSMVP(demo_mesh, partition, demo_materials)
        x = np.random.default_rng(0).standard_normal(3 * demo_mesh.num_nodes)
        y_locals = ds.compute_phase(ds.scatter(x))
        _, record = ds.communication_phase(y_locals)
        mat = ds.schedule.word_matrix
        assert np.array_equal(record.words_sent, mat.sum(axis=1))
        assert np.array_equal(record.blocks_sent, (mat > 0).sum(axis=1))

    def test_flops_match_structural_model(self, demo_mesh, demo_materials):
        partition = partition_mesh(demo_mesh, 8)
        ds = DistributedSMVP(demo_mesh, partition, demo_materials)
        assert np.array_equal(
            ds.flops_per_pe(), ds.distribution.local_counts["flops"]
        )

    def test_scatter_shape_checked(self, demo_mesh, demo_materials):
        partition = partition_mesh(demo_mesh, 4)
        ds = DistributedSMVP(demo_mesh, partition, demo_materials)
        with pytest.raises(ValueError):
            ds.scatter(np.zeros(7))

    def test_shared_values_agree_across_pes(self, demo_mesh, demo_materials):
        # After the exchange, every PE holds the same summed y for a
        # shared node — the replicated-storage invariant.
        partition = partition_mesh(demo_mesh, 8)
        ds = DistributedSMVP(demo_mesh, partition, demo_materials)
        x = np.random.default_rng(5).standard_normal(3 * demo_mesh.num_nodes)
        y_locals = ds.compute_phase(ds.scatter(x))
        y_locals, _ = ds.communication_phase(y_locals)
        for (a, b), nodes in ds.distribution.pair_shared_nodes.items():
            ia = ds.distribution.global_to_local(a, nodes)
            ib = ds.distribution.global_to_local(b, nodes)
            va = y_locals[a].reshape(-1, 3)[ia]
            vb = y_locals[b].reshape(-1, 3)[ib]
            assert np.allclose(va, vb, rtol=1e-10, atol=1e-6)

    def test_time_stepping_with_distributed_smvp(
        self, demo_mesh, demo_materials, demo_stiffness
    ):
        from repro.fem.assembly import assemble_lumped_mass
        from repro.fem.timestepper import ExplicitTimeStepper, stable_timestep

        partition = partition_mesh(demo_mesh, 4)
        ds = DistributedSMVP(demo_mesh, partition, demo_materials)
        mass = assemble_lumped_mass(demo_mesh, demo_materials)
        dt = stable_timestep(demo_mesh, demo_materials)
        seq = ExplicitTimeStepper(demo_stiffness, mass, dt)
        dist = ExplicitTimeStepper(demo_stiffness, mass, dt, smvp=ds)
        force = np.zeros(3 * demo_mesh.num_nodes)
        force[123] = 1e9
        for _ in range(5):
            seq.step(force)
            dist.step(force)
        assert np.allclose(seq.u, dist.u, rtol=1e-10, atol=1e-12)


class TestSpark98Suite:
    def test_suite_names(self):
        assert SUITE == ("smv0", "lmv", "mmv")

    @pytest.mark.parametrize("kernel", SUITE)
    def test_run_kernel(self, kernel):
        run = run_kernel(kernel, instance="demo", num_parts=4, repetitions=1)
        assert run.flops > 0
        assert run.seconds_per_smvp > 0
        assert run.tf_ns > 0

    def test_unknown_kernel(self):
        with pytest.raises(ValueError):
            run_kernel("smv9", instance="demo")

    def test_run_suite_subset(self):
        results = run_suite(
            instance="demo", num_parts=2, repetitions=1, kernels=("smv0",)
        )
        assert set(results) == {"smv0"}

    def test_sequential_vs_partitioned_flop_accounting(self):
        seq = run_kernel("smv0", instance="demo", repetitions=1)
        par = run_kernel("lmv", instance="demo", num_parts=8, repetitions=1)
        # Replication means the partitioned kernel performs more flops.
        assert par.flops > seq.flops
