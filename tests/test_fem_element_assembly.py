"""Tests for repro.fem.element and repro.fem.assembly.

The load-bearing physics checks: element stiffness matrices must be
symmetric, positive semidefinite, and annihilate rigid-body motion
(translations and infinitesimal rotations); the assembled global matrix
inherits all three, has the paper's block sparsity (one 3x3 block per
node pair connected by an edge, plus diagonal blocks), and equals the
sum of its subdomain pieces.
"""

import zlib

import numpy as np
import pytest
import scipy.sparse as sp

from repro.fem import assembly
from repro.fem.assembly import (
    assemble_lumped_mass,
    assemble_stiffness,
    assemble_subdomain_stiffness,
)
from repro.fem.element import (
    element_lumped_mass,
    element_stiffness,
    shape_gradients,
)
from repro.fem.material import ElementMaterials, materials_from_model
from repro.fem.timestepper import stable_timestep
from repro.mesh.core import TetMesh
from repro.partition.base import partition_mesh
from repro.smvp.distribution import DataDistribution


def rigid_body_modes(points: np.ndarray) -> np.ndarray:
    """Six rigid-body displacement fields over the given nodes, each of
    length 3n: three translations and three infinitesimal rotations."""
    n = len(points)
    modes = []
    for axis in range(3):
        t = np.zeros((n, 3))
        t[:, axis] = 1.0
        modes.append(t.ravel())
    center = points.mean(axis=0)
    rel = points - center
    for axis in range(3):
        omega = np.zeros(3)
        omega[axis] = 1.0
        modes.append(np.cross(omega, rel).ravel())
    return np.array(modes)


class TestShapeGradients:
    def test_gradients_sum_to_zero(self, single_tet_mesh):
        grads, vols = shape_gradients(single_tet_mesh)
        assert np.allclose(grads.sum(axis=1), 0.0)
        assert vols[0] == pytest.approx(1 / 6)

    def test_linear_field_reproduced(self, single_tet_mesh):
        # grad of N_a dotted with nodal values of a linear field f(x) =
        # g . x must give back g.
        g = np.array([2.0, -1.0, 0.5])
        nodal = single_tet_mesh.points @ g
        grads, _ = shape_gradients(single_tet_mesh)
        recovered = np.einsum("a,ai->i", nodal, grads[0])
        assert np.allclose(recovered, g)

    def test_degenerate_rejected(self):
        pts = np.zeros((4, 3))
        pts[1] = [1, 0, 0]
        pts[2] = [2, 0, 0]
        pts[3] = [3, 0, 0]
        mesh = TetMesh(pts, np.array([[0, 1, 2, 3]]))
        with pytest.raises(ValueError, match="degenerate"):
            shape_gradients(mesh)


class TestElementStiffness:
    @pytest.fixture()
    def ke(self, single_tet_mesh):
        mats = ElementMaterials.homogeneous(1)
        return element_stiffness(single_tet_mesh, mats)[0]

    def test_shape(self, ke):
        assert ke.shape == (12, 12)

    def test_symmetric(self, ke):
        assert np.allclose(ke, ke.T, rtol=1e-12, atol=1e-6)

    def test_positive_semidefinite(self, ke):
        eigs = np.linalg.eigvalsh(ke)
        assert eigs.min() >= -1e-6 * abs(eigs.max())

    def test_exactly_six_zero_modes(self, ke):
        eigs = np.linalg.eigvalsh(ke)
        scale = abs(eigs.max())
        assert np.sum(np.abs(eigs) < 1e-9 * scale) == 6

    def test_annihilates_rigid_body_motion(self, single_tet_mesh, ke):
        modes = rigid_body_modes(single_tet_mesh.points)
        scale = np.abs(ke).max()
        for mode in modes:
            assert np.abs(ke @ mode).max() < 1e-9 * scale

    def test_uniform_compression_positive_energy(self, single_tet_mesh, ke):
        u = (single_tet_mesh.points * -0.01).ravel()  # uniform contraction
        energy = u @ ke @ u
        assert energy > 0

    def test_scales_with_stiffness(self, single_tet_mesh):
        soft = ElementMaterials(np.array([1e9]), np.array([1e9]), np.array([2000.0]))
        hard = ElementMaterials(np.array([2e9]), np.array([2e9]), np.array([2000.0]))
        k_soft = element_stiffness(single_tet_mesh, soft)[0]
        k_hard = element_stiffness(single_tet_mesh, hard)[0]
        assert np.allclose(k_hard, 2 * k_soft)


class TestElementMass:
    def test_quarter_mass_per_corner(self, single_tet_mesh):
        mats = ElementMaterials.homogeneous(1, rho=2400.0)
        masses = element_lumped_mass(single_tet_mesh, mats)
        expected = 2400.0 * (1 / 6) / 4
        assert np.allclose(masses, expected)


class TestMaterialsCoverage:
    """One element's materials never broadcast over a whole mesh."""

    def test_element_stiffness(self, demo_mesh):
        with pytest.raises(ValueError, match="cover the full mesh"):
            element_stiffness(demo_mesh, ElementMaterials.homogeneous(1))

    def test_element_lumped_mass(self, demo_mesh):
        with pytest.raises(ValueError, match="cover the full mesh"):
            element_lumped_mass(demo_mesh, ElementMaterials.homogeneous(1))

    def test_stable_timestep(self, demo_mesh):
        with pytest.raises(ValueError, match="cover the full mesh"):
            stable_timestep(demo_mesh, ElementMaterials.homogeneous(1))


class TestGlobalAssembly:
    def test_sparsity_pattern(self, demo_mesh, demo_materials):
        k = assemble_stiffness(demo_mesh, demo_materials)
        expected_nnz = 9 * (demo_mesh.num_nodes + 2 * demo_mesh.num_edges)
        assert k.nnz == expected_nnz

    def test_symmetry(self, demo_mesh, demo_materials):
        k = assemble_stiffness(demo_mesh, demo_materials)
        diff = abs(k - k.T).max()
        assert diff < 1e-9 * abs(k).max()

    def test_rigid_body_annihilated_globally(self, demo_mesh, demo_materials):
        k = assemble_stiffness(demo_mesh, demo_materials)
        modes = rigid_body_modes(demo_mesh.points)
        scale = np.abs(k.data).max() * 1e-3
        for mode in modes:
            assert np.abs(k @ mode).max() < 1e-6 * scale

    def test_numpy_pass_gives_the_same_bits(self, demo_mesh, demo_materials):
        """The numpy pass (one ``np.add.at`` over every element) gives
        the default assembly's bits."""
        whole = assemble_stiffness(demo_mesh, demo_materials)
        by_numpy = assembly._numpy_assembly(
            demo_mesh, demo_materials, None, demo_mesh.tets, demo_mesh.num_nodes
        )
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(
                getattr(whole, name), getattr(by_numpy, name)
            ), name

    def test_materials_length_checked(self, demo_mesh):
        with pytest.raises(ValueError):
            assemble_stiffness(demo_mesh, ElementMaterials.homogeneous(3))


class TestLumpedMass:
    def test_total_mass_conserved(self, demo_mesh, demo_materials):
        mass = assemble_lumped_mass(demo_mesh, demo_materials)
        vols = demo_mesh.volumes()
        expected = 3 * float((demo_materials.rho * vols).sum())
        assert mass.sum() == pytest.approx(expected)

    def test_strictly_positive(self, demo_mesh, demo_materials):
        assert assemble_lumped_mass(demo_mesh, demo_materials).min() > 0


class TestSubdomainAssembly:
    def test_subdomains_sum_to_global(self, demo_mesh, demo_materials):
        k_global = assemble_stiffness(demo_mesh, demo_materials)
        partition = partition_mesh(demo_mesh, 4)
        dist = DataDistribution(demo_mesh, partition)
        total = sp.csr_matrix(k_global.shape)
        for part in range(4):
            nodes = dist.local_nodes(part)
            local = assemble_subdomain_stiffness(
                demo_mesh,
                demo_materials,
                dist.local_elements(part),
                nodes,
            )
            # Lift local to global dof numbering.
            dof = (3 * nodes[:, None] + np.arange(3)).ravel()
            lift = sp.csr_matrix(
                (
                    np.ones(len(dof)),
                    (dof, np.arange(len(dof))),
                ),
                shape=(k_global.shape[0], len(dof)),
            )
            total = total + lift @ local @ lift.T
        assert abs(total - k_global).max() < 1e-9 * abs(k_global).max()

    def test_foreign_node_rejected(self, demo_mesh, demo_materials):
        partition = partition_mesh(demo_mesh, 4)
        dist = DataDistribution(demo_mesh, partition)
        wrong_nodes = dist.local_nodes(0)[:-5]  # drop some resident nodes
        with pytest.raises(ValueError, match="local_nodes"):
            assemble_subdomain_stiffness(
                demo_mesh, demo_materials, dist.local_elements(0), wrong_nodes
            )


def _crc(*parts: np.ndarray) -> int:
    crc = 0
    for part in parts:
        crc = zlib.crc32(part.tobytes(), crc)
    return crc


class TestAssembledBitsArePinned:
    """sf10e's global K and its eight geometric subdomain matrices.

    The structure (CRC-32 over ``indices`` then ``indptr``) is the one
    scipy's COO → CSR gave, unchanged since the triplets were int32.
    The values (CRC-32 over ``data``) are the sort-free definition —
    +0.0 plus each entry's element contributions in ascending element
    order — pinned when assembly stopped sorting triplets (scipy's
    unstable per-row sort had summed 347 114 of the 907 776 global
    entries in another order), and re-pinned when the element geometry
    moved from LAPACK's ``inv`` / ``det`` to the closed form: 855 481
    global entries moved, by at most 9.1e-16 of max |K|.
    """

    STRUCTURE = {
        "global": 0x129C68FA,
        "subdomains": [
            0x7E42704B, 0x477444E2, 0x6478953C, 0xA55DC6B8,
            0x9B17BE61, 0xBB75D318, 0x72866B2F, 0xB70B7C4F,
        ],
    }
    DATA = {
        "global": 0x67923986,
        "subdomains": [
            0x95DF00D2, 0x5CBF0EC4, 0x90F16D66, 0x8F3C3BED,
            0x675F5B09, 0xBF543413, 0x1065B4D2, 0x9DF1E664,
        ],
    }

    @pytest.fixture(scope="class")
    def matrices(self, sf10e_mesh, basin_model):
        materials = materials_from_model(sf10e_mesh, basin_model)
        partition = partition_mesh(sf10e_mesh, 8, method="geometric", seed=0)
        dist = DataDistribution(sf10e_mesh, partition)
        return {
            "global": assemble_stiffness(sf10e_mesh, materials),
            "subdomains": [
                assemble_subdomain_stiffness(
                    sf10e_mesh,
                    materials,
                    dist.local_elements(part),
                    dist.local_nodes(part),
                )
                for part in range(8)
            ],
        }

    @staticmethod
    def crcs(matrices, arrays):
        return {
            "global": _crc(*arrays(matrices["global"])),
            "subdomains": [_crc(*arrays(m)) for m in matrices["subdomains"]],
        }

    def test_structure(self, matrices):
        assert matrices["global"].indices.dtype == np.int32
        assert self.crcs(
            matrices, lambda m: (m.indices, m.indptr)
        ) == self.STRUCTURE

    def test_data(self, matrices):
        assert self.crcs(matrices, lambda m: (m.data,)) == self.DATA
