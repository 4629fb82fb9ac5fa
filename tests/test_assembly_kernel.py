"""The sort-free stiffness assembly against the triplets it replaced.

Assembly has one bit definition — every entry is +0.0 plus its element
contributions in ascending element order, left to right — and two
passes that must give it: the compiled pass (``fem/assembly.c``) and
the numpy pass (``assembly._numpy_assembly``: its specification, run
for a matrix past int32, and called directly here).  The oracle here is
the
assembly they replaced, spelled out: the old COO triplets in element
order, a *stable* sort by (row, column), and sequential sums.

* compiled == numpy == oracle, bit for bit, over random element subsets
  of demo and sf10e in scrambled node numberings; with one element's
  ``lam`` / ``mu`` NaNs of two payloads, NaN at the same entries on both
  paths and every other entry the same bits;
* ``indptr`` / ``indices`` byte-equal to scipy's COO → CSR of the same
  triplets, values within 1e-15 of it relative to the largest entry;
* no elements, empty resident rows, one element, a node of high valence,
  degenerate and foreign elements;
* every assembled matrix has the node structure ``csr``'s loop checks.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fem import assembly
from repro.fem.assembly import assemble_stiffness, assemble_subdomain_stiffness
from repro.fem.element import element_stiffness
from repro.fem.material import ElementMaterials, materials_from_model
from repro.mesh.core import TetMesh
from repro.smvp.kernels import PackedState


def numpy_stiffness(mesh, materials):
    """``assemble_stiffness`` by the numpy pass."""
    materials.check_covers(mesh)
    return assembly._numpy_assembly(
        mesh, materials, None, mesh.tets, mesh.num_nodes
    )


def numpy_subdomain(mesh, materials, element_ids, local_nodes):
    """``assemble_subdomain_stiffness`` by the numpy pass."""
    materials.check_covers(mesh)
    ids = np.asarray(element_ids, dtype=np.int64)
    nodes = np.asarray(local_nodes, dtype=np.int64)
    local = assembly._local_corners(mesh, ids, nodes)
    return assembly._numpy_assembly(mesh, materials, ids, local, len(nodes))


#: Each assembly's numpy pass.
NUMPY = {
    assemble_stiffness: numpy_stiffness,
    assemble_subdomain_stiffness: numpy_subdomain,
}


def triplets(mesh, materials):
    """The old COO triplets of the whole mesh, in element order."""
    m = mesh.num_elements
    k = element_stiffness(mesh, materials)
    dof = (3 * mesh.tets[:, :, None] + np.arange(3)).reshape(m, 12)
    rows = np.repeat(dof, 12, axis=1).ravel()
    cols = np.tile(dof, (1, 12)).ravel()
    return rows, cols, k.ravel()


def oracle(mesh, materials):
    """Stable sort of the triplets by (row, column), then each entry
    summed from +0.0 in the order its contributions arrived."""
    rows, cols, vals = triplets(mesh, materials)
    size = 3 * mesh.num_nodes
    order = np.argsort(rows * size + cols, kind="stable")
    rows, cols, vals = rows[order], cols[order], vals[order]
    new = np.ones(len(rows), bool)
    new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.flatnonzero(new)
    entry = np.cumsum(new) - 1
    rank = np.arange(len(rows)) - starts[entry]
    # Round r adds every entry's r-th contribution: each entry at most
    # once per round, so each entry adds in arrival order.
    by_rank = np.argsort(rank, kind="stable")
    bounds = np.searchsorted(rank[by_rank], np.arange(rank.max(initial=-1) + 2))
    data = np.zeros(len(starts))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        now = by_rank[lo:hi]
        data[entry[now]] += vals[now]
    indptr = np.zeros(size + 1, np.int64)
    np.cumsum(np.bincount(rows[starts], minlength=size), out=indptr[1:])
    return data, cols[starts], indptr


def scipy_coo(mesh, materials):
    """scipy's COO → CSR of the same triplets."""
    rows, cols, vals = triplets(mesh, materials)
    size = 3 * mesh.num_nodes
    rows, cols = rows.astype(np.int32), cols.astype(np.int32)
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()
    matrix.sum_duplicates()
    return matrix


def both_paths(assemble, *args):
    """``assemble(*args)`` through the compiled pass and through the
    numpy pass."""
    return [assemble(*args), NUMPY[assemble](*args)]


def assert_oracle_bits(matrices, mesh, materials):
    data, indices, indptr = oracle(mesh, materials)
    for matrix in matrices:
        assert matrix.shape == (3 * mesh.num_nodes,) * 2
        assert matrix.indptr.dtype == matrix.indices.dtype == np.int32
        assert np.array_equal(matrix.indptr, indptr)
        assert np.array_equal(matrix.indices, indices)
        assert np.array_equal(matrix.data.view(np.uint64), data.view(np.uint64))
        assert_node_structure(matrix)


def assert_node_structure(matrix):
    """``csr``'s packed loop accepts the matrix: node triples, and every
    block below the node diagonal its mirror transposed, bit for bit."""
    assert PackedState.of(matrix) is not None


def resident(mesh, element_ids, extra):
    """The elements' nodes, sorted, then ``extra`` nodes none of them
    touches (resident nodes with empty rows)."""
    corners = np.unique(mesh.tets[element_ids])
    spare = np.setdiff1d(np.arange(mesh.num_nodes), corners)[:extra]
    return np.concatenate([corners, spare])


def submesh(mesh, materials, element_ids, nodes):
    """Elements ``element_ids`` of ``mesh`` as a mesh of its own, whose
    node k is ``nodes[k]``."""
    relabel = np.empty(mesh.num_nodes, np.int64)
    relabel[nodes] = np.arange(len(nodes))
    sub = TetMesh(mesh.points[nodes], relabel[mesh.tets[element_ids]])
    return sub, ElementMaterials(
        materials.lam[element_ids],
        materials.mu[element_ids],
        materials.rho[element_ids],
    )


@st.composite
def element_subsets(draw, num_elements):
    """Sorted element ids (possibly none), a generator for scrambling
    and a count of unused resident nodes."""
    size = draw(st.integers(0, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = np.sort(rng.choice(num_elements, size=size, replace=False))
    return ids, rng, draw(st.integers(0, 5))


@pytest.fixture(scope="module")
def meshes(demo_mesh, sf10e_mesh, basin_model):
    return {
        name: (mesh, materials_from_model(mesh, basin_model))
        for name, mesh in (("demo", demo_mesh), ("sf10e", sf10e_mesh))
    }


class TestBits:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["demo", "sf10e"]), st.data())
    def test_compiled_numpy_oracle_agree(self, meshes, name, data):
        """Scrambled node numbering: ``assemble_stiffness`` of the
        elements as a mesh of their own."""
        mesh, materials = meshes[name]
        ids, rng, extra = data.draw(element_subsets(mesh.num_elements))
        nodes = rng.permutation(resident(mesh, ids, extra))
        sub, sub_mats = submesh(mesh, materials, ids, nodes)
        matrices = both_paths(assemble_stiffness, sub, sub_mats)
        assert_oracle_bits(matrices, sub, sub_mats)

    def test_nan_payloads_differ_only_inside_nan_entries(self, meshes):
        """One element's ``lam`` and ``mu`` are NaNs of two payloads:
        which payload an entry ends with depends on the order its sums
        meet, so the two paths may differ there — and only there.  NaN
        sits at the same entries on both, every other entry has the
        same bits."""
        mesh, materials = meshes["demo"]
        lam, mu = materials.lam.copy(), materials.mu.copy()
        lam[16331], mu[16331] = np.array(
            [0x7FF8000000000000, 0x7FF8000000000123], np.uint64
        ).view(np.float64)
        bent = ElementMaterials(lam, mu, materials.rho)
        compiled, fallback = both_paths(assemble_stiffness, mesh, bent)
        assert np.array_equal(compiled.indptr, fallback.indptr)
        assert np.array_equal(compiled.indices, fallback.indices)
        nan = np.isnan(compiled.data)
        assert nan.sum() == 144  # the element's 12 x 12 entries
        assert np.array_equal(nan, np.isnan(fallback.data))
        assert np.array_equal(
            compiled.data[~nan].view(np.uint64),
            fallback.data[~nan].view(np.uint64),
        )

    @settings(max_examples=15, deadline=None)
    @given(st.sampled_from(["demo", "sf10e"]), st.data())
    def test_subdomain_in_sorted_numbering(self, meshes, name, data):
        mesh, materials = meshes[name]
        ids, _, extra = data.draw(element_subsets(mesh.num_elements))
        nodes = np.sort(resident(mesh, ids, extra))
        matrices = both_paths(
            assemble_subdomain_stiffness, mesh, materials, ids, nodes
        )
        assert_oracle_bits(matrices, *submesh(mesh, materials, ids, nodes))

    @pytest.mark.parametrize("name", ["demo", "sf10e"])
    def test_scipy_structure_and_values(self, meshes, name):
        mesh, materials = meshes[name]
        reference = scipy_coo(mesh, materials)
        for matrix in both_paths(assemble_stiffness, mesh, materials):
            assert matrix.indptr.tobytes() == reference.indptr.tobytes()
            assert matrix.indices.tobytes() == reference.indices.tobytes()
            scale = np.abs(reference.data).max()
            assert np.abs(matrix.data - reference.data).max() <= 1e-15 * scale
            assert_node_structure(matrix)


class TestEdgeCases:
    def test_no_elements(self, demo_mesh, demo_materials):
        nodes = np.arange(5)
        for matrix in both_paths(
            assemble_subdomain_stiffness, demo_mesh, demo_materials, [], nodes
        ):
            assert matrix.shape == (15, 15)
            assert matrix.nnz == 0
            assert np.array_equal(matrix.indptr, np.zeros(16))
            assert_node_structure(matrix)

    def test_resident_nodes_with_empty_rows(self, demo_mesh, demo_materials):
        ids = np.array([7])
        corners = np.sort(demo_mesh.tets[7])
        spare = np.setdiff1d(np.arange(demo_mesh.num_nodes), corners)[:3]
        local = np.sort(np.concatenate([corners, spare]))
        for matrix in both_paths(
            assemble_subdomain_stiffness, demo_mesh, demo_materials, ids, local
        ):
            row_nnz = np.diff(matrix.indptr).reshape(-1, 3)[:, 0]
            assert np.array_equal(row_nnz == 0, np.isin(local, spare))
            assert matrix.nnz == 144
            assert_node_structure(matrix)

    def test_one_element(self, single_tet_mesh):
        materials = ElementMaterials.homogeneous(1)
        element = element_stiffness(single_tet_mesh, materials)[0]
        for matrix in both_paths(
            assemble_stiffness, single_tet_mesh, materials
        ):
            assert np.array_equal(matrix.toarray(), element + 0.0)

    def test_high_valence_node(self):
        """One node in 3000 elements with 900 distinct neighbours: no
        per-node neighbour bound anywhere."""
        rng = np.random.default_rng(11)
        points = rng.standard_normal((901, 3))
        others = np.array(
            [rng.choice(np.arange(1, 901), 3, replace=False) for _ in range(3000)]
        )
        others[:300] = np.arange(1, 901).reshape(300, 3)
        mesh = TetMesh(points, np.column_stack([np.zeros(3000, int), others]))
        materials = ElementMaterials.homogeneous(3000)
        matrices = both_paths(assemble_stiffness, mesh, materials)
        assert np.diff(matrices[0].indptr)[0] == 3 * 901
        assert_oracle_bits(matrices, mesh, materials)

    def test_degenerate_element_rejected(self):
        points = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]], float
        )
        flat = TetMesh(points, [[0, 1, 2, 3], [0, 1, 2, 4]])
        materials = ElementMaterials.homogeneous(2)
        for assemble in (assemble_stiffness, numpy_stiffness):
            with pytest.raises(ValueError, match="degenerate"):
                assemble(flat, materials)

    def test_foreign_node_rejected(self, demo_mesh, demo_materials):
        ids = np.array([0, 1, 2])
        local = np.unique(demo_mesh.tets[ids])[1:]
        for assemble in (assemble_subdomain_stiffness, numpy_subdomain):
            with pytest.raises(ValueError, match="local_nodes"):
                assemble(demo_mesh, demo_materials, ids, local)

    def test_compiled_pass_runs_by_default(self, demo_mesh, demo_materials):
        """Assembly below int32 never reaches the numpy pass."""
        with mock.patch.object(
            assembly, "_numpy_assembly", side_effect=AssertionError
        ):
            assemble_stiffness(demo_mesh, demo_materials)
