"""The ``csr`` kernel's compiled node-block loop against scipy's loop.

``csr`` runs a compiled loop over the matrix's own CSR arrays when every
node's three rows share one column list (``NodalState``), and scipy's
loop otherwise or where the loop cannot be built.  The guarantees:

* the compiled product is bit for bit scipy's ``csr_matvec`` /
  ``csr_matvecs`` on a zeroed output — the oracle here is scipy's own
  ``_sparsetools``, never ``csr`` itself — for every block width,
  special value and ``x`` / ``out`` layout;
* a matrix without the node structure takes scipy's path, same bits;
* both paths reject an ``x`` or ``out`` of the wrong shape before they
  read or write a word past either;
* with the loop unavailable, the golden flag matrix still passes;
* ``threaded`` equals ``serial`` bitwise, and a state outlives the
  caller's reference to its matrix.
"""

import gc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse import _sparsetools

from repro.partition.base import partition_mesh
from repro.smvp import kernels
from repro.smvp.backends.threaded import ThreadedBackend
from repro.smvp.executor import DistributedSMVP
from repro.smvp.kernels import NodalState, get_kernel, nodal_library
from tests.conftest import FLAG_SUBSETS, flagged_multiply

GOLDEN = Path(__file__).parent / "golden" / "smvp_serial_golden.npz"
CSR = get_kernel("csr")

#: Values whose arithmetic a reordered or fused loop would change.
SPECIAL = (np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e-310, 1.0)
VALUES = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(-1e6, 1e6, allow_nan=False, width=64),
)

needs_loop = pytest.mark.skipif(
    nodal_library() is None, reason="the compiled loop is unavailable here"
)


def scipy_product(matrix, x):
    """scipy's own loop on a zeroed output: the bits ``csr`` must give."""
    x = np.ascontiguousarray(x)
    n_row, n_col = matrix.shape
    y = np.zeros((n_row,) + x.shape[1:])
    if x.ndim == 2:
        _sparsetools.csr_matvecs(
            n_row, n_col, x.shape[1], matrix.indptr, matrix.indices,
            matrix.data, x.ravel(), y.ravel(),
        )
    else:
        _sparsetools.csr_matvec(
            n_row, n_col, matrix.indptr, matrix.indices, matrix.data, x, y
        )
    return y


def same_bits(a, b):
    """Equal bit patterns, NaN for NaN (IEEE leaves which NaN payload an
    operation propagates to the hardware, so payloads are not compared)."""
    nan = np.isnan(a)
    return (
        a.shape == b.shape
        and np.array_equal(nan, np.isnan(b))
        and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64))
    )


def node_block_matrix(columns, values, n_col_nodes):
    """CSR with one column list per node (``columns[b]``: column nodes,
    any order, repeats allowed), expanded to dofs; ``values`` fills
    ``data`` in stored order."""
    indptr, indices = [0], []
    for nodes in columns:
        dofs = [3 * c + d for c in nodes for d in range(3)]
        for _ in range(3):
            indices.extend(dofs)
            indptr.append(len(indices))
    data = np.asarray(values[: len(indices)], dtype=np.float64)
    return sp.csr_matrix(
        (data, np.asarray(indices, np.int32), np.asarray(indptr, np.int32)),
        shape=(3 * len(columns), 3 * n_col_nodes),
    )


@st.composite
def node_block_problems(draw):
    """A random node-block matrix (empty node rows and a single node
    included), a width r in 1..20 and inputs full of special values."""
    n_col_nodes = draw(st.integers(1, 5))
    columns = draw(
        st.lists(
            st.lists(st.integers(0, n_col_nodes - 1), max_size=6),
            min_size=1,
            max_size=5,
        )
    )
    nnz = 3 * 3 * sum(len(c) for c in columns)
    values = draw(arrays(np.float64, nnz, elements=VALUES))
    matrix = node_block_matrix(columns, values, n_col_nodes)
    r = draw(st.integers(1, 20))
    vector = r == 1 and draw(st.booleans())
    shape = (matrix.shape[1],) if vector else (matrix.shape[1], r)
    x = draw(arrays(np.float64, shape, elements=VALUES))
    return matrix, x


def layouts(x, n_row, how_x, how_out):
    """``x`` contiguous or strided (same values); ``out`` None, a warm
    contiguous buffer, or a strided view."""
    if how_x == "strided":
        wide = np.full((2 * x.shape[0],) + x.shape[1:], np.nan)
        wide[::2] = x
        x = wide[::2]
    shape = (n_row,) + x.shape[1:]
    if how_out == "fresh":
        out = None
    elif how_out == "warm":
        out = np.full(shape, np.nan)
    else:
        out = np.full((2 * n_row,) + x.shape[1:], np.nan)[::2]
    return x, out


@pytest.fixture(scope="module")
def demo_stiffness(demo_mesh, demo_materials):
    from repro.fem.assembly import assemble_stiffness

    return assemble_stiffness(demo_mesh, demo_materials)


def check_product(matrix, state, x, how_x, how_out):
    expected = scipy_product(matrix, x)
    x_in, out = layouts(x, matrix.shape[0], how_x, how_out)
    y = CSR.product(state, x_in, out)
    assert out is None or y is out
    assert same_bits(np.asarray(y), expected)


class TestCompiledLoopIsScipysLoop:
    @needs_loop
    @settings(max_examples=300, deadline=None)
    @given(
        node_block_problems(),
        st.sampled_from(["contiguous", "strided"]),
        st.sampled_from(["fresh", "warm", "strided"]),
    )
    def test_oracle(self, problem, how_x, how_out):
        matrix, x = problem
        state = CSR.prepare(matrix)
        assert isinstance(state, NodalState)
        check_product(matrix, state, x, how_x, how_out)

    @needs_loop
    @pytest.mark.parametrize("r", range(1, 21))
    def test_every_tile_width_on_assembled_rows(self, demo_stiffness, r):
        """Every tile width and remainder on a real stiffness matrix, and
        on its first third of rows (a row split)."""
        x = np.random.default_rng(r).standard_normal(
            (demo_stiffness.shape[1], r)
        )
        third = demo_stiffness.shape[0] // 9 * 3
        for matrix in (demo_stiffness, demo_stiffness[:third]):
            state = CSR.prepare(matrix)
            assert isinstance(state, NodalState)
            assert same_bits(CSR.product(state, x), scipy_product(matrix, x))

    def test_shape_mismatch_rejected(self, demo_stiffness):
        state = CSR.prepare(demo_stiffness)
        for bad in (np.zeros(7), np.zeros((7, 2)), np.zeros((3, 3, 3))):
            with pytest.raises(ValueError):
                CSR.product(state, bad)


def non_nodal_matrices():
    """Matrices just off the node structure, each a scipy-path case."""
    rng = np.random.default_rng(5)
    values = rng.standard_normal(400)
    base = node_block_matrix([[0, 1], [1, 2], [2]], values, 3)
    pattern_off = base.copy()
    pattern_off.indices[base.indptr[4]] = 2  # node 1, second row only
    not_triples = sp.csr_matrix(rng.standard_normal((7, 9)))
    wide_index = base.copy()
    wide_index.indices = wide_index.indices.astype(np.int64)
    wide_index.indptr = wide_index.indptr.astype(np.int64)
    return {
        "one-row-pattern-off": pattern_off,
        "rows-not-triples": not_triples,
        "int64-indices": wide_index,
    }


#: x and out shapes ``product`` must refuse on a 9 x 12 matrix, each
#: with the error's subject: the loops index both by the matrix's shape.
SHAPE_MISMATCHES = {
    "out-too-short": ((12,), (4,), "out"),
    "out-too-long": ((12,), (10,), "out"),
    "out-too-few-columns": ((12, 3), (9, 2), "out"),
    "out-block-for-vector": ((12,), (9, 1), "out"),
    "out-vector-for-block": ((12, 3), (27,), "out"),
    "x-too-short": ((7,), (9,), "x"),
    "x-block-too-short": ((7, 3), (9, 3), "x"),
    "x-too-long": ((13,), (9,), "x"),
    "x-three-axes": ((12, 1, 1), (9, 1, 1), "x"),
    "x-scalar": ((), (9,), "x"),
}


class TestShapeMismatch:
    @pytest.mark.parametrize("case", sorted(SHAPE_MISMATCHES))
    def test_rejected_without_touching_memory(self, case, csr_path):
        """``x`` and ``out`` are views into larger buffers: a read past
        ``x`` would bring its tail's 1e30s in, a write past ``out`` would
        land in its tail; both buffers must stay untouched."""
        x_shape, out_shape, subject = SHAPE_MISMATCHES[case]
        matrix = node_block_matrix([[0, 1], [1, 2, 3], [3]], np.ones(200), 4)
        state = CSR.prepare(matrix)
        assert isinstance(state, NodalState) == (csr_path == "compiled")
        x_size, out_size = int(np.prod(x_shape)), int(np.prod(out_shape))
        big_x = np.full(x_size + 20, 1e30)
        big_x[:x_size] = 1.0
        big_out = np.full(out_size + 20, -7.0)
        with pytest.raises(ValueError, match=f"{subject} has shape"):
            CSR.product(
                state,
                big_x[:x_size].reshape(x_shape),
                big_out[:out_size].reshape(out_shape),
            )
        assert np.all(big_out == -7.0)
        assert np.all(big_x[:x_size] == 1.0) and np.all(big_x[x_size:] == 1e30)

    def test_random_matrix_takes_scipys_path(self):
        """The reported case: a random 10 x 12 matrix has no node
        structure, and a 4-entry ``out`` for its product is refused."""
        matrix = sp.random(10, 12, density=0.5, format="csr", random_state=0)
        assert CSR.prepare(matrix) is matrix
        big = np.full(30, -7.0)
        with pytest.raises(ValueError, match="out has shape"):
            CSR.product(matrix, np.ones(12), big[:4])
        assert np.all(big == -7.0)


class TestScipyPath:
    @pytest.mark.parametrize("how_out", ["fresh", "warm", "strided"])
    @pytest.mark.parametrize("how_x", ["contiguous", "strided"])
    @pytest.mark.parametrize("r", [1, 4, 17])
    @pytest.mark.parametrize("name", sorted(non_nodal_matrices()))
    def test_non_nodal_matrix_takes_scipys_path(self, name, r, how_x, how_out):
        matrix = non_nodal_matrices()[name]
        state = CSR.prepare(matrix)
        assert state is matrix
        x = np.random.default_rng(r).standard_normal(
            (matrix.shape[1],) + ((r,) if r > 1 else ())
        )
        check_product(matrix, state, x, how_x, how_out)

    @pytest.fixture(scope="class")
    def golden_case(self, demo_mesh):
        golden = np.load(GOLDEN)
        partition = partition_mesh(
            demo_mesh, int(golden["num_parts"]), seed=int(golden["partition_seed"])
        )
        x = np.random.default_rng(int(golden["x_seed"])).standard_normal(
            3 * demo_mesh.num_nodes
        )
        block = np.column_stack(
            [x, np.random.default_rng(1).standard_normal((x.size, 3))]
        )
        return partition, x, block, golden["y_csr"]

    @pytest.fixture(scope="class")
    def block_columns(self, demo_mesh, demo_materials, golden_case):
        """The block's columns through the default path (compiled where
        it builds): what the scipy path must reproduce."""
        partition, _, block, _ = golden_case
        with DistributedSMVP(demo_mesh, partition, demo_materials) as ds:
            return [ds.multiply(block[:, j].copy()) for j in range(4)]

    @pytest.mark.parametrize(
        "flags", FLAG_SUBSETS, ids=lambda f: "+".join(f) or "plain"
    )
    @pytest.mark.parametrize("backend", ["serial", "threaded", "overlap"])
    def test_golden_flag_matrix_without_the_loop(
        self,
        monkeypatch,
        demo_mesh,
        demo_materials,
        golden_case,
        block_columns,
        backend,
        flags,
    ):
        partition, x, block, y_golden = golden_case
        monkeypatch.setattr(kernels, "nodal_library", lambda: None)
        nodal = node_block_matrix([[0]], np.ones(9), 1)
        assert CSR.prepare(nodal) is nodal
        y = flagged_multiply(demo_mesh, partition, demo_materials, x, backend, flags)
        assert np.array_equal(y, y_golden)
        y4 = flagged_multiply(
            demo_mesh, partition, demo_materials, block, backend, flags
        )
        for j in range(4):
            assert np.array_equal(y4[:, j], block_columns[j]), j


@needs_loop
class TestStates:
    @pytest.mark.parametrize("r", [1, 16])
    def test_threaded_equals_serial_bitwise(
        self, demo_mesh, demo_materials, r
    ):
        partition = partition_mesh(demo_mesh, 8, seed=3)
        x = np.random.default_rng(r).standard_normal((3 * demo_mesh.num_nodes, r))
        if r == 1:
            x = x[:, 0]
        ys = {}
        # More workers than cores: the loop runs with the GIL released.
        for backend in ("serial", ThreadedBackend(workers=8)):
            with DistributedSMVP(
                demo_mesh, partition, demo_materials, backend=backend
            ) as ds:
                assert all(isinstance(s, NodalState) for s in ds.backend.states)
                ys[ds.backend_name] = [ds.multiply(x) for _ in range(3)]
        for y in ys["serial"] + ys["threaded"]:
            assert np.array_equal(y, ys["serial"][0])

    def test_state_outlives_the_matrix(self, demo_stiffness):
        matrix = demo_stiffness.copy()
        x = np.random.default_rng(0).standard_normal((matrix.shape[1], 5))
        expected = scipy_product(matrix, x)
        state = CSR.prepare(matrix)
        del matrix
        gc.collect()
        assert same_bits(CSR.product(state, x), expected)
