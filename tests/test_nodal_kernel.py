"""The ``csr`` kernel's packed symmetric node-block loop against scipy's.

``csr`` packs a matrix whose node rows hold whole node triples in
ascending order, and whose every block below the node diagonal is its
mirror transposed bit for bit, into one 3x3 block per node pair
(``PackedState``); anything else stays CSR and runs scipy's loop.  The
guarantees:

* the packed product is bit for bit scipy's ``csr_matvec`` /
  ``csr_matvecs`` on a zeroed output — the oracle here is scipy's own
  ``_sparsetools``, never ``csr`` itself — for every block width,
  special value and ``x`` / ``out`` layout;
* a matrix without the node structure, or one bit off symmetric,
  takes scipy's path, same bits;
* both paths reject an ``x`` or ``out`` of the wrong shape before they
  read or write a word past either, and an ``out`` that may share
  memory with ``x``;
* ``state.tocsr()`` is the packed matrix exactly, and an executor
  holds the packed states only — no CSR, and on the compiled path none
  is assembled;
* with every state a plain CSR (scipy's loop), the golden flag matrix
  still passes;
* ``threaded`` equals ``serial`` bitwise, and a state outlives the
  caller's reference to its matrix;
* the range entry over a table of packed states (any range, empty ones
  included) is each PE's own product and scipy's, bit for bit; an
  unobserved multiply makes one compiled compute call (``threaded``:
  one per worker, balanced by nonzeros) and no per-PE ``product``, a
  profiled one a call and a ``compute`` span per PE; a state that is not
  its slice's shape is refused when the executor is built.
"""

import gc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse import _sparsetools

from repro.partition.base import Partition, partition_mesh
from repro.profile.spans import HOST
from repro.smvp import kernels
from repro.smvp.backends.threaded import ThreadedBackend, balanced_ranges
from repro.smvp.executor import DistributedSMVP
from repro.smvp import executor as executor_module
from repro.fem.assembly import (
    assemble_subdomain_packed,
    assemble_subdomain_stiffness,
)
from repro.smvp.kernels import PackedState, get_kernel
from repro.smvp.layout import ContractViolation
from repro.smvp.trace import TraceLog
from tests.conftest import FLAG_SUBSETS, ScipyCsr, flagged_multiply

GOLDEN = Path(__file__).parent / "golden" / "smvp_serial_golden.npz"
CSR = get_kernel("csr")

#: Values whose arithmetic a reordered or fused loop would change.
SPECIAL = (np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e-310, 1.0)
VALUES = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(-1e6, 1e6, allow_nan=False, width=64),
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


def symmetric_node_block_matrix(pairs, blocks, n_row_nodes, n_col_nodes):
    """The leading ``n_row_nodes`` node rows of the bitwise-symmetric
    node-block matrix over ``n_col_nodes`` nodes whose block (b, c),
    for each pair ``b <= c`` in ``pairs``, is ``blocks[k]`` and whose
    block (c, b) is its transpose, bit for bit."""
    dense = {}
    for (b, c), block in zip(sorted(pairs), blocks):
        dense[b, c] = block
        if c != b:
            dense[c, b] = block.T.copy()
    indptr, indices, data = [0], [], []
    for b in range(n_row_nodes):
        row = sorted(c for (bb, c) in dense if bb == b)
        for i in range(3):
            for c in row:
                indices.extend(3 * c + j for j in range(3))
                data.extend(dense[b, c][i])
            indptr.append(len(indices))
    return sp.csr_matrix(
        (
            np.asarray(data, np.float64),
            np.asarray(indices, np.int32),
            np.asarray(indptr, np.int32),
        ),
        shape=(3 * n_row_nodes, 3 * n_col_nodes),
    )


def draw_x(draw, matrix):
    """A width r in 1..20 (a vector or an n x 1 block at r = 1) and an
    ``x`` full of special values."""
    r = draw(st.integers(1, 20))
    vector = r == 1 and draw(st.booleans())
    shape = (matrix.shape[1],) if vector else (matrix.shape[1], r)
    return draw(arrays(np.float64, shape, elements=VALUES))


def draw_blocks(draw, n_nodes, most):
    """Up to ``most`` node pairs ``b <= c`` among ``n_nodes`` nodes, and
    a 3x3 block full of special values for each."""
    pairs = draw(
        st.sets(
            st.tuples(*[st.integers(0, n_nodes - 1)] * 2)
            .map(sorted)
            .map(tuple),
            max_size=most,
        )
    )
    blocks = draw(
        st.lists(
            arrays(np.float64, (3, 3), elements=VALUES),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    return pairs, blocks


@st.composite
def symmetric_problems(draw):
    """A random bitwise-symmetric node-block matrix — empty node rows,
    a single node, and a leading row block of a symmetric matrix
    included — and an input full of special values."""
    n_col_nodes = draw(st.integers(1, 6))
    pairs, blocks = draw_blocks(draw, n_col_nodes, 12)
    n_row_nodes = draw(st.integers(1, n_col_nodes))
    matrix = symmetric_node_block_matrix(
        pairs, blocks, n_row_nodes, n_col_nodes
    )
    return matrix, draw_x(draw, matrix)


@st.composite
def node_block_problems(draw):
    """A random node-block matrix (any column order, repeats allowed:
    mostly not packable), a width r in 1..20 and special values."""
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
    return matrix, draw_x(draw, matrix)


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


def assert_same_csr(a, b):
    """The same CSR arrays: ``indptr``, ``indices`` and ``data`` bits."""
    assert a.shape == b.shape
    assert a.indptr.dtype == b.indptr.dtype == np.int32
    assert a.indices.dtype == b.indices.dtype == np.int32
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data.view(np.uint64), b.data.view(np.uint64))


class TestCompiledLoopIsScipysLoop:
    @settings(max_examples=300, deadline=None)
    @given(
        symmetric_problems(),
        st.sampled_from(["contiguous", "strided"]),
        st.sampled_from(["fresh", "warm", "strided"]),
    )
    def test_oracle(self, problem, how_x, how_out):
        matrix, x = problem
        state = CSR.prepare(matrix)
        assert isinstance(state, PackedState)
        check_product(matrix, state, x, how_x, how_out)
        assert_same_csr(state.tocsr(), matrix)

    @settings(max_examples=100, deadline=None)
    @given(node_block_problems(), st.sampled_from(["fresh", "warm"]))
    def test_any_node_block_matrix(self, problem, how_out):
        """Packed or not, a node-block matrix's product is scipy's."""
        matrix, x = problem
        check_product(matrix, CSR.prepare(matrix), x, "contiguous", how_out)

    @pytest.mark.parametrize("r", range(1, 21))
    def test_every_tile_width_on_assembled_rows(self, demo_stiffness, r):
        """Every tile width and remainder on a real stiffness matrix, and
        on its first third of rows (a row split: every block below the
        node diagonal still has its mirror)."""
        x = np.random.default_rng(r).standard_normal(
            (demo_stiffness.shape[1], r)
        )
        third = demo_stiffness.shape[0] // 9 * 3
        for matrix in (demo_stiffness, demo_stiffness[:third]):
            state = CSR.prepare(matrix)
            assert isinstance(state, PackedState)
            assert same_bits(CSR.product(state, x), scipy_product(matrix, x))
            assert_same_csr(state.tocsr(), matrix)

    @pytest.mark.parametrize("how", ["one-ulp", "signed-zero"])
    def test_one_bit_off_symmetric_takes_scipys_path(
        self, demo_stiffness, how
    ):
        """One entry below the node diagonal moved one ULP from its
        mirror, or a -0.0 against its mirror's +0.0: not packed."""
        matrix = demo_stiffness.copy()
        rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
        below = np.flatnonzero(matrix.indices // 3 < rows // 3)
        word = below[below.size // 2]
        if how == "one-ulp":
            matrix.data[word] = np.nextafter(matrix.data[word], np.inf)
        else:
            row, col = rows[word], matrix.indices[word]
            matrix.data[word] = -0.0
            start, end = matrix.indptr[col], matrix.indptr[col + 1]
            mirror = start + np.searchsorted(matrix.indices[start:end], row)
            matrix.data[mirror] = 0.0
        assert CSR.prepare(matrix) is matrix
        x = np.random.default_rng(0).standard_normal((matrix.shape[1], 3))
        assert same_bits(CSR.product(matrix, x), scipy_product(matrix, x))
        if how == "signed-zero":
            # The same matrix with both zeros +0.0 packs again.
            matrix.data[word] = 0.0
            assert isinstance(CSR.prepare(matrix), PackedState)

    def test_aliased_out_rejected(self, demo_stiffness, csr_kernel):
        """``out`` sharing memory with ``x`` — the same array, or an
        overlapping view — is refused on both paths, ``x`` untouched
        (the loops would read rows they have already overwritten)."""
        state = csr_kernel.prepare(demo_stiffness)
        assert isinstance(state, PackedState) == (csr_kernel is CSR)
        n = demo_stiffness.shape[0]
        for r in (1, 4):
            tail = (r,) if r > 1 else ()
            x = np.random.default_rng(r).standard_normal((n,) + tail)
            kept = x.copy()
            with pytest.raises(ValueError, match="share memory"):
                CSR.product(state, x, out=x)
            assert np.array_equal(x, kept)
            wide = np.zeros((2 * n,) + tail)
            wide[:n] = x
            with pytest.raises(ValueError, match="share memory"):
                CSR.product(state, wide[:n], out=wide[n // 2 : n // 2 + n])
            assert np.array_equal(wide[:n], kept)

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
    def test_rejected_without_touching_memory(self, case, csr_kernel):
        """``x`` and ``out`` are views into larger buffers: a read past
        ``x`` would bring its tail's 1e30s in, a write past ``out`` would
        land in its tail; both buffers must stay untouched."""
        x_shape, out_shape, subject = SHAPE_MISMATCHES[case]
        matrix = symmetric_node_block_matrix(
            [(0, 1), (1, 2), (1, 3), (3, 3)],
            np.arange(36.0).reshape(4, 3, 3),
            3,
            4,
        )
        state = csr_kernel.prepare(matrix)
        assert isinstance(state, PackedState) == (csr_kernel is CSR)
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
        partition = Partition(golden["parts"], int(golden["num_parts"]))
        x = np.random.default_rng(int(golden["x_seed"])).standard_normal(
            3 * demo_mesh.num_nodes
        )
        block = np.column_stack(
            [x, np.random.default_rng(1).standard_normal((x.size, 3))]
        )
        return partition, x, block, golden["y_csr"]

    @pytest.fixture(scope="class")
    def block_columns(self, demo_mesh, demo_materials, golden_case):
        """The block's columns through the default path (the compiled
        loop): what the scipy path must reproduce."""
        partition, _, block, _ = golden_case
        with DistributedSMVP(demo_mesh, partition, demo_materials) as ds:
            return [ds.multiply(block[:, j].copy()) for j in range(4)]

    @pytest.mark.parametrize(
        "flags", FLAG_SUBSETS, ids=lambda f: "+".join(f) or "plain"
    )
    @pytest.mark.parametrize("backend", ["serial", "threaded", "overlap"])
    def test_golden_flag_matrix_without_the_loop(
        self,
        demo_mesh,
        demo_materials,
        golden_case,
        block_columns,
        backend,
        flags,
    ):
        partition, x, block, y_golden = golden_case
        scipy_csr = ScipyCsr()
        y = flagged_multiply(
            demo_mesh, partition, demo_materials, x, backend, flags, scipy_csr
        )
        assert np.array_equal(y, y_golden)
        y4 = flagged_multiply(
            demo_mesh, partition, demo_materials, block, backend, flags,
            scipy_csr,
        )
        for j in range(4):
            assert np.array_equal(y4[:, j], block_columns[j]), j


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
                assert all(
                    isinstance(s, PackedState) for s in ds.backend.states
                )
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


class TestOneCopy:
    """An executor holds each local stiffness once: as its prepared
    state, from which ``local_matrices`` rebuilds the assembled CSR."""

    @pytest.fixture(scope="class")
    def partition(self, demo_mesh):
        return partition_mesh(demo_mesh, 4, seed=2)

    def test_local_matrices_are_the_assembled_ones(
        self, demo_mesh, demo_materials, partition, csr_kernel
    ):
        with DistributedSMVP(
            demo_mesh, partition, demo_materials, kernel=csr_kernel
        ) as ds:
            for pe in range(ds.num_parts):
                assembled = assemble_subdomain_stiffness(
                    demo_mesh,
                    demo_materials,
                    ds.distribution.local_elements(pe),
                    ds.local_nodes[pe],
                )
                assert_same_csr(ds.local_matrices[pe], assembled)
            assert list(ds.flops_per_pe()) == [
                2 * m.nnz for m in ds.local_matrices
            ]

    @pytest.mark.parametrize("abft", [False, True], ids=["plain", "abft"])
    def test_executor_holds_no_csr(
        self, monkeypatch, demo_mesh, demo_materials, partition, csr_kernel,
        abft,
    ):
        """Every CSR assembled during construction is gone afterwards on
        the packed path — there the states come straight from the
        elements, and only ABFT's checksum rows rebuild a CSR, one PE
        at a time; on scipy's path each one is its PE's state."""
        made = []

        def record(matrix):
            made.append((weakref.ref(matrix), weakref.ref(matrix.data)))
            return matrix

        monkeypatch.setattr(
            executor_module,
            "assemble_subdomain_stiffness",
            lambda *args: record(assemble_subdomain_stiffness(*args)),
        )
        tocsr = PackedState.tocsr
        monkeypatch.setattr(
            PackedState, "tocsr", lambda state: record(tocsr(state))
        )
        with DistributedSMVP(
            demo_mesh, partition, demo_materials, kernel=csr_kernel, abft=abft
        ) as ds:
            gc.collect()
            built = ds.num_parts if abft or csr_kernel is not CSR else 0
            assert len(made) == built
            for pe, refs in enumerate(made):
                if csr_kernel is CSR:
                    assert type(ds._states[pe]) is PackedState, pe
                    assert [ref() for ref in refs] == [None, None], pe
                else:
                    assert refs[0]() is ds._states[pe], pe


# ---------------------------------------------------------------------------
# The range entry: one compiled call over a range of PEs


@st.composite
def packed_tables(draw):
    """States of 1..4 random square bitwise-symmetric node-block
    matrices (empty node rows included), a range ``lo <= hi`` of them
    (empty ones too) and a whole x of width r in 1..20 full of special
    values."""
    matrices = []
    for _ in range(draw(st.integers(1, 4))):
        n_nodes = draw(st.integers(1, 5))
        pairs, blocks = draw_blocks(draw, n_nodes, 10)
        matrices.append(
            symmetric_node_block_matrix(pairs, blocks, n_nodes, n_nodes)
        )
    lo = draw(st.integers(0, len(matrices)))
    hi = draw(st.integers(lo, len(matrices)))
    rows = sum(m.shape[0] for m in matrices)
    r = draw(st.integers(1, 20))
    vector = r == 1 and draw(st.booleans())
    shape = (rows,) if vector else (rows, r)
    return matrices, lo, hi, draw(arrays(np.float64, shape, elements=VALUES))


def slice_of(a, offsets, pe):
    return a[offsets[pe] : offsets[pe + 1]]


class TestRangeEntry:
    @settings(max_examples=200, deadline=None)
    @given(packed_tables())
    def test_range_is_per_pe_product_and_scipy(self, problem):
        """Rows of PEs lo..hi-1 are each PE's own product and scipy's,
        bit for bit; every other row is left as it was."""
        matrices, lo, hi, x = problem
        states = [CSR.prepare(m) for m in matrices]
        table = CSR.table(states)
        assert table is not None
        y = np.full(x.shape, -7.0)
        table.bind(x, y)(lo, hi)
        offsets = table.offsets
        for pe, (matrix, state) in enumerate(zip(matrices, states)):
            got = slice_of(y, offsets, pe)
            if not lo <= pe < hi:
                assert np.all(got == -7.0)
                continue
            mine = slice_of(x, offsets, pe)
            assert same_bits(got, CSR.product(state, mine))
            assert same_bits(got, scipy_product(matrix, mine))

    def test_bind_refuses_mismatched_buffers(self, demo_stiffness):
        table = CSR.table([CSR.prepare(demo_stiffness)])
        n = demo_stiffness.shape[0]
        x = np.zeros((n, 2))
        for y in (np.zeros((n, 3)), np.zeros((n - 3, 2)), np.zeros(2 * n)):
            with pytest.raises(ValueError, match="range product"):
                table.bind(x, y)
        with pytest.raises(ValueError, match="contiguous float64"):
            table.bind(np.zeros((n, 4))[:, ::2], x)
        with pytest.raises(ValueError, match="share memory"):
            table.bind(x, x)
        run = table.bind(x, np.zeros_like(x))
        for lo, hi in ((0, 2), (-1, 1), (1, 0)):
            with pytest.raises(ValueError, match="outside"):
                run(lo, hi)

    def test_no_table_without_every_state_packed(self, demo_stiffness):
        packed = CSR.prepare(demo_stiffness)
        assert CSR.table([packed, demo_stiffness]) is None
        assert CSR.table([]) is None
        assert kernels.Kernel().table([packed]) is None


class CountingRange:
    """A table's compiled entry that records every ``(lo, hi)``."""

    def __init__(self, table) -> None:
        self.loop = table._range
        self.calls = []

    def __call__(self, table, lo, hi, *args):
        self.calls.append((lo, hi))
        return self.loop(table, lo, hi, *args)


class TestOneCallPerPhase:
    @pytest.fixture(scope="class")
    def partition(self, demo_mesh):
        return partition_mesh(demo_mesh, 8, seed=3)

    @pytest.mark.parametrize("r", [1, 5])
    def test_unobserved_multiply_is_one_compiled_call(
        self, monkeypatch, demo_mesh, demo_materials, partition, r
    ):
        """Serial: the compute phase is one call over [0, p), and no
        per-PE ``product`` runs; a profiled multiply calls the same
        entry one PE at a time, each inside its ``compute`` span."""
        per_pe = []
        product = kernels.CsrKernel.product

        def counted(self, state, x, out=None):
            per_pe.append(state)
            return product(self, state, x, out)

        monkeypatch.setattr(kernels.CsrKernel, "product", counted)
        shape = (3 * demo_mesh.num_nodes,) + ((r,) if r > 1 else ())
        x = np.random.default_rng(r).standard_normal(shape)
        with DistributedSMVP(demo_mesh, partition, demo_materials) as ds:
            want = ds.multiply(x)
            spy = ds._table._range = CountingRange(ds._table)
            assert np.array_equal(ds.multiply(x), want)
        assert spy.calls == [(0, ds.num_parts)]
        log = TraceLog()
        with DistributedSMVP(
            demo_mesh, partition, demo_materials, profile=True, trace_sink=log
        ) as ds:
            spy = ds._table._range = CountingRange(ds._table)
            assert np.array_equal(ds.multiply(x), want)
        assert spy.calls == [(pe, pe + 1) for pe in range(ds.num_parts)]
        assert per_pe == []
        spans = log.traces[0].pe_spans
        pes = [s.pe for s in spans if s.kind == "compute" and s.pe != HOST]
        assert sorted(pes) == list(range(ds.num_parts))

    def test_threaded_runs_one_range_per_worker(
        self, demo_mesh, demo_materials, partition
    ):
        """One task per worker over contiguous PE ranges balanced by
        nonzeros, never one per PE; bit-identical to serial."""
        x = np.random.default_rng(0).standard_normal(3 * demo_mesh.num_nodes)
        with DistributedSMVP(demo_mesh, partition, demo_materials) as ds:
            want = ds.multiply(x)
        backend = ThreadedBackend(workers=3)
        with DistributedSMVP(
            demo_mesh, partition, demo_materials, backend=backend
        ) as ds:
            spy = ds._table._range = CountingRange(ds._table)
            for _ in range(2):
                assert np.array_equal(ds.multiply(x), want)
        ranges = balanced_ranges(ds._costs, 3)
        assert len(ranges) == 3  # one per worker, tiling [0, p)
        assert [lo for lo, _ in ranges[1:]] == [hi for _, hi in ranges[:-1]]
        assert (ranges[0][0], ranges[-1][1]) == (0, ds.num_parts)
        assert sorted(spy.calls) == sorted(ranges * 2)

    @pytest.mark.parametrize(
        "costs, parts, want",
        [
            ([1, 1, 1, 1], 2, [(0, 2), (2, 4)]),
            ([10, 1, 1, 1], 2, [(0, 1), (1, 4)]),
            ([1, 1], 4, [(0, 1), (1, 2)]),
            ([0, 0, 0], 2, [(0, 2), (2, 3)]),
            ([5], 3, [(0, 1)]),
            ([], 2, []),
        ],
    )
    def test_balanced_ranges(self, costs, parts, want):
        assert balanced_ranges(costs, parts) == want


class TestStateShapes:
    def test_wrong_size_state_refused_at_construction(
        self, monkeypatch, demo_mesh, demo_materials, csr_kernel
    ):
        """A state one node short of its PE's slice would make a range
        product read and write the wrong rows: the executor refuses it
        when built, naming the PE and the compute phase."""
        partition = partition_mesh(demo_mesh, 4, seed=2)
        pe1 = partition.elements_of(1)

        def assemble(mesh, materials, elements, nodes):
            matrix = assemble_subdomain_stiffness(
                mesh, materials, elements, nodes
            )
            return matrix[:-3, :-3] if np.array_equal(elements, pe1) else matrix

        def packed(mesh, materials, elements, nodes):
            # PE 1 takes the CSR route, as on a refused mirror check.
            if np.array_equal(elements, pe1):
                return None
            return assemble_subdomain_packed(mesh, materials, elements, nodes)

        monkeypatch.setattr(
            executor_module, "assemble_subdomain_stiffness", assemble
        )
        monkeypatch.setattr(executor_module, "assemble_subdomain_packed", packed)
        with pytest.raises(ContractViolation, match="slice has") as err:
            DistributedSMVP(
                demo_mesh, partition, demo_materials, kernel=csr_kernel
            )
        assert (err.value.pe, err.value.phase) == (1, "compute")
