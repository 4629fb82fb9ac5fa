"""Local SMVP kernels and T_f measurement.

The paper measures the *amortized time per flop* ``T_f`` of the local
SMVP on real machines (30 ns on a Cray T3D, 14 ns on a T3E) and feeds
it into the performance model.  This module provides the local kernel,
``csr`` — the one product Quake runs — plus :func:`measure_tf`, which
measures its ``T_f`` on the host, exactly the way the paper's Section
3.1 defines it:
``T_f = elapsed / F`` with ``F = 2 * nnz`` (one multiply and one add
per stored nonzero).

A kernel (:class:`Kernel`) is two calls: ``prepare`` turns the matrix
into the kernel's state once, and ``product`` runs
``y = K x`` against the prepared state — for a vector or an n x r
block alike.  Timed regions (``measure_tf``, the executor's compute
phase) call ``prepare`` exactly once at setup, so what gets timed is
the product — never a format conversion.

``csr`` runs a compiled loop (``nodal.c``) over a *packed* copy of a
Quake stiffness matrix (:class:`PackedState`).  Such a matrix stores
one full 3x3 block per coupled node pair, so rows 3b, 3b+1 and 3b+2
share one column list of node triples, and it is symmetric bit for bit:
the assembly forms ``lam*(g_a[i]*g_b[j]) + mu*(g_a[j]*g_b[i])`` and
products commute, so block (c, b) is block (b, c) transposed.
``prepare`` checks both in C and keeps each node pair's block once,
with one column-node list per node; an entry below the node diagonal
reads its mirror's block transposed.  The loop streams about half the
bytes of the CSR arrays, and each output entry still starts at +0.0 and
adds its products in ascending column order, multiply and add
separately, so the bits are scipy's.  The state replaces the matrix:
``state.tocsr()`` rebuilds it exactly.  The distributed executor builds
its states without any CSR: ``assembly.c``'s ``packed_fill`` writes
each PE's arrays straight from its elements, with the same mirror
check.  The loop has one entry, over a range of PEs: ``CSR.table(states)`` lays a compute phase's states out
as the rows of one :class:`PackedTable`, and the executor's backend
runs the phase as one compiled call per range of PEs against the
whole x and y buffers — a single :meth:`PackedState.product` is a
one-row range of the same entry.  The loop is part of the package's
one native library (:func:`repro.util.native.native`, built with
``gcc`` on first use; a failed build raises
:class:`~repro.util.native.NativeBuildError`).  A matrix without the
node structure or not bitwise symmetric stays CSR, and ``csr`` runs
scipy's loop over it — the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from repro.util.clock import now
from repro.util.native import native


class Kernel:
    """A local SMVP kernel: two calls.

    ``prepare(matrix) -> state`` turns the matrix into the kernel's
    state (any opaque object).

    ``product(state, x, out=None) -> y`` runs the product; ``x`` is a
    vector or an n x r *block* of right-hand sides (one matrix
    traversal amortized over r columns), and column j of a block
    product is bit-identical to ``product(state, x[:, j])``.  Given
    ``out``, the product is written into that caller-owned array and
    ``out`` is returned, bit-identical to the ``out=None`` result —
    callers that pass the same warm buffer every superstep keep the
    output pages resident instead of faulting in a fresh allocation.
    ``product`` must not convert formats, cache on the matrix, or
    otherwise do setup work: everything format-related happens in
    ``prepare`` so timed loops measure only the flops.

    ``table(states)`` is the kernel's compiled range entry over a whole
    compute phase's states (a :class:`PackedTable`), or ``None``: then
    a phase runs ``product`` once per PE.
    """

    name: str = "abstract"

    def prepare(self, matrix: sp.spmatrix) -> Any:
        raise NotImplementedError

    def table(self, states: Sequence[Any]) -> Optional["PackedTable"]:
        return None

    def product(
        self, state: Any, x: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        raise NotImplementedError


def _product_shape(
    shape: Tuple[int, int], x: np.ndarray, out: Optional[np.ndarray]
) -> Tuple[int, ...]:
    """The shape of ``A x`` for a matrix of ``shape``: ``ValueError``
    unless ``x`` is a vector or block with one row per matrix column
    and ``out``, if given, has exactly that shape — the loops index
    both by these counts, so a mismatch would read or write past them —
    and shares no memory with ``x``, which the loops read while they
    write ``out``."""
    n_row, n_col = shape
    if x.ndim not in (1, 2) or x.shape[0] != n_col:
        raise ValueError(
            f"dimension mismatch: x has shape {x.shape}, "
            f"the matrix {n_col} columns"
        )
    product = (n_row,) + x.shape[1:]
    if out is None:
        return product
    if out.shape != product:
        raise ValueError(
            f"dimension mismatch: out has shape {out.shape}, "
            f"the product {product}"
        )
    if np.may_share_memory(out, x):
        raise ValueError("out may share memory with x; pass a separate out")
    return product


_INT32 = np.dtype(np.int32)
_FLOAT64 = np.dtype(np.float64)


class PackedState:
    """``csr``'s prepared state for a bitwise-symmetric node-block
    matrix: each coupled node pair's 3x3 block held once.

    ``blocks`` holds one row-major block per entry on or above the node
    diagonal (column node c >= row node b), in node order; ``ptr`` /
    ``nbr`` are one column-node list per node; ``ref`` is the block each
    entry reads — its own, or for an entry below the node diagonal its
    mirror's, read transposed; ``upper[b]`` is node b's first entry
    with c >= b.  The state is packed from a CSR by :meth:`of`, or —
    the distributed executor's states — filled straight from a PE's
    elements by :func:`repro.fem.assembly.assemble_subdomain_packed`,
    with the same arrays bit for bit; either way it holds no matrix,
    and ``nnz`` counts the entries of the matrix it stands for.

    Every :meth:`product` runs the compiled loop (``nodal.c``) in
    column tiles of 16/8/4/2/1 at r >= 2.  Each output entry starts at
    +0.0 and adds ``K[i, j] * x[j]`` in ascending column order, so the
    result is bit for bit scipy's ``csr_matvec`` / ``csr_matvecs`` over
    the matrix.  :meth:`tocsr` rebuilds that matrix exactly.

    The loop has one entry, ``packed_range``, over rows of a per-PE
    table (:class:`PackedTable`); the state holds its own one-row table
    (slice offset 0), so :meth:`product` is a one-PE range.
    """

    __slots__ = (
        "shape", "nnz", "ptr", "upper", "nbr", "ref", "blocks",
        "_row", "_ffi", "_range",
    )

    def __init__(self, shape, ptr, upper, nbr, ref, blocks) -> None:
        ffi, lib = native()
        self.shape: Tuple[int, int] = shape
        self.nnz = 9 * nbr.size
        self.ptr, self.upper, self.nbr, self.ref, self.blocks = (
            ptr, upper, nbr, ref, blocks
        )
        # The row points into the arrays above, which the state keeps.
        self._row = ffi.new("packed_pe[1]")
        row = self._row[0]
        row.ptr = ffi.from_buffer("int32_t[]", ptr)
        row.upper = ffi.from_buffer("int32_t[]", upper)
        row.nbr = ffi.from_buffer("int32_t[]", nbr)
        row.ref = ffi.from_buffer("int32_t[]", ref)
        row.blocks = ffi.from_buffer("double[]", blocks)
        row.n_node = shape[0] // 3
        row.offset = 0
        self._ffi = ffi
        self._range = lib.packed_range

    @classmethod
    def of(cls, matrix: sp.csr_matrix) -> Optional["PackedState"]:
        """The state for ``matrix``, or ``None`` unless it has the node
        structure — int32 ``indptr`` / ``indices``, float64 ``data``,
        rows 3b..3b+2 holding one list of whole node triples
        (3c, 3c+1, 3c+2) in strictly ascending c, all in range — and
        every block below the node diagonal is its mirror transposed,
        bit for bit.  Both are checked in C, O(nnz)."""
        arrays = (matrix.indptr, matrix.indices, matrix.data)
        if (
            tuple(a.dtype for a in arrays) != (_INT32, _INT32, _FLOAT64)
            or not all(a.flags.c_contiguous for a in arrays)
            or matrix.indptr.size != matrix.shape[0] + 1
        ):
            return None
        ffi, lib = native()
        buffer = ffi.from_buffer
        pattern = (
            buffer("int32_t[]", matrix.indptr),
            buffer("int32_t[]", matrix.indices),
        )
        sizes = ffi.new("int64_t[2]")
        nnz = min(matrix.indices.size, matrix.data.size)
        if not lib.packed_count(
            *matrix.shape, nnz, *pattern, sizes, sizes + 1
        ):
            return None
        n_node, (entries, n_blocks) = matrix.shape[0] // 3, sizes
        # One allocation per state (the blocks, then the int32 arrays):
        # the executor frees each CSR right after packing it, and a
        # single chunk above the hole it leaves fragments the heap least.
        n_int = 2 * n_node + 1 + 2 * entries
        store = np.empty(72 * n_blocks + 4 * n_int, np.uint8)
        blocks = store[: 72 * n_blocks].view(np.float64)
        ptr, upper, nbr, ref = np.split(
            store[72 * n_blocks :].view(np.int32),
            np.cumsum([n_node + 1, n_node, entries]),
        )
        cur = np.empty(n_node, np.int32)
        if not lib.packed_pack(
            n_node,
            *pattern,
            buffer("double[]", matrix.data),
            *(buffer("int32_t[]", a) for a in (ptr, upper, nbr, ref)),
            buffer("double[]", blocks),
            buffer("int32_t[]", cur),
        ):
            return None
        return cls(matrix.shape, ptr, upper, nbr, ref, blocks)

    def tocsr(self) -> sp.csr_matrix:
        """The matrix this state stands for: its ``indptr``,
        ``indices`` and ``data`` exactly (``indptr`` from 0)."""
        n_node = self.ptr.size - 1
        length = np.diff(self.ptr).astype(np.int64)
        node = np.repeat(np.arange(n_node, dtype=np.int64), length)
        first = self.ptr[:-1].astype(np.int64)
        block = self.blocks.reshape(-1, 3, 3)[self.ref]
        lower = self.nbr < node
        block[lower] = block[lower].transpose(0, 2, 1)
        # Entry k's K[3b+i, 3c+j] lands at row 3b+i, position 3(k -
        # ptr[b]) + j of that row, whose start is 9 ptr[b] + 3 i len_b.
        i = np.arange(3).reshape(1, 3, 1)
        j = np.arange(3).reshape(1, 1, 3)
        k = np.arange(node.size, dtype=np.int64).reshape(-1, 1, 1)
        b = node.reshape(-1, 1, 1)
        pos = 9 * first[b] + 3 * i * length[b] + 3 * (k - first[b]) + j
        data = np.empty(self.nnz)
        indices = np.empty(self.nnz, np.int32)
        data[pos] = block
        indices[pos] = 3 * self.nbr.reshape(-1, 1, 1) + j
        indptr = (
            9 * np.repeat(first, 3)
            + 3 * np.tile(np.arange(3), n_node) * np.repeat(length, 3)
        )
        indptr = np.append(indptr, self.nnz).astype(np.int32)
        return sp.csr_matrix((data, indices, indptr), shape=self.shape)

    def product(
        self, x: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``y = A x`` for a vector or an n x r block: a non-contiguous
        or non-float64 ``x`` is copied once, ``out=None`` allocates, a
        non-contiguous or non-float64 ``out`` is filled from a
        temporary; shapes and aliasing are checked
        (:func:`_product_shape`)."""
        x = np.asarray(x)
        shape = _product_shape(self.shape, x, out)
        if x.dtype is not _FLOAT64 or not x.flags.c_contiguous:
            x = np.ascontiguousarray(x, dtype=np.float64)
        if out is None:
            out = np.empty(shape)
        elif out.dtype is not _FLOAT64 or not out.flags.c_contiguous:
            out[...] = self.product(x)
            return out
        buffer = self._ffi.from_buffer
        self._range(
            self._row,
            0,
            1,
            x.shape[1] if x.ndim == 2 else 1,
            buffer("double[]", x),
            buffer("double[]", out, require_writable=True),
        )
        return out


class PackedTable:
    """Every PE's :class:`PackedState` as one row of the range entry's
    table, built once when the states are prepared: the state's arrays,
    its node count and where its slice starts in the whole x and y
    buffers (``offsets``, cumulative local row counts).

    :meth:`bind` fixes the two buffers of a compute phase and returns
    ``run(lo, hi)``: the products of PEs ``lo .. hi-1`` in one compiled
    call, which releases the GIL.  PE ``i``'s product is bit for bit
    ``states[i].product`` of its x slice.  The table holds its states,
    so the pointers in its rows stay valid.
    """

    __slots__ = ("states", "offsets", "_table", "_ffi", "_range")

    def __init__(self, states: Sequence[PackedState]) -> None:
        self.states = list(states)
        ffi = self.states[0]._ffi
        sizes = [state.shape[0] for state in self.states]
        self.offsets = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        self.offsets.flags.writeable = False
        self._table = ffi.new("packed_pe[]", len(self.states))
        for pe, state in enumerate(self.states):
            self._table[pe] = state._row[0]
            self._table[pe].offset = int(self.offsets[pe])
        self._ffi = ffi
        self._range = self.states[0]._range

    @classmethod
    def of(cls, states: Sequence[Any]) -> Optional["PackedTable"]:
        """The table of ``states``, or ``None`` unless every one is a
        square :class:`PackedState` of one loaded library (otherwise the
        per-PE products run, with the same bits)."""
        if not states or not all(
            type(state) is PackedState
            and state._ffi is states[0]._ffi
            and state.shape[0] == state.shape[1]
            for state in states
        ):
            return None
        return cls(states)

    def bind(self, x: np.ndarray, y: np.ndarray) -> Callable[[int, int], Any]:
        """``run(lo, hi)`` over the whole buffers ``x`` (read only) and
        ``y`` (written), one row per table row and the same width:
        ``ValueError`` unless both are C-contiguous float64 arrays of
        ``offsets[-1]`` rows and one shape, and share no memory (and
        from ``run`` for a range outside the table)."""
        rows = (int(self.offsets[-1]),)
        if x.shape[:1] != rows or x.ndim > 2 or y.shape != x.shape:
            raise ValueError(
                f"a range product over {rows[0]} rows got x of shape "
                f"{x.shape} and y of shape {y.shape}"
            )
        for a in (x, y):
            if a.dtype is not _FLOAT64 or not a.flags.c_contiguous:
                raise ValueError("the range buffers must be contiguous float64")
        if np.may_share_memory(x, y):
            raise ValueError("y may share memory with x; pass a separate y")
        loop, table, count = self._range, self._table, len(self.states)
        width = x.shape[1] if x.ndim == 2 else 1
        x_in = self._ffi.from_buffer("double[]", x)
        y_out = self._ffi.from_buffer("double[]", y, require_writable=True)

        def run(lo: int, hi: int) -> None:
            if not 0 <= lo <= hi <= count:
                raise ValueError(f"PE range [{lo}, {hi}) outside [0, {count})")
            loop(table, lo, hi, width, x_in, y_out)

        return run


class CsrKernel(Kernel):
    """Compressed sparse row product: the compiled packed loop
    (:class:`PackedState`) for a bitwise-symmetric node-block matrix,
    scipy's loop over any other matrix itself — the same bits either
    way.
    Either state is the one copy of the matrix a caller needs to keep:
    ``state.tocsr()`` gives the matrix back."""

    name = "csr"

    def prepare(self, matrix: sp.spmatrix):
        csr = matrix if sp.isspmatrix_csr(matrix) else matrix.tocsr()
        state = PackedState.of(csr)
        return csr if state is None else state

    def table(self, states: Sequence[Any]) -> Optional[PackedTable]:
        """The range table of ``states`` when every one is packed."""
        return PackedTable.of(states)

    def product(
        self,
        state,
        x: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        if isinstance(state, PackedState):
            return state.product(x, out)
        x = np.asarray(x)
        _product_shape(state.shape, x, out)
        # scipy's CSR SpMM accumulates each output entry in row-major
        # order, exactly like its matvec, so block columns are
        # bit-identical to the vector product.
        if (
            out is None
            or not x.flags.c_contiguous
            or not out.flags.c_contiguous
        ):
            y = state @ x
            if out is None:
                return y
            out[...] = y
            return out
        # The loops `state @ x` runs, minus the fresh output allocation
        # (first-touch page faults dominate the r=16 product on large
        # instances).  They accumulate into out, so zero it first — the
        # per-entry summation order is unchanged.  This is the one place
        # the local product tells a vector from a block.
        out.fill(0.0)
        n_row, n_col = state.shape
        if x.ndim == 2:
            _sparsetools.csr_matvecs(
                n_row,
                n_col,
                x.shape[1],
                state.indptr,
                state.indices,
                state.data,
                x.ravel(),
                out.ravel(),
            )
        else:
            _sparsetools.csr_matvec(
                n_row, n_col, state.indptr, state.indices, state.data, x, out
            )
        return out


#: The one local kernel; :func:`get_kernel` resolves its name.
CSR = CsrKernel()


def get_kernel(name: str) -> Kernel:
    """The kernel named ``name`` — ``csr``, the one there is."""
    if name != CSR.name:
        raise ValueError(
            f"unknown kernel {name!r}; options: {[CSR.name]}"
        )
    return CSR


@dataclass(frozen=True)
class TfMeasurement:
    """Result of a T_f measurement for one kernel."""

    kernel: str
    nnz: int
    flops_per_product: int
    repetitions: int
    seconds_per_product: float
    tf_ns: float  # amortized time per flop, nanoseconds

    @property
    def mflops(self) -> float:
        """Sustained MFLOPS, the paper's headline local rate."""
        return 1e3 / self.tf_ns if self.tf_ns > 0 else float("inf")


def measure_tf(
    matrix: sp.spmatrix,
    kernel: str = "csr",
    repetitions: int = 5,
    warmup: int = 1,
    rng_seed: int = 0,
    rhs: int = 1,
) -> TfMeasurement:
    """Measure ``T_f`` for the named kernel on a given local matrix.

    The matrix should be a realistic local stiffness matrix (use
    :func:`repro.fem.assemble_stiffness`); ``F = 2 * nnz`` per product,
    following the paper's flop accounting.  ``prepare`` runs once,
    outside the timed region — the measurement covers the product
    only — and every product writes into one warm ``out``,
    the call the executor's compute phase makes.

    With ``rhs > 1`` the timed product is the block product over an
    n x rhs block and the flop count scales to ``2 * nnz * rhs`` — one
    matrix traversal performs ``rhs`` columns' worth of flops, so
    ``tf_ns`` stays the amortized time per flop *per column* and remains
    directly comparable to the paper's single-vector tables (a batched
    kernel simply shows a smaller T_f).
    """
    if rhs < 1:
        raise ValueError(f"rhs must be >= 1, got {rhs}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    k = get_kernel(kernel)
    state = k.prepare(matrix)
    rng = np.random.default_rng(rng_seed)
    nnz = matrix.nnz
    flops = 2 * nnz * rhs
    # rhs == 1 times the vector product, like the paper's tables.
    x = rng.standard_normal((matrix.shape[1],) + ((rhs,) if rhs > 1 else ()))
    # A warm output buffer, as the executor passes every superstep
    # (np.full touches its pages before the clock starts).
    out = np.full((matrix.shape[0],) + x.shape[1:], 0.0)
    for _ in range(warmup):
        k.product(state, x, out)
    t0 = now()
    for _ in range(repetitions):
        k.product(state, x, out)
    elapsed = now() - t0
    per_product = elapsed / repetitions
    tf_ns = 1e9 * per_product / flops if flops else float("nan")
    return TfMeasurement(
        kernel=kernel,
        nnz=nnz,
        flops_per_product=flops,
        repetitions=repetitions,
        seconds_per_product=per_product,
        tf_ns=tf_ns,
    )
