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

``csr`` runs a compiled loop (``nodal.c``) over the
matrix's own CSR arrays whenever the matrix has the *node structure*
every Quake stiffness matrix has: one full 3x3 block per coupled node
pair, so rows 3b, 3b+1 and 3b+2 share one column list.  The loop reads
each node's list once and keeps three accumulators per column; each
output entry still starts at +0.0 and adds its products in stored
order, multiply and add separately, so the bits are scipy's
(:class:`NodalState`).  The library is built with ``gcc`` on first use
by :mod:`repro.util.native`, the builder the assembly loop shares
(:func:`nodal_library`).  Without ``cffi`` or ``gcc``, when the build
fails, or for a matrix without the node structure, ``csr`` runs
scipy's loop — same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from repro.util.clock import now
from repro.util.native import compiled


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
    ``prepare`` so timed loops measure only the flops.  ``prepare`` on
    a row-sliced submatrix yields exactly the corresponding rows of the
    full product: the overlapped schedule computes boundary and
    interior rows separately.
    """

    name: str = "abstract"

    def prepare(self, matrix: sp.spmatrix) -> Any:
        raise NotImplementedError

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
    both by these counts, so a mismatch would read or write past them."""
    n_row, n_col = shape
    if x.ndim not in (1, 2) or x.shape[0] != n_col:
        raise ValueError(
            f"dimension mismatch: x has shape {x.shape}, "
            f"the matrix {n_col} columns"
        )
    product = (n_row,) + x.shape[1:]
    if out is not None and out.shape != product:
        raise ValueError(
            f"dimension mismatch: out has shape {out.shape}, "
            f"the product {product}"
        )
    return product


#: The node-block loop's C source, built by :mod:`repro.util.native`.
_NODAL_SOURCE = Path(__file__).with_name("nodal.c")
_NODAL_CDEF = """
int nodal_check(int64_t n_row, int64_t n_col, int64_t nnz,
                const int32_t *indptr, const int32_t *indices);
void nodal_product(int64_t n_node, int64_t r, const int32_t *indptr,
                   const int32_t *indices, const double *data,
                   const double *x, double *y);
"""


def nodal_library() -> Optional[Tuple[Any, Any]]:
    """The compiled node-block loop as ``(ffi, lib)``, built on first
    use; ``None`` when ``cffi`` or ``gcc`` is missing or the build or
    load fails — ``csr`` then runs scipy's loop, with the same bits.

    Calls go through cffi's ABI mode, which releases the GIL, so the
    ``threaded`` backend still runs products concurrently.
    """
    return compiled(_NODAL_SOURCE, _NODAL_CDEF)


_INT32 = np.dtype(np.int32)
_FLOAT64 = np.dtype(np.float64)


class NodalState:
    """``csr``'s prepared state for a node-structured CSR matrix.

    It keeps the matrix, references to its ``indptr`` / ``indices`` /
    ``data`` (no copy) and the C pointers into them, taken once.  Every
    :meth:`product` runs the compiled loop over those arrays: one pass
    over each node's column list, three accumulators per column, in
    column tiles of 16/8/4/2/1 at r >= 2.  Each output entry starts at
    +0.0 and adds ``data[k] * x[indices[k]]`` in stored order, so the
    result is bit for bit scipy's ``csr_matvec`` / ``csr_matvecs``.
    """

    __slots__ = (
        "matrix", "indptr", "indices", "data", "shape",
        "_args", "_buffer", "_loop",
    )

    def __init__(self, matrix: sp.csr_matrix, ffi: Any, lib: Any) -> None:
        self.matrix = matrix
        self.indptr, self.indices, self.data = (
            matrix.indptr,
            matrix.indices,
            matrix.data,
        )
        self.shape: Tuple[int, int] = matrix.shape
        self._args = (
            ffi.from_buffer("int32_t[]", self.indptr),
            ffi.from_buffer("int32_t[]", self.indices),
            ffi.from_buffer("double[]", self.data),
        )
        # Bound once: the product is called per PE per superstep, and
        # on small subdomains its Python overhead is what shows.
        self._buffer = ffi.from_buffer
        self._loop = lib.nodal_product

    @classmethod
    def of(
        cls, matrix: sp.csr_matrix, ffi: Any, lib: Any
    ) -> Optional["NodalState"]:
        """The state for ``matrix`` when it has the node structure —
        n % 3 == 0, int32 ``indptr`` / ``indices``, float64 ``data``,
        the three rows of every node holding one index list, all of it
        in range (checked in C, O(nnz), nothing allocated) — else
        ``None``."""
        arrays = (matrix.indptr, matrix.indices, matrix.data)
        if (
            matrix.shape[0] % 3
            or tuple(a.dtype for a in arrays) != (_INT32, _INT32, _FLOAT64)
            or not all(a.flags.c_contiguous for a in arrays)
        ):
            return None
        state = cls(matrix, ffi, lib)
        nnz = min(matrix.indices.size, matrix.data.size)
        if not lib.nodal_check(*matrix.shape, nnz, *state._args[:2]):
            return None
        return state

    def product(
        self, x: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``y = A x`` for a vector or an n x r block: a non-contiguous
        or non-float64 ``x`` is copied once, ``out=None`` allocates, a
        non-contiguous or non-float64 ``out`` is filled from a
        temporary; shapes are checked (:func:`_product_shape`)."""
        x = np.asarray(x)
        if x.dtype is not _FLOAT64 or not x.flags.c_contiguous:
            x = np.ascontiguousarray(x, dtype=np.float64)
        shape = _product_shape(self.shape, x, out)
        if out is None:
            out = np.empty(shape)
        elif out.dtype is not _FLOAT64 or not out.flags.c_contiguous:
            out[...] = self.product(x)
            return out
        buffer = self._buffer
        self._loop(
            shape[0] // 3,
            x.shape[1] if x.ndim == 2 else 1,
            *self._args,
            buffer("double[]", x),
            buffer("double[]", out, require_writable=True),
        )
        return out


class CsrKernel(Kernel):
    """Compressed sparse row product: the compiled node-block loop
    (:class:`NodalState`) for a matrix with the node structure when the
    loop is available (:func:`nodal_library`), scipy's loop otherwise —
    the same bits either way.  The state shares the matrix's arrays."""

    name = "csr"

    def prepare(self, matrix: sp.spmatrix):
        csr = matrix if sp.isspmatrix_csr(matrix) else matrix.tocsr()
        loop = nodal_library()
        state = None if loop is None else NodalState.of(csr, *loop)
        return csr if state is None else state

    def product(
        self,
        state,
        x: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        if isinstance(state, NodalState):
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
