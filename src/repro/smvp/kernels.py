"""Local SMVP kernels and T_f measurement.

The paper measures the *amortized time per flop* ``T_f`` of the local
SMVP on real machines (30 ns on a Cray T3D, 14 ns on a T3E) and feeds
it into the performance model.  This module provides several local
kernel implementations — the same product, different storage formats —
plus :func:`measure_tf`, which measures ``T_f`` for any of them on the
host, exactly the way the paper's Section 3.1 defines it:
``T_f = elapsed / F`` with ``F = 2 * nnz`` (one multiply and one add
per stored nonzero).

A kernel (:class:`Kernel`) is two calls: ``prepare`` converts the
matrix into the kernel's native storage once, and ``product`` runs
``y = K x`` against the prepared state — for a vector or an n x r
block alike.  Timed regions (``measure_tf``, the executor's compute
phase) call ``prepare`` exactly once at setup, so what gets timed is
the product — never a format conversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from repro.util.clock import now


class Kernel:
    """A local SMVP kernel: one storage format, two calls.

    ``prepare(matrix) -> state`` converts the matrix into the kernel's
    native storage (returning any opaque state object).

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

    ``preferred_format`` names the assembly format ("csr" or "bsr")
    that makes ``prepare`` a no-op for matrices assembled natively.
    ``supports_row_split`` declares that ``prepare`` on a row-sliced
    submatrix yields exactly the corresponding rows of the full product
    (true for row-major formats, false for kernels whose state derives
    from the full matrix shape, e.g. triangular splits) — the
    overlapped schedule needs it to compute boundary and interior rows
    separately.
    """

    name: str = "abstract"
    preferred_format: str = "csr"
    supports_row_split: bool = True

    def prepare(self, matrix: sp.spmatrix) -> Any:
        raise NotImplementedError

    def product(
        self, state: Any, x: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        raise NotImplementedError


def _into(y: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
    """``y`` itself, or copied into the caller's ``out`` — the ``out``
    path of a kernel with no native write-into-buffer product."""
    if out is None:
        return y
    out[...] = y
    return out


class CsrKernel(Kernel):
    """Compressed sparse row product (scipy's native matvec)."""

    name = "csr"
    preferred_format = "csr"

    def prepare(self, matrix: sp.spmatrix) -> sp.csr_matrix:
        return matrix if sp.isspmatrix_csr(matrix) else matrix.tocsr()

    def product(
        self,
        state: sp.csr_matrix,
        x: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        # scipy's CSR SpMM accumulates each output entry in row-major
        # order, exactly like its matvec, so block columns are
        # bit-identical to the vector product.
        if out is None or not x.flags.c_contiguous:
            return _into(state @ x, out)
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


class Bsr3x3Kernel(Kernel):
    """Block sparse row product with 3x3 blocks.

    This mirrors the natural storage for the Quake stiffness matrix (a
    3x3 submatrix per node pair); block storage improves locality the
    same way it did on the machines the paper measured.
    """

    name = "bsr3x3"
    preferred_format = "bsr"

    def prepare(self, matrix: sp.spmatrix) -> sp.bsr_matrix:
        if sp.isspmatrix_bsr(matrix) and matrix.blocksize == (3, 3):
            return matrix
        return sp.bsr_matrix(matrix, blocksize=(3, 3))

    def product(self, state: sp.bsr_matrix, x, out=None) -> np.ndarray:
        return _into(state @ x, out)


class PythonCsrKernel(Kernel):
    """Pure-Python CSR product (reference / worst-case interpreter T_f).

    Orders of magnitude slower than the scipy kernels; useful as a
    ground-truth oracle in tests and to demonstrate how far T_f can
    stretch on the same hardware.
    """

    name = "python-csr"
    preferred_format = "csr"

    def prepare(self, matrix: sp.spmatrix) -> sp.csr_matrix:
        return matrix if sp.isspmatrix_csr(matrix) else matrix.tocsr()

    def product(self, state: sp.csr_matrix, x, out=None) -> np.ndarray:
        indptr = state.indptr
        indices = state.indices
        data = state.data
        # A row of a block x is an r-vector, so the same accumulation
        # runs elementwise over the columns, each in the vector order.
        y = np.zeros((state.shape[0],) + x.shape[1:], dtype=np.float64)
        for row in range(state.shape[0]):
            acc = 0.0
            for k in range(indptr[row], indptr[row + 1]):
                acc = acc + data[k] * x[indices[k]]
            y[row] = acc
        return _into(y, out)


class SymmetricUpperKernel(Kernel):
    """Product using only the upper triangle of a symmetric matrix.

    Stiffness matrices are symmetric; storing one triangle halves the
    memory but performs the same 2 * nnz(full) flops.  ``prepare``
    extracts the triangular factors fresh every time it runs, so the
    state never outlives a mutation of the matrix.
    """

    name = "symmetric-upper"
    preferred_format = "csr"
    # The prepared state is a triangular split of the *full* local
    # matrix; preparing a row-sliced submatrix takes the triangle of
    # the slice instead, which is a different product entirely.
    supports_row_split = False

    def prepare(self, matrix: sp.spmatrix):
        csr = matrix if sp.isspmatrix_csr(matrix) else matrix.tocsr()
        upper = sp.triu(csr, k=0).tocsr()
        strict_lower = sp.triu(csr, k=1).T.tocsr()
        return (upper, strict_lower)

    def product(self, state, x, out=None) -> np.ndarray:
        upper, strict_lower = state
        return _into(upper @ x + strict_lower @ x, out)


#: Named kernel registry.  Register new storage formats here (or via
#: :func:`register_kernel`); every consumer — the executor, the
#: Spark98 suite, ``measure_tf``, the CLI — resolves names through
#: :func:`get_kernel`, never by poking at a dict.
KERNEL_REGISTRY: Dict[str, Kernel] = {}


def register_kernel(kernel: Kernel) -> Kernel:
    """Add a kernel instance to the registry (name collisions rejected)."""
    if kernel.name in KERNEL_REGISTRY:
        raise ValueError(f"duplicate kernel name {kernel.name!r}")
    KERNEL_REGISTRY[kernel.name] = kernel
    return kernel


def get_kernel(name: str) -> Kernel:
    """Resolve a kernel by registry name."""
    try:
        return KERNEL_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel {name!r}; options: {kernel_names()}"
        ) from None


def kernel_names():
    """Sorted registered kernel names."""
    return sorted(KERNEL_REGISTRY)


for _kernel in (
    CsrKernel(),
    Bsr3x3Kernel(),
    PythonCsrKernel(),
    SymmetricUpperKernel(),
):
    register_kernel(_kernel)
del _kernel


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
    """Measure ``T_f`` for a kernel on a given local matrix.

    The matrix should be a realistic local stiffness matrix (use
    :func:`repro.fem.assemble_stiffness`); ``F = 2 * nnz`` per product,
    following the paper's flop accounting.  ``prepare`` runs once,
    outside the timed region — the measurement covers the product only,
    for every kernel.

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
    for _ in range(warmup):
        k.product(state, x)
    t0 = now()
    for _ in range(repetitions):
        k.product(state, x)
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
