"""Local SMVP kernels and T_f measurement.

The paper measures the *amortized time per flop* ``T_f`` of the local
SMVP on real machines (30 ns on a Cray T3D, 14 ns on a T3E) and feeds
it into the performance model.  This module provides several local
kernel implementations — the same product, different storage formats —
plus :func:`measure_tf`, which measures ``T_f`` for any of them on the
host, exactly the way the paper's Section 3.1 defines it:
``T_f = elapsed / F`` with ``F = 2 * nnz`` (one multiply and one add
per stored nonzero).

Kernels follow a two-phase protocol (:class:`Kernel`): ``prepare``
converts/caches the matrix into the kernel's native storage once, and
``apply`` runs the product against the prepared state.  Timed regions
(``measure_tf``, the execution backends) call ``prepare`` exactly once
at setup, so what gets timed is the product — never a format
conversion.  The bare-function entry points (``csr_kernel`` & co.) and
the :data:`KERNELS` dict remain as adapters over the class kernels for
callers that want the old one-shot ``(matrix, x) -> y`` convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from repro.util.clock import now

#: Signature of a one-shot local SMVP kernel: (matrix, x) -> y.
LocalKernel = Callable[[sp.spmatrix, np.ndarray], np.ndarray]


class Kernel:
    """A local SMVP kernel: one storage format, two phases.

    ``prepare(matrix) -> state`` converts the matrix into the kernel's
    native storage (returning any opaque state object); ``apply(state,
    x) -> y`` runs the product.  ``apply`` must not convert formats,
    allocate per-call caches on the matrix, or otherwise do setup work
    — everything format-related happens in ``prepare`` so timed loops
    measure only the flops.

    ``preferred_format`` names the assembly format ("csr" or "bsr")
    that makes ``prepare`` a no-op for matrices assembled natively.

    Kernels may also accept an n x r *block* of right-hand sides
    (``apply_block``), amortizing one matrix traversal over r columns.
    ``supports_block`` declares that the kernel has a native block
    product whose column j is bit-identical to ``apply(state, X[:,
    j])``; the base-class fallback loops over columns, which guarantees
    the same property for any kernel.  ``supports_row_split`` declares
    that ``prepare`` on a row-sliced submatrix yields exactly the
    corresponding rows of the full product (true for row-major formats,
    false for kernels whose state derives from the full matrix shape,
    e.g. triangular splits) — the overlap backend needs it to compute
    boundary and interior rows separately.
    """

    name: str = "abstract"
    preferred_format: str = "csr"
    supports_block: bool = False
    supports_row_split: bool = True

    def prepare(self, matrix: sp.spmatrix) -> Any:
        raise NotImplementedError

    def apply(self, state: Any, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply_block(self, state: Any, X: np.ndarray) -> np.ndarray:
        """Product against an n x r block of right-hand sides.

        Column j of the result is bit-identical to ``apply(state, X[:,
        j])`` — block-capable kernels override this with a native block
        product that has the same property; this fallback computes the
        columns one by one.
        """
        Y = np.empty((state_rows(state), X.shape[1]), dtype=np.float64)
        for j in range(X.shape[1]):
            Y[:, j] = self.apply(state, X[:, j])
        return Y

    def apply_into(self, state: Any, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``apply`` into a caller-owned buffer (bit-identical result).

        Buffer-reusing callers (the overlap backend's persistent split
        buffers) pass the same ``out`` every superstep, so the output
        pages stay resident instead of being faulted in fresh on every
        allocation.  The fallback computes normally and copies.
        """
        out[...] = self.apply(state, x)
        return out

    def apply_block_into(
        self, state: Any, X: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """``apply_block`` into a caller-owned buffer (bit-identical)."""
        out[...] = self.apply_block(state, X)
        return out

    def product(self, state: Any, x: np.ndarray) -> np.ndarray:
        """``apply`` for a vector, ``apply_block`` for an n x r block —
        the one dispatch for callers that serve both widths."""
        if x.ndim == 2:
            return self.apply_block(state, x)
        return self.apply(state, x)

    def product_into(self, state: Any, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """:meth:`product` into a caller-owned buffer."""
        if x.ndim == 2:
            return self.apply_block_into(state, x, out)
        return self.apply_into(state, x, out)

    def __call__(self, matrix: sp.spmatrix, x: np.ndarray) -> np.ndarray:
        """One-shot convenience: prepare + apply (not for timed loops)."""
        return self.apply(self.prepare(matrix), x)


def state_rows(state: Any) -> int:
    """Output row count of a prepared kernel state."""
    if isinstance(state, tuple):  # e.g. (upper, strict_lower)
        return state[0].shape[0]
    return state.shape[0]


class CsrKernel(Kernel):
    """Compressed sparse row product (scipy's native matvec)."""

    name = "csr"
    preferred_format = "csr"
    supports_block = True

    def prepare(self, matrix: sp.spmatrix) -> sp.csr_matrix:
        return matrix if sp.isspmatrix_csr(matrix) else matrix.tocsr()

    def apply(self, state: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
        return state @ x

    def apply_block(self, state: sp.csr_matrix, X: np.ndarray) -> np.ndarray:
        # scipy's CSR SpMM accumulates each output entry in row-major
        # order, exactly like its matvec, so columns are bit-identical
        # to per-column apply.
        return state @ X

    def apply_into(
        self, state: sp.csr_matrix, x: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        # csr_matvec accumulates into out, so zero it first; the
        # per-row summation order is exactly what `state @ x` runs.
        if not x.flags.c_contiguous:
            return super().apply_into(state, x, out)
        out.fill(0.0)
        n_row, n_col = state.shape
        _sparsetools.csr_matvec(
            n_row, n_col, state.indptr, state.indices, state.data, x, out
        )
        return out

    def apply_block_into(
        self, state: sp.csr_matrix, X: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        # Same SpMM loop scipy runs for `state @ X`, minus the fresh
        # output allocation (first-touch page faults dominate the r=16
        # product on large instances).  csr_matvecs accumulates into
        # out, so zero it first — the axpy order per output entry is
        # unchanged, keeping columns bit-identical to apply_block.
        if not X.flags.c_contiguous:
            return super().apply_block_into(state, X, out)
        out.fill(0.0)
        n_row, n_col = state.shape
        _sparsetools.csr_matvecs(
            n_row,
            n_col,
            X.shape[1],
            state.indptr,
            state.indices,
            state.data,
            X.ravel(),
            out.ravel(),
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
    supports_block = True

    def prepare(self, matrix: sp.spmatrix) -> sp.bsr_matrix:
        if sp.isspmatrix_bsr(matrix) and matrix.blocksize == (3, 3):
            return matrix
        return sp.bsr_matrix(matrix, blocksize=(3, 3))

    def apply(self, state: sp.bsr_matrix, x: np.ndarray) -> np.ndarray:
        return state @ x

    def apply_block(self, state: sp.bsr_matrix, X: np.ndarray) -> np.ndarray:
        return state @ X


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

    def apply(self, state: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
        indptr = state.indptr
        indices = state.indices
        data = state.data
        y = np.zeros(state.shape[0], dtype=np.float64)
        for row in range(state.shape[0]):
            acc = 0.0
            for k in range(indptr[row], indptr[row + 1]):
                acc += data[k] * x[indices[k]]
            y[row] = acc
        return y


class SymmetricUpperKernel(Kernel):
    """Product using only the upper triangle of a symmetric matrix.

    Stiffness matrices are symmetric; storing one triangle halves the
    memory but performs the same 2 * nnz(full) flops.  ``prepare``
    extracts the triangular factors fresh every time it runs — state
    never outlives a matrix mutation, unlike the old on-matrix
    attribute cache.
    """

    name = "symmetric-upper"
    preferred_format = "csr"
    supports_block = True
    # The prepared state is a triangular split of the *full* local
    # matrix; preparing a row-sliced submatrix takes the triangle of
    # the slice instead, which is a different product entirely.
    supports_row_split = False

    def prepare(self, matrix: sp.spmatrix):
        csr = matrix if sp.isspmatrix_csr(matrix) else matrix.tocsr()
        upper = sp.triu(csr, k=0).tocsr()
        strict_lower = sp.triu(csr, k=1).T.tocsr()
        return (upper, strict_lower)

    def apply(self, state, x: np.ndarray) -> np.ndarray:
        upper, strict_lower = state
        return upper @ x + strict_lower @ x

    def apply_block(self, state, X: np.ndarray) -> np.ndarray:
        upper, strict_lower = state
        return upper @ X + strict_lower @ X


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


# -- legacy one-shot adapters -------------------------------------------------


def csr_kernel(matrix: sp.spmatrix, x: np.ndarray) -> np.ndarray:
    """Compressed sparse row product (one-shot adapter)."""
    return KERNEL_REGISTRY["csr"](matrix, x)


def bsr_kernel(matrix: sp.spmatrix, x: np.ndarray) -> np.ndarray:
    """Block sparse row product with 3x3 blocks (one-shot adapter)."""
    return KERNEL_REGISTRY["bsr3x3"](matrix, x)


def python_csr_kernel(matrix: sp.spmatrix, x: np.ndarray) -> np.ndarray:
    """Pure-Python CSR product (one-shot adapter)."""
    return KERNEL_REGISTRY["python-csr"](matrix, x)


def symmetric_upper_kernel(matrix: sp.spmatrix, x: np.ndarray) -> np.ndarray:
    """Symmetric upper-triangle product (one-shot adapter with caching).

    Repeated calls on the *same, unmutated* matrix reuse the extracted
    triangular factors.  The cache is keyed on the identity of the
    matrix's data buffer plus a strided value probe, so both rebinding
    ``matrix.data`` and mutating it in place invalidate the cache — the
    stale-parts hazard of the old unconditional attribute cache.
    """
    kernel = KERNEL_REGISTRY["symmetric-upper"]
    cached = getattr(matrix, "_repro_symmetric_cache", None)
    data = getattr(matrix, "data", None)
    if data is not None and isinstance(data, np.ndarray):
        stride = max(1, data.shape[0] // 32)
        probe = data[::stride].copy()
        key = (id(data), matrix.nnz)
        if (
            cached is not None
            and cached[0] == key
            and np.array_equal(cached[1], probe)
        ):
            return kernel.apply(cached[2], x)
        state = kernel.prepare(matrix)
        try:
            matrix._repro_symmetric_cache = (key, probe, state)
        except AttributeError:  # some sparse types forbid attributes
            pass
        return kernel.apply(state, x)
    return kernel(matrix, x)


#: Named one-shot kernel registry (kept for backward compatibility;
#: prefer :func:`get_kernel` and the prepare/apply protocol).
KERNELS: Dict[str, LocalKernel] = {
    "csr": csr_kernel,
    "bsr3x3": bsr_kernel,
    "python-csr": python_csr_kernel,
    "symmetric-upper": symmetric_upper_kernel,
}


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
    k = get_kernel(kernel)
    state = k.prepare(matrix)
    rng = np.random.default_rng(rng_seed)
    nnz = matrix.nnz
    flops = 2 * nnz * rhs
    if rhs == 1:
        x = rng.standard_normal(matrix.shape[1])
        product = k.apply
    else:
        x = rng.standard_normal((matrix.shape[1], rhs))
        product = k.apply_block
    for _ in range(warmup):
        product(state, x)
    t0 = now()
    for _ in range(repetitions):
        product(state, x)
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
