"""The overlap backend: boundary rows first, interior rows in flight.

The paper's footnote-1 modification (and the "vector mode + overlap"
hybrid of Schubert et al.) reorders the superstep so communication and
computation overlap: each PE computes the rows of its *boundary* nodes
(shared with another PE) first, launches the exchange of those partial
sums, then computes its *interior* rows while the blocks are in
flight.  Interior rows by definition carry no shared dofs, so the
reordering cannot change any value — and because scipy's CSR/BSR
products accumulate each output row independently, a row-sliced
product is bit-identical to the corresponding rows of the full
product.  The backend therefore stays bit-identical to ``serial``
per column while exposing the split the executor needs to hide
exchange latency behind interior flops.

The backend *is* a :class:`SerialBackend` — the standard
``compute``/``compute_one`` phases (the flat schedule the executor
runs under ABFT or the sanitizer, and recovery) are inherited — that
also prepares, once the executor installs the dof split via
:meth:`set_row_split`, row-sliced boundary/interior states.  Kernels
whose prepared state derives from the full matrix
(``supports_row_split = False``, e.g. ``symmetric-upper``) are
rejected at setup.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.smvp.backends.serial import SerialBackend
from repro.smvp.kernels import Kernel
from repro.smvp.layout import SlicedBuffer, slice_offsets


class OverlapBackend(SerialBackend):
    """Serial per-PE products with a boundary/interior row split."""

    name = "overlap"
    #: The executor checks this flag: a backend with a row split can
    #: run the overlapped schedule (boundary compute -> exchange launch
    #: -> interior compute -> join).
    supports_overlap = True

    def __init__(self) -> None:
        super().__init__()
        self.boundary_dofs: Optional[List[np.ndarray]] = None
        self.interior_dofs: Optional[List[np.ndarray]] = None
        self._boundary_states: Optional[list] = None
        self._interior_states: Optional[list] = None
        # The persistent output buffer of the split products: one array
        # holding every PE's boundary rows, then every PE's interior
        # rows (the order of SuperstepLayout.split_offsets, whose flat
        # exchange plan and gather map index it whole).  A fresh (n, r)
        # allocation is mmap'd and pays first-touch page faults on every
        # superstep; a warm buffer removes that cost from the timed
        # path.  Reallocated only when the trailing shape (vector vs r
        # columns) changes.
        self._split: Optional[SlicedBuffer] = None

    def setup(self, kernel: Kernel, matrices: Sequence[sp.spmatrix]) -> None:
        if not kernel.supports_row_split:
            raise ValueError(
                f"kernel {kernel.name!r} does not support row splitting; "
                "the overlap backend needs row-sliced boundary/interior "
                "products (use a row-major kernel such as csr or bsr3x3)"
            )
        super().setup(kernel, matrices)
        self._csr = [
            m if sp.isspmatrix_csr(m) else m.tocsr() for m in matrices
        ]

    def set_row_split(
        self,
        boundary_dofs: Sequence[np.ndarray],
        interior_dofs: Sequence[np.ndarray],
    ) -> None:
        """Install per-PE dof-row splits and build row-sliced states.

        ``boundary_dofs[p]`` / ``interior_dofs[p]`` are sorted local dof
        row indices (three per node, node-aligned so 3x3 block formats
        stay valid).  Called once by the executor at construction.
        """
        if len(boundary_dofs) != self.num_parts:
            raise ValueError("row split does not match PE count")
        self.boundary_dofs = [
            np.asarray(d, dtype=np.int64) for d in boundary_dofs
        ]
        self.interior_dofs = [
            np.asarray(d, dtype=np.int64) for d in interior_dofs
        ]
        self._offsets = slice_offsets(
            [d.size for d in self.boundary_dofs + self.interior_dofs]
        )
        prepare = self.kernel.prepare
        self._boundary_states = [
            prepare(csr[d]) for csr, d in zip(self._csr, self.boundary_dofs)
        ]
        self._interior_states = [
            prepare(csr[d]) for csr, d in zip(self._csr, self.interior_dofs)
        ]

    @property
    def has_row_split(self) -> bool:
        return self._boundary_states is not None

    # -- split phases (used by the executor's overlapped schedule) ----------

    def _slice(self, tail: tuple, slot: int) -> np.ndarray:
        self._split = SlicedBuffer.shaped(self._split, self._offsets, tail)
        return self._split.views[slot]

    @property
    def split_buffer(self) -> np.ndarray:
        """The whole array the last split products were written into."""
        return self._split.whole

    def compute_boundary_one(self, pe: int, x: np.ndarray) -> np.ndarray:
        """One PE's boundary rows (vector or block x).

        The returned array is a persistent backend-owned buffer — valid
        (and free for the caller to accumulate exchange deliveries
        into) until the next boundary compute for the same PE, which
        overwrites it.
        """
        return self.kernel.product_into(
            self._boundary_states[pe], x, self._slice(x.shape[1:], pe)
        )

    def compute_interior_one(self, pe: int, x: np.ndarray) -> np.ndarray:
        """One PE's interior rows (vector or block x).

        Returns a persistent backend-owned buffer, like
        :meth:`compute_boundary_one`.
        """
        return self.kernel.product_into(
            self._interior_states[pe],
            x,
            self._slice(x.shape[1:], self.num_parts + pe),
        )
