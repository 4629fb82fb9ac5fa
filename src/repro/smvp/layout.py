"""Index maps between the global vector and the per-PE arrays.

Everything a superstep does to move data — scatter rows out of the
global input, address the shared dofs of a PE pair, gather owned dofs
back — runs on flat integer index arrays built here once per
distribution: no per-call arithmetic or set algebra on the hot path.

In the *flat* layout each PE's partial is one full local vector (3
dofs per local node, node order) and every index is a local dof row.
In the *split* layout (:meth:`SuperstepLayout.set_row_split`, the
overlapped schedule's) boundary and interior rows live in two dense
per-PE buffers, the full local vector is never assembled, and every
exchange / gather index is a *position* inside the right buffer.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.smvp.distribution import DataDistribution
from repro.smvp.exchange import PairTable


def node_dofs(nodes: np.ndarray) -> np.ndarray:
    """Flat dof indices (3 per node, node order) of ``nodes``."""
    return (3 * nodes[:, None] + np.arange(3)).ravel()


class SuperstepLayout:
    """Scatter rows, exchange pair tables and gather maps of one
    :class:`DataDistribution`."""

    def __init__(self, distribution: DataDistribution) -> None:
        self.distribution = distribution
        self.local_nodes: List[np.ndarray] = [
            distribution.local_nodes(p) for p in range(distribution.num_parts)
        ]
        self.num_rows = 3 * distribution.mesh.num_nodes

        # Per-PE flat global dof rows: scatter gathers rows through
        # these with np.take, vectors and blocks alike, which beats the
        # reshape-and-fancy-index route ~3x on large instances while
        # selecting exactly the same rows.
        self.dof_rows: List[np.ndarray] = [
            node_dofs(n) for n in self.local_nodes
        ]

        # The flat pair table: per unordered sharing pair, the shared
        # dof rows on each side.
        self.pairs: List[Tuple[int, int, np.ndarray, np.ndarray]] = [
            (
                a,
                b,
                node_dofs(distribution.global_to_local(a, shared)),
                node_dofs(distribution.global_to_local(b, shared)),
            )
            for (a, b), shared in distribution.pair_shared_nodes.items()
        ]

        # Owner of each global node for the gather step: lowest PE.
        csr = distribution.node_parts.tocsr()
        if np.any(np.diff(csr.indptr) == 0):
            raise ValueError(
                "mesh has nodes unused by any element; compact it first"
            )
        owner = csr.indices[csr.indptr[:-1]].astype(np.int64)

        # Per-PE owned-dof index arrays: gather writes straight through
        # these (no dense scratch allocation, no per-call masking).
        # Ownership partitions the nodes, so the destinations cover
        # every global dof exactly once.
        self.gather_src: List[np.ndarray] = []
        self.gather_dst: List[np.ndarray] = []
        for part, nodes in enumerate(self.local_nodes):
            mine = np.flatnonzero(owner[nodes] == part)
            self.gather_src.append(node_dofs(mine))
            self.gather_dst.append(node_dofs(nodes[mine]))

        self.split_pairs: PairTable = []
        self._split_gather: list = []
        # Persistent scatter buffers of the split layout (lazily shaped
        # to the rhs width): fresh per-call local arrays pay first-touch
        # page faults that show up as scatter time on large instances.
        self._xbufs: Optional[List[np.ndarray]] = None

    def set_row_split(self) -> None:
        """Build the split layout.

        - ``boundary_dofs`` / ``interior_dofs``: per PE, the sorted
          local dof rows of its shared / unshared nodes (node-aligned,
          so 3x3 block formats stay valid) — the backend's row split.
        - ``split_pairs``: the pair table for the boundary buffers (in
          ``pairs`` order, so payload values and summation order are
          unchanged).
        - the split gather map: per PE, the owned-dof destinations
          split by which buffer holds the source row.
        """
        self.boundary_dofs = [
            node_dofs(n) for n in self.distribution.boundary_local_nodes
        ]
        self.interior_dofs = [
            node_dofs(n) for n in self.distribution.interior_local_nodes
        ]
        bpos: List[np.ndarray] = []
        ipos: List[np.ndarray] = []
        for part, rows in enumerate(self.dof_rows):
            for dofs, pos in (
                (self.boundary_dofs[part], bpos),
                (self.interior_dofs[part], ipos),
            ):
                where = np.full(rows.size, -1, dtype=np.int64)
                where[dofs] = np.arange(dofs.size)
                pos.append(where)
        self.split_pairs = []
        for a, b, dof_a, dof_b in self.pairs:
            pa, pb = bpos[a][dof_a], bpos[b][dof_b]
            if (pa < 0).any() or (pb < 0).any():
                raise AssertionError(
                    "shared dof outside the boundary row split"
                )
            self.split_pairs.append((a, b, pa, pb))
        self._split_gather = []
        for part, (src, dst) in enumerate(
            zip(self.gather_src, self.gather_dst)
        ):
            pb = bpos[part][src]
            on_boundary = pb >= 0
            src_i = ipos[part][src[~on_boundary]]
            # Interior nodes have residency 1, so every interior row is
            # owned by its PE: the interior source map is the identity
            # and gather can copy the whole buffer without a source
            # gather pass (None marks the shortcut).
            if src_i.size and np.array_equal(src_i, np.arange(src_i.size)):
                src_i = None
            self._split_gather.append(
                (dst[on_boundary], pb[on_boundary], dst[~on_boundary], src_i)
            )

    # -- the data movement itself ------------------------------------------

    def check_x(self, x_global: np.ndarray) -> np.ndarray:
        """The input as a float64 (3n,) vector or (3n, r) block."""
        x_global = np.asarray(x_global, dtype=np.float64)
        if x_global.ndim == 2:
            if x_global.shape[0] != self.num_rows:
                raise ValueError("X must have 3 * num_nodes rows")
        elif x_global.shape != (self.num_rows,):
            raise ValueError("x must have length 3 * num_nodes")
        return x_global

    def out_buffer(
        self, tail: Tuple[int, ...], out: Optional[np.ndarray]
    ) -> np.ndarray:
        """The validated (or freshly allocated) global output array."""
        shape = (self.num_rows,) + tuple(tail)
        if out is None:
            return np.empty(shape, dtype=np.float64)
        if out.shape != shape or out.dtype != np.float64:
            raise ValueError(f"out must be a float64 array of shape {shape}")
        return out

    def scatter(self, x_global: np.ndarray, reuse: bool = False) -> List[np.ndarray]:
        """Row-select every PE's local array out of a validated input.

        ``reuse`` writes into layout-owned arrays that persist across
        supersteps (valid until the next such call) instead of fresh
        ones; same rows, same bits.  ``mode="clip"`` skips the
        per-element bounds check — the row maps are in-bounds by
        construction — measurably faster at r=16.
        """
        if not reuse:
            return [
                np.take(x_global, rows, axis=0, mode="clip")
                for rows in self.dof_rows
            ]
        tail = x_global.shape[1:]
        if self._xbufs is None or self._xbufs[0].shape[1:] != tail:
            self._xbufs = [
                np.empty((rows.size,) + tail) for rows in self.dof_rows
            ]
        for rows, buf in zip(self.dof_rows, self._xbufs):
            np.take(x_global, rows, axis=0, out=buf, mode="clip")
        return self._xbufs

    def gather(
        self,
        partials: List[np.ndarray],
        interiors: Optional[List[np.ndarray]],
        out: np.ndarray,
    ) -> np.ndarray:
        """Write every owned dof into ``out``: from full per-PE arrays,
        or (``interiors`` given) from whichever of the split layout's
        boundary / interior buffers holds its row."""
        if interiors is None:
            for y, src, dst in zip(partials, self.gather_src, self.gather_dst):
                out[dst] = y[src]
            return out
        for y, inner, (dst_b, src_b, dst_i, src_i) in zip(
            partials, interiors, self._split_gather
        ):
            out[dst_b] = y[src_b]
            out[dst_i] = inner if src_i is None else inner[src_i]
        return out
