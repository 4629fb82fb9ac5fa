"""One buffer sliced per PE, and the index maps over it.

Everything a superstep does to move data runs on flat integer index
arrays built here once per distribution, over **one array sliced per
PE** (:class:`SlicedBuffer`; PE ``i`` owns rows ``offsets[i] ..
offsets[i+1]``, the cumulative local dof counts):

* scatter is one ``np.take`` of the concatenated per-PE global rows
  into the x buffer;
* each PE's product is written straight into its slice of the y buffer;
* the exchange runs the pair table compiled into a flat reduction plan
  (:class:`~repro.smvp.exchange.ExchangePlan`) over that buffer — a
  copy of the :class:`~repro.smvp.schedule.CommSchedule`'s ``pairs``;
* gather is one ``np.take`` of every global dof's owner position.

So a superstep does no Python iteration over pairs or blocks, and
none over PEs outside the kernel calls.  The per-PE maps (``dof_rows``,
``pairs``, ``gather_src`` / ``gather_dst``) stay: they define the flat
ones.  Exchange and gather always run on the buffers: a per-PE array
that is not its buffer slice — one an observer or backend replaced, or
a caller's own — is first copied into its slice
(:meth:`SuperstepLayout.holding`).

In the *flat* layout each PE's slice is its full local vector (3 dofs
per local node, node order) and every index is a local dof row.  In
the *split* layout (:meth:`SuperstepLayout.set_row_split`, the
overlapped schedule's) the products land in the split buffer — every
PE's boundary rows, then every PE's interior rows — the full local
vector is never assembled, and every exchange / gather index is a
position inside that buffer.

**Lifetime of the slices.**  The arrays :meth:`SuperstepLayout.scatter`,
:meth:`SuperstepLayout.product_slices` and
:meth:`SuperstepLayout.split_slices` hand out are views of layout-owned
buffers that persist across supersteps: they are valid
until the next call of the same method (or the next ``multiply``),
which overwrites them in place.  Copy what must outlive that.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.contracts import check_plan_contract
from repro.smvp.exchange import ExchangePlan, PairTable
from repro.smvp.schedule import CommSchedule, node_dofs


def slice_offsets(sizes: Sequence[int]) -> np.ndarray:
    """Cumulative offsets (one more than ``sizes``) of a sliced buffer."""
    return np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))


class SlicedBuffer:
    """One float64 array and its consecutive per-slice views.

    ``whole`` has ``offsets[-1]`` rows (and ``tail`` trailing axes, the
    block width); ``views[i]`` is ``whole[offsets[i]:offsets[i+1]]``.
    """

    def __init__(self, offsets: np.ndarray, tail: Tuple[int, ...]) -> None:
        self.whole = np.empty((int(offsets[-1]),) + tuple(tail))
        self.views = tuple(
            self.whole[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])
        )

    @classmethod
    def shaped(
        cls,
        current: Optional["SlicedBuffer"],
        offsets: np.ndarray,
        tail: Tuple[int, ...],
    ) -> "SlicedBuffer":
        """``current`` when it already has trailing shape ``tail`` (the
        warm buffer of the previous superstep), a new buffer otherwise."""
        if current is not None and current.whole.shape[1:] == tuple(tail):
            return current
        return cls(offsets, tail)


class SuperstepLayout:
    """Scatter rows, exchange pair tables / plans, gather maps and the
    persistent per-PE-sliced buffers of one :class:`CommSchedule`'s
    distribution."""

    def __init__(self, schedule: CommSchedule) -> None:
        self.schedule = schedule
        self.distribution = distribution = schedule.distribution
        self.local_nodes: List[np.ndarray] = [
            distribution.local_nodes(p) for p in range(distribution.num_parts)
        ]
        self.num_rows = 3 * distribution.mesh.num_nodes

        # Per-PE flat global dof rows, and their concatenation: scatter
        # is one np.take through ``rows_cat``, vectors and blocks alike.
        self.dof_rows: List[np.ndarray] = [
            node_dofs(n) for n in self.local_nodes
        ]
        self.offsets = slice_offsets([rows.size for rows in self.dof_rows])
        self.rows_cat = np.concatenate(self.dof_rows)

        # The flat pair table the plans compile: a copy of the
        # schedule's.  Replace it only through :meth:`replace_pairs`.
        self.pairs: PairTable = list(schedule.pairs)

        # Owner of each global node for the gather step: lowest PE.
        csr = distribution.node_parts.tocsr()
        if np.any(np.diff(csr.indptr) == 0):
            raise ValueError(
                "mesh has nodes unused by any element; compact it first"
            )
        owner = csr.indices[csr.indptr[:-1]].astype(np.int64)

        # Per-PE owned-dof index arrays, and ``owner_pos``: the buffer
        # position of every global dof's owned copy.  Ownership
        # partitions the nodes, so the destinations cover every global
        # dof exactly once.
        self.gather_src: List[np.ndarray] = []
        self.gather_dst: List[np.ndarray] = []
        self.owner_pos = np.empty(self.num_rows, dtype=np.int64)
        for part, nodes in enumerate(self.local_nodes):
            mine = np.flatnonzero(owner[nodes] == part)
            self.gather_src.append(node_dofs(mine))
            self.gather_dst.append(node_dofs(nodes[mine]))
            self.owner_pos[self.gather_dst[part]] = (
                self.offsets[part] + self.gather_src[part]
            )

        # Split layout (set_row_split): per-PE position of each local
        # dof row inside its boundary rows, -1 for interior rows.
        self._boundary_pos: Optional[List[np.ndarray]] = None
        self.split_pairs: PairTable = []
        # Compiled reduction plans, keyed by ``split``.
        self._plans: Dict[bool, ExchangePlan] = {}
        # Persistent buffers (lazily shaped to the rhs width): fresh
        # per-call arrays pay first-touch page faults every superstep.
        self._x: Optional[SlicedBuffer] = None
        self._y: Optional[SlicedBuffer] = None
        self._split: Optional[SlicedBuffer] = None

    def set_row_split(self) -> None:
        """Build the split layout.

        - ``boundary_dofs`` / ``interior_dofs``: per PE, the sorted
          local dof rows of its shared / unshared nodes (node-aligned,
          so each slice keeps the node structure ``csr``'s compiled
          loop needs) — the rows of the two row-sliced products.
        - ``split_offsets``: the split buffer's slices — PE 0..P-1's
          boundary rows, then PE 0..P-1's interior rows.
        - ``split_pairs``: the pair table for the boundary slices (in
          ``pairs`` order, so payload values and summation order are
          unchanged).
        - ``split_owner_pos``: the gather map into the split buffer.
        """
        self.boundary_dofs = [
            node_dofs(n) for n in self.distribution.boundary_local_nodes
        ]
        self.interior_dofs = [
            node_dofs(n) for n in self.distribution.interior_local_nodes
        ]
        parts = len(self.dof_rows)
        self.split_offsets = slice_offsets(
            [d.size for d in self.boundary_dofs + self.interior_dofs]
        )
        self._boundary_pos = []
        self.split_owner_pos = np.empty(self.num_rows, dtype=np.int64)
        for part, rows in enumerate(self.dof_rows):
            where = np.empty(rows.size, dtype=np.int64)
            for dofs, base in (
                (self.boundary_dofs[part], self.split_offsets[part]),
                (self.interior_dofs[part], self.split_offsets[parts + part]),
            ):
                where[dofs] = base + np.arange(dofs.size)
            self.split_owner_pos[self.gather_dst[part]] = where[
                self.gather_src[part]
            ]
            bpos = np.full(rows.size, -1, dtype=np.int64)
            bpos[self.boundary_dofs[part]] = np.arange(
                self.boundary_dofs[part].size
            )
            self._boundary_pos.append(bpos)
        self.split_pairs = self._split_table()

    def _split_table(self) -> PairTable:
        bpos = self._boundary_pos
        table = []
        for a, b, dof_a, dof_b in self.pairs:
            pa, pb = bpos[a][dof_a], bpos[b][dof_b]
            if (pa < 0).any() or (pb < 0).any():
                raise AssertionError(
                    "shared dof outside the boundary row split"
                )
            table.append((a, b, pa, pb))
        return table

    def replace_pairs(self, pairs: PairTable) -> None:
        """Install a new flat pair table; everything derived from the
        old one (the split table, the compiled plans) is rebuilt or
        dropped with it."""
        self.pairs = list(pairs)
        self._plans.clear()
        if self._boundary_pos is not None:
            self.split_pairs = self._split_table()

    def plan(self, split: bool = False) -> ExchangePlan:
        """The pair table compiled into a flat reduction plan over the
        y buffer (``split``: over the split buffer's boundary slices);
        compiled (and contract-checked) on first use, dropped by
        :meth:`replace_pairs`."""
        plan = self._plans.get(split)
        if plan is None:
            # The boundary slices open the split buffer, one per PE.
            plan = self._plans[split] = (
                ExchangePlan(
                    self.split_pairs, self.split_offsets[: self.offsets.size]
                )
                if split
                else ExchangePlan(self.pairs, self.offsets)
            )
            check_plan_contract(plan)
        return plan

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

    def scatter(self, x_global: np.ndarray) -> List[np.ndarray]:
        """Row-select every PE's local array out of a validated input:
        one take into the x buffer, returned as its per-PE slices (see
        the module docstring for their lifetime).  ``mode="clip"``
        skips the per-element bounds check — the row map is in-bounds
        by construction — measurably faster at r=16."""
        self._x = SlicedBuffer.shaped(self._x, self.offsets, x_global.shape[1:])
        np.take(x_global, self.rows_cat, axis=0, out=self._x.whole, mode="clip")
        return list(self._x.views)

    def product_slices(self, tail: Tuple[int, ...]) -> List[np.ndarray]:
        """The y buffer's per-PE slices for products of width ``tail``."""
        self._y = SlicedBuffer.shaped(self._y, self.offsets, tail)
        return list(self._y.views)

    def split_slices(
        self, tail: Tuple[int, ...]
    ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """The split buffer's per-PE boundary slices and per-PE interior
        slices for products of width ``tail``."""
        self._split = SlicedBuffer.shaped(self._split, self.split_offsets, tail)
        views, parts = self._split.views, len(self.dof_rows)
        return list(views[:parts]), list(views[parts:])

    def holding(
        self, partials: List[np.ndarray], split: bool = False
    ) -> np.ndarray:
        """The whole y buffer (``split``: the whole split buffer, whose
        boundary slices the overlapped schedule's partials are) holding
        ``partials``: every slot that is not its own slice is copied in
        and the slot rebound to the slice."""
        if split:
            buf = self._split
        else:
            tail = partials[0].shape[1:]
            buf = self._y = SlicedBuffer.shaped(self._y, self.offsets, tail)
        for pe, own in enumerate(buf.views[: len(partials)]):
            if partials[pe] is not own:
                own[...] = partials[pe]
                partials[pe] = own
        return buf.whole

    def gather(
        self, buffer: np.ndarray, out: np.ndarray, split: bool = False
    ) -> np.ndarray:
        """Write every owned dof of the y buffer (``split``: of the
        split buffer) into ``out`` in one take."""
        pos = self.split_owner_pos if split else self.owner_pos
        return np.take(buffer, pos, axis=0, out=out, mode="clip")
