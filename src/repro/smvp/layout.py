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

Each PE's slice is its full local vector (3 dofs per local node, node
order), and every index is a local dof row.

**Lifetime of the slices.**  The arrays :meth:`SuperstepLayout.scatter`
and :meth:`SuperstepLayout.product_slices` hand out are views of
layout-owned buffers that persist across supersteps: they are valid
until the next call of the same method (or the next ``multiply``),
which overwrites them in place.  Copy what must outlive that.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

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
    """Scatter rows, the exchange pair table and plan, gather maps and the
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

        # The pair table the plan compiles: a copy of the
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

        # The compiled reduction plan, built on first use.
        self._plan: Optional[ExchangePlan] = None
        # Persistent buffers (lazily shaped to the rhs width): fresh
        # per-call arrays pay first-touch page faults every superstep.
        self._x: Optional[SlicedBuffer] = None
        self._y: Optional[SlicedBuffer] = None

    def replace_pairs(self, pairs: PairTable) -> None:
        """Install a new pair table; the plan compiled from the old one
        is dropped with it."""
        self.pairs = list(pairs)
        self._plan = None

    def plan(self) -> ExchangePlan:
        """The pair table compiled into a flat reduction plan over the
        y buffer; compiled (and contract-checked) on first use, dropped
        by :meth:`replace_pairs`."""
        if self._plan is None:
            self._plan = ExchangePlan(self.pairs, self.offsets)
            check_plan_contract(self._plan)
        return self._plan

    # -- the data movement itself ------------------------------------------

    def check_x(self, x_global: np.ndarray) -> np.ndarray:
        """The input as a float64 (3n,) vector or (3n, r) block; complex
        input is refused rather than cut to its real part."""
        if np.iscomplexobj(x_global):
            raise ValueError("x must be real, not complex")
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

    def holding(self, partials: List[np.ndarray]) -> np.ndarray:
        """The whole y buffer holding ``partials``: every slot that is
        not its own slice is copied in and the slot rebound to the
        slice."""
        tail = partials[0].shape[1:]
        buf = self._y = SlicedBuffer.shaped(self._y, self.offsets, tail)
        for pe, own in enumerate(buf.views):
            if partials[pe] is not own:
                own[...] = partials[pe]
                partials[pe] = own
        return buf.whole

    def gather(self, buffer: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write every owned dof of the y buffer into ``out`` in one
        take."""
        return np.take(buffer, self.owner_pos, axis=0, out=out, mode="clip")
