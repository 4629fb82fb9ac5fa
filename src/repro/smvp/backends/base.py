"""The execution-backend interface, and the compute phase it runs."""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.smvp.kernels import Kernel, PackedTable
from repro.smvp.layout import SlicedBuffer, slice_offsets


class ExecutionBackend:
    """Where one phase's PE ranges run.

    A backend is :meth:`map`: ``fn(lo, hi)`` over contiguous ranges of
    PEs that tile ``[0, len(costs))``, each call handling PEs ``lo ..
    hi-1`` and returning their results; ``map`` returns the results in
    PE order.  The calls of one ``map`` touch disjoint per-PE data
    (each PE's own state, input slice and output slice), so a backend
    may cut the ranges as it likes (``costs[i]`` is PE ``i``'s work)
    and run them in any order or concurrently — it changes *where* they
    run, never their values.  Subclasses implement ``map`` (and
    ``close`` if they hold a pool); nothing else.

    :meth:`setup` and :meth:`compute` are one compute phase written on
    top of it — ``Kernel.prepare`` once per PE and the kernel's range
    table, outside any timed region, then the products — for anyone
    timing a backend on its own; :meth:`adopt` is :meth:`setup` for
    states prepared already.  ``states`` is the last ``setup``'s,
    ``table`` its range table (``None``: per-PE products): an executor
    keeps the ones its own call made.
    """

    name: str = "abstract"
    kernel: Kernel
    states: list
    table: Optional[PackedTable] = None

    def map(self, fn: Callable[[int, int], list], costs: Sequence[int]) -> list:
        """``fn(lo, hi)`` over ranges tiling ``[0, len(costs))``, the
        lists it returns concatenated in PE order, wherever this backend
        runs them."""
        raise NotImplementedError

    def setup(self, kernel: Kernel, matrices: Iterable[sp.spmatrix]) -> list:
        """Prepare per-PE kernel states (format conversion happens here)
        and their range table, and return the states.  ``matrices`` may
        be any iterable: each is prepared in turn and not kept (a state
        keeps what it needs)."""
        return self.adopt(kernel, [kernel.prepare(m) for m in matrices])

    def adopt(self, kernel: Kernel, states: Sequence) -> list:
        """:meth:`setup` for states ``kernel`` already holds (the
        executor's packed states, built straight from the elements):
        their range table, and the states as a list."""
        self.kernel = kernel
        self.states = list(states)
        self.table = kernel.table(self.states)
        self._costs = np.array([s.nnz for s in self.states], dtype=np.int64)
        self._offsets = slice_offsets([s.shape[0] for s in self.states])
        self._x = self._y = None
        return self.states

    def compute(self, x_locals: Sequence[np.ndarray]) -> List[np.ndarray]:
        """One compute phase: the per-PE products ``K_i x_i`` (vectors
        or n x r blocks alike), in PE order, bit-identical to
        ``kernel.product`` per PE.  The inputs are copied into one
        buffer first and the products are views of another, both kept
        by the backend: valid until the next call."""
        tail = x_locals[0].shape[1:]
        self._x = SlicedBuffer.shaped(self._x, self._offsets, tail)
        self._y = SlicedBuffer.shaped(self._y, self._offsets, tail)
        np.concatenate(x_locals, out=self._x.whole)
        run = None
        if self.table is not None:
            run = self.table.bind(self._x.whole, self._y.whole)
        return self.map(
            ranged_products(
                self.kernel, self.states, self._x.frozen, list(self._y.views), run
            ),
            self._costs,
        )

    def close(self) -> None:
        """Release any pools; the backend may not be used afterwards."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def ranged_products(
    kernel: Kernel,
    states: Sequence,
    x_locals: Sequence[np.ndarray],
    outs: List[np.ndarray],
    run: Optional[Callable[[int, int], None]] = None,
    recorder=None,
) -> Callable[[int, int], list]:
    """A compute phase as :meth:`ExecutionBackend.map`'s ``fn(lo, hi)``:
    the products of PEs ``lo .. hi-1``, PE ``i``'s written into
    ``outs[i]``, which are returned.

    ``run`` is the range entry bound to the whole buffers ``x_locals``
    and ``outs`` slice (:meth:`~repro.smvp.kernels.PackedTable.bind`):
    then a range is one compiled call.  Without it (a scipy-path state,
    a custom kernel, or inputs that are not the buffer's slices) each PE
    is one ``kernel.product(states[i], x_locals[i], outs[i])`` — the
    same bits.  Under a span ``recorder`` each PE runs alone inside its
    ``compute`` span, through the same entry.
    """
    if run is None:
        product = kernel.product

        def one(pe: int):
            return product(states[pe], x_locals[pe], outs[pe])

    elif recorder is None:

        def ranged(lo: int, hi: int) -> list:
            run(lo, hi)
            return outs[lo:hi]

        return ranged
    else:

        def one(pe: int):
            run(pe, pe + 1)
            return outs[pe]

    if recorder is None:
        return lambda lo, hi: [one(pe) for pe in range(lo, hi)]
    timed = recorder.timed
    return lambda lo, hi: [timed("compute", pe, one, pe) for pe in range(lo, hi)]
