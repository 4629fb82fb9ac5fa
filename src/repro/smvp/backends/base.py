"""The execution-backend interface."""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.smvp.kernels import Kernel
from repro.telemetry.registry import count


class ExecutionBackend:
    """Runs the compute phase: per-PE local products, one strategy.

    Lifecycle: ``setup`` once with the kernel and the per-PE local
    matrices (this is where ``Kernel.prepare`` runs — exactly once per
    PE, outside any timed region), then ``compute`` per superstep,
    then ``close``.  ``compute`` must return the per-PE products in PE
    order, bit-identical to ``[kernel.apply(state_i, x_i)]`` — backends
    change *where* the products run, never their values.  The local
    inputs are vectors or n x r blocks alike
    (:meth:`Kernel.product <repro.smvp.kernels.Kernel.product>`):
    column j of a block product must be bit-identical to the product
    of the j-th columns — backends batch the traversal, nothing else.
    """

    name: str = "abstract"

    def __init__(self) -> None:
        self.kernel: Kernel = None  # type: ignore[assignment]
        self.num_parts = 0

    def setup(self, kernel: Kernel, matrices: Sequence[sp.spmatrix]) -> None:
        """Prepare per-PE kernel states (format conversion happens here)."""
        self.kernel = kernel
        self.num_parts = len(matrices)

    def compute(self, x_locals: Sequence[np.ndarray]) -> List[np.ndarray]:
        """One compute phase: the per-PE products, in PE order."""
        raise NotImplementedError

    def compute_into(
        self, x_locals: Sequence[np.ndarray], outs: List[np.ndarray]
    ) -> List[np.ndarray]:
        """One compute phase with product ``i`` written into ``outs[i]``
        (the executor's persistent per-PE slices); returns ``outs``.

        Bit-identical to :meth:`compute`.  This default computes as
        usual and copies; backends whose kernel calls run in-process
        override it to write each product straight into its slice.
        """
        for out, y in zip(outs, self.compute(x_locals)):
            out[...] = y
        return outs

    def compute_one(self, pe: int, x: np.ndarray) -> np.ndarray:
        """Recompute a single PE's product (ABFT inline recovery).

        Must be bit-identical to the ``pe``-th entry of
        :meth:`compute` — same prepared state, same kernel code — so a
        recomputed superstep heals a transient corruption exactly.
        """
        raise NotImplementedError

    def compute_timed(
        self,
        x_locals: Sequence[np.ndarray],
        clock: Callable[[], float],
    ) -> Tuple[List[np.ndarray], List[Tuple[float, float]]]:
        """One compute phase plus per-PE ``(t_start, t_end)`` windows.

        The profiler's hook: products must be bit-identical to
        :meth:`compute` (same prepared states, same kernel code) with each PE's span read from ``clock``
        around its own product.  This default runs the per-PE products
        sequentially in the calling thread — correct for serially
        executing backends; pooled backends override it so spans are
        read inside the worker and genuinely overlap.
        """
        count("repro_backend_compute_phases_total", backend=self.name)
        outs: List[np.ndarray] = []
        windows: List[Tuple[float, float]] = []
        for pe, x in enumerate(x_locals):
            t_start = clock()
            outs.append(self.compute_one(pe, x))
            windows.append((t_start, clock()))
        return outs, windows

    def close(self) -> None:
        """Release any pools; the backend may not be used afterwards."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
