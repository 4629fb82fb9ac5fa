"""The execution-backend interface."""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.smvp.kernels import Kernel


class ExecutionBackend:
    """Where a list of per-PE calls runs.

    A backend is :meth:`map`: ``fn`` once per PE over the zipped
    ``columns``, results in PE order.  The calls of one ``map`` touch
    disjoint per-PE data (each PE's own state, input slice and output
    slice), so a backend may run them in any order or concurrently — it
    changes *where* they run, never their values.  Subclasses implement
    ``map`` (and ``close`` if they hold a pool); nothing else.

    :meth:`setup` and :meth:`compute` are one compute phase written on
    top of it — ``Kernel.prepare`` once per PE, outside any timed
    region, then ``Kernel.product`` per PE — for anyone timing a
    backend on its own.  ``states`` is the last ``setup``'s: an
    executor keeps the list its own call returned.
    """

    name: str = "abstract"
    kernel: Kernel
    states: list

    def map(self, fn: Callable, *columns: Sequence) -> list:
        """``[fn(*row) for row in zip(*columns)]``, wherever this
        backend runs it."""
        raise NotImplementedError

    def setup(self, kernel: Kernel, matrices: Sequence[sp.spmatrix]) -> list:
        """Prepare per-PE kernel states (format conversion happens here)
        and return them."""
        self.kernel = kernel
        self.states = [kernel.prepare(m) for m in matrices]
        return self.states

    def compute(
        self,
        x_locals: Sequence[np.ndarray],
        outs: Optional[Sequence[np.ndarray]] = None,
    ) -> List[np.ndarray]:
        """One compute phase: the per-PE products ``K_i x_i`` (vectors
        or n x r blocks alike), in PE order — product ``i`` written
        into ``outs[i]`` when ``outs`` is given, bit-identical either
        way."""
        if outs is None:
            outs = [None] * len(x_locals)
        return self.map(self.kernel.product, self.states, x_locals, outs)

    def close(self) -> None:
        """Release any pools; the backend may not be used afterwards."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
