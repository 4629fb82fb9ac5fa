"""The threaded backend: per-PE products on a thread pool.

scipy's sparse matvec releases the GIL for the heavy loop, so on a
multi-core host the per-PE products genuinely overlap — this is the
intra-node (OpenMP) half of the hybrid MPI+OpenMP SMVP decomposition.
Each product is the same code on the same data as the serial backend,
and results are collected by PE index, so the output is bit-identical
to ``serial`` regardless of scheduling.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.smvp.backends.base import ExecutionBackend
from repro.smvp.kernels import Kernel
from repro.telemetry.registry import count


def default_workers(num_parts: int) -> int:
    """Worker count: one per PE, capped by host cores (min 2 so the
    concurrent path is exercised even on one-core hosts)."""
    return max(2, min(num_parts, os.cpu_count() or 1))


class ThreadedBackend(ExecutionBackend):
    """Per-PE products on a :class:`ThreadPoolExecutor`."""

    name = "threaded"

    def __init__(self, workers: Optional[int] = None) -> None:
        super().__init__()
        self._requested_workers = workers
        self._pool: Optional[ThreadPoolExecutor] = None

    def setup(self, kernel: Kernel, matrices: Sequence[sp.spmatrix]) -> None:
        super().setup(kernel, matrices)
        self.states = [kernel.prepare(m) for m in matrices]
        self.workers = self._requested_workers or default_workers(
            len(matrices)
        )

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-smvp",
            )
        return self._pool

    def compute(self, x_locals: Sequence[np.ndarray]) -> List[np.ndarray]:
        count("repro_backend_compute_phases_total", backend=self.name)
        pool = self._ensure_pool()
        return list(pool.map(self.kernel.product, self.states, x_locals))

    def compute_into(
        self, x_locals: Sequence[np.ndarray], outs: List[np.ndarray]
    ) -> List[np.ndarray]:
        # Each worker writes only its own PE's slice.
        count("repro_backend_compute_phases_total", backend=self.name)
        pool = self._ensure_pool()
        list(pool.map(self.kernel.product_into, self.states, x_locals, outs))
        return outs

    def compute_one(self, pe: int, x: np.ndarray) -> np.ndarray:
        # Same prepared state and kernel code as the pooled path, so
        # the recomputed product is bit-identical by construction.
        return self.kernel.product(self.states[pe], x)

    def compute_timed(self, x_locals, clock):
        """Pooled compute with per-PE spans read *inside* the workers.

        Same `pool.map` fan-out (and the same kernel code on the same
        states) as :meth:`compute`, so the products are bit-identical;
        only the clock reads around each product are new.  Reading the
        clock in the worker thread means the recorded spans genuinely
        overlap when the products do — that concurrency is exactly
        what the profiler's imbalance attribution measures.
        """
        count("repro_backend_compute_phases_total", backend=self.name)
        pool = self._ensure_pool()
        product = self.kernel.product

        def timed(state, x):
            t_start = clock()
            y = product(state, x)
            return y, t_start, clock()

        results = list(pool.map(timed, self.states, x_locals))
        outs = [y for y, _, _ in results]
        windows = [(t_start, t_end) for _, t_start, t_end in results]
        return outs, windows

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
