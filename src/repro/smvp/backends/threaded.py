"""The threaded backend: per-PE products on a thread pool.

The local products release the GIL for the heavy loop (``csr``'s
compiled loop through cffi, scipy's matvec otherwise), so on a
multi-core host the per-PE products genuinely overlap — this is the
intra-node (OpenMP) half of the hybrid MPI+OpenMP SMVP decomposition.
Each call is the same code on the same data as the serial backend,
and results are collected by PE index, so the output is bit-identical
to ``serial`` regardless of scheduling.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from repro.smvp.backends.base import ExecutionBackend


def default_workers(num_parts: int) -> int:
    """Worker count: one per PE, capped by host cores (min 2 so the
    concurrent path is exercised even on one-core hosts)."""
    return max(2, min(num_parts, os.cpu_count() or 1))


class ThreadedBackend(ExecutionBackend):
    """Per-PE calls on a :class:`ThreadPoolExecutor`."""

    name = "threaded"

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = workers
        self._pool: Optional[ThreadPoolExecutor] = None

    def map(self, fn, *columns):
        if self._pool is None:  # sized by the first phase's PE count
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers or default_workers(len(columns[0])),
                thread_name_prefix="repro-smvp",
            )
        return list(self._pool.map(fn, *columns))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
