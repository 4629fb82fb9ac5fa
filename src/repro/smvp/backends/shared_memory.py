"""The shared-memory backend: per-PE products on a process pool.

Each worker process holds its own copy of the prepared kernel states
(installed once, at pool start), so a compute phase ships only the x
vectors to the workers and the y vectors back — the closest in-process
analogue to PEs with private memories.  Float64 arrays round-trip
through pickle exactly, so results are bit-identical to ``serial``.

The pool prefers the ``fork`` start method (states are inherited for
free); where ``fork`` is unavailable the states are pickled to each
worker once at startup instead.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.smvp.backends.base import ExecutionBackend
from repro.smvp.kernels import Kernel
from repro.telemetry.registry import count
from repro.util.clock import now

#: Per-worker (kernel, states), installed by the pool initializer.
_WORKER_STATE: Optional[Tuple[Kernel, list]] = None


def _init_worker(kernel: Kernel, matrices: Sequence[sp.spmatrix]) -> None:
    global _WORKER_STATE
    _WORKER_STATE = (kernel, [kernel.prepare(m) for m in matrices])


def _apply_one(task: Tuple[int, np.ndarray]) -> np.ndarray:
    part, x = task
    kernel, states = _WORKER_STATE
    return kernel.product(states[part], x)


def _apply_one_timed(
    task: Tuple[int, np.ndarray]
) -> Tuple[np.ndarray, float, float]:
    """One timed product, clocked *inside* the worker process.

    ``perf_counter`` is CLOCK_MONOTONIC system-wide on Linux, so the
    worker's readings share the parent's timebase; the profiler's
    analyzer additionally clamps spans into their host window, so a
    platform with per-process timebases degrades gracefully instead of
    corrupting the attribution.
    """
    part, x = task
    kernel, states = _WORKER_STATE
    t_start = now()
    y = kernel.product(states[part], x)
    return y, t_start, now()


def default_workers(num_parts: int) -> int:
    """Worker count: one per PE, capped by host cores."""
    return max(1, min(num_parts, os.cpu_count() or 1))


class SharedMemoryBackend(ExecutionBackend):
    """Per-PE products on a :class:`multiprocessing.pool.Pool`."""

    name = "shared-memory"

    def __init__(self, workers: Optional[int] = None) -> None:
        super().__init__()
        self._requested_workers = workers
        self._pool = None

    def setup(self, kernel: Kernel, matrices: Sequence[sp.spmatrix]) -> None:
        super().setup(kernel, matrices)
        self.matrices = list(matrices)
        self.workers = self._requested_workers or default_workers(
            len(matrices)
        )

    def _ensure_pool(self):
        if self._pool is None:
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
            self._pool = ctx.Pool(
                processes=self.workers,
                initializer=_init_worker,
                initargs=(self.kernel, self.matrices),
            )
        return self._pool

    def compute(self, x_locals: Sequence[np.ndarray]) -> List[np.ndarray]:
        count("repro_backend_compute_phases_total", backend=self.name)
        pool = self._ensure_pool()
        return pool.map(_apply_one, list(enumerate(x_locals)))

    def compute_one(self, pe: int, x: np.ndarray) -> np.ndarray:
        # Ship the single product to a worker: the recompute runs on
        # the same per-worker prepared states as the full phase, and
        # float64 pickling is exact, so the bits match `compute`.
        pool = self._ensure_pool()
        return pool.apply(_apply_one, ((pe, x),))

    def compute_timed(self, x_locals, clock):
        """Pooled compute with spans clocked in the worker processes.

        ``clock`` is ignored: a closure cannot be shipped to a process
        pool, so the workers read the same audited shim
        (:func:`repro.util.clock.now`) directly.  The products come off
        the identical ``pool.map`` path as :meth:`compute` (float64
        pickling is exact), so the results are bit-identical.
        """
        count("repro_backend_compute_phases_total", backend=self.name)
        pool = self._ensure_pool()
        results = pool.map(_apply_one_timed, list(enumerate(x_locals)))
        outs = [y for y, _, _ in results]
        windows = [(t_start, t_end) for _, t_start, t_end in results]
        return outs, windows

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
