"""The threaded backend: contiguous PE ranges on a thread pool.

The phase is cut into one contiguous range of PEs per worker, balanced
by the PEs' work (their local nonzeros), and each range runs as one
call — for ``csr``'s packed states one compiled call, which releases
the GIL for its whole range — so on a multi-core host the ranges
genuinely overlap.  That is the "task mode" of hybrid MPI+OpenMP SMVP
decompositions: one task per worker over a range of subdomains, never
one task per subdomain.  Each PE's product is the same code on the
same data as the serial backend, and results are collected in PE
order, so the output is bit-identical to ``serial`` regardless of
scheduling.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, wait
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.smvp.backends.base import ExecutionBackend
from repro.util import cores


def default_workers(num_parts: int) -> int:
    """Worker count: one per PE, capped by the cores this process may
    use (:func:`repro.util.cores.usable_cores`; min 2 so the concurrent
    path is exercised even on one-core hosts)."""
    return max(2, min(num_parts, cores.usable_cores()))


def balanced_ranges(costs: Sequence[int], parts: int) -> List[Tuple[int, int]]:
    """At most ``parts`` non-empty contiguous ranges tiling ``[0,
    len(costs))``: range k ends at the first PE whose running cost
    reaches k/parts of the total (equal PE counts when every cost is
    zero)."""
    count = len(costs)
    cum = np.cumsum(costs, dtype=np.float64)
    if count == 0 or cum[-1] <= 0:
        cum = np.arange(1, count + 1, dtype=np.float64)
    share = cum[-1] * np.arange(1, parts) / parts if count else []
    ends = np.searchsorted(cum, share, side="left") + 1
    bounds = np.unique(np.concatenate(([0], np.minimum(ends, count), [count])))
    return [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]


class ThreadedBackend(ExecutionBackend):
    """One contiguous PE range per worker: the first in the calling
    thread, the others on a :class:`ThreadPoolExecutor`."""

    name = "threaded"

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = workers
        self._pool: Optional[ThreadPoolExecutor] = None
        self._cut: Tuple[Optional[Sequence[int]], list] = (None, [])

    def map(self, fn, costs):
        if self._pool is None:  # sized by the first phase's PE count
            self._size = self.workers or default_workers(len(costs))
            self._pool = ThreadPoolExecutor(
                max_workers=self._size, thread_name_prefix="repro-smvp"
            )
        seen, ranges = self._cut
        if seen is not costs:  # an executor passes the same costs each phase
            ranges = balanced_ranges(costs, self._size)
            self._cut = (costs, ranges)
        if not ranges:
            return []
        futures = [self._pool.submit(fn, lo, hi) for lo, hi in ranges[1:]]
        try:
            head = fn(*ranges[0])
        finally:
            wait(futures)  # no range may outlive the phase
        return head + [y for future in futures for y in future.result()]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
