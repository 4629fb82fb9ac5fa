"""Distinct integer keys by a sort and a neighbour compare.

``np.unique`` on an integer array hashes (numpy 2.x), which on the key
arrays of this package (node pairs, ``node * p + part`` residencies,
octree cells) is several times slower than sorting them.  On a 2-vCPU
host with numpy 2.4.6: 200k random int64 keys take 64 ms hashed and
2.2 ms sorted, sf5e's 691k residency keys at p = 64 31 ms and 7.6 ms.
Both give the same ascending array.
"""

from __future__ import annotations

import numpy as np


def run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Positions of the first entry of every run of equal values in the
    ascending 1-D array ``sorted_keys`` (``np.unique``'s
    ``return_index`` for an array already sorted)."""
    first = np.empty(len(sorted_keys), dtype=bool)
    first[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return np.flatnonzero(first)


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The distinct values of the integer array ``keys`` (flattened),
    ascending: ``np.unique(keys)``, by a sort."""
    keys = np.sort(keys, axis=None)
    return keys[run_starts(keys)]
