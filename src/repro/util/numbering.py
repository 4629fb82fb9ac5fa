"""A PE's local node numbering through one reusable dense map.

A PE numbers its resident nodes by their position in its strictly
ascending ``local_nodes``.  ``np.searchsorted`` finds those positions
in O(k log n_local) per lookup; a dense map from global node id to
local position finds them in O(k).  One map per PE would take p times
the mesh's node count (about 1.3 GB at sf1e on 128 PEs), so there is
one per thread, all -1 between uses: :func:`local_numbering` writes a
PE's positions into it, hands out the lookup, and writes the -1s back,
both O(n_local).  A nested use in the same thread takes a fresh map.

The dense map would wrap a negative id and read an unsorted
``local_nodes`` wrongly without a word, so both are refused, with every
other input that has no local position: ids outside ``[0, num_nodes)``,
an id not among ``local_nodes``, and ``local_nodes`` out of that range
or not strictly ascending each raise ``ValueError`` with the caller's
message.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

_scratch = threading.local()


def _free_map(size: int) -> np.ndarray:
    """This thread's map, at least ``size`` long and all -1, taken by
    the caller (or a fresh one while the thread's own is taken).  Its
    entries are int32: a PE's positions stay below 2**31."""
    held = getattr(_scratch, "map", None)
    if held is None or held.size < size:
        held = np.full(size, -1, dtype=np.int32)
    _scratch.map = None
    return held


@contextmanager
def local_numbering(
    num_nodes: int, local_nodes: np.ndarray, error: str
) -> Iterator[Callable[[np.ndarray], np.ndarray]]:
    """``local(ids)``: the positions (int32, the shape of ``ids``) of
    global node ``ids`` in ``local_nodes``, a strictly ascending array
    of fewer than 2**31 ids in ``[0, num_nodes)``.

    ``ValueError(error)`` when ``local_nodes`` is not such an array (on
    entry) or an id is outside ``[0, num_nodes)`` or not among them (on
    lookup)."""
    nodes = np.asarray(local_nodes)
    if nodes.ndim != 1 or nodes.size >= 2**31 or (
        nodes.size
        and (
            nodes[0] < 0
            or nodes[-1] >= num_nodes
            or not np.all(nodes[1:] > nodes[:-1])
        )
    ):
        raise ValueError(error)
    dense = _free_map(num_nodes)
    dense[nodes] = np.arange(nodes.size, dtype=dense.dtype)

    def local(ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids)
        if ids.size and (ids.min() < 0 or ids.max() >= num_nodes):
            raise ValueError(error)
        positions = dense[ids]
        if positions.size and positions.min() < 0:
            raise ValueError(error)
        return positions

    try:
        yield local
    finally:
        dense[nodes] = -1
        _scratch.map = dense
