"""Vectorized mesh topology operations.

Everything here operates on raw ``(m, 4)`` element arrays so the
functions can be reused on subdomain element lists without building full
:class:`~repro.mesh.core.TetMesh` objects.

The node graph (:func:`node_graph`) links every two nodes that share an
element.  It is built once per mesh, as CSR, and the mesh's edges,
degrees, adjacency matrix and connectivity are all read off it.  The
pass is compiled: ``node_graph`` in ``repro/fem/assembly.c``, which
shares the counting-sort incidence and the stamp walk of the stiffness
pattern (whose node blocks are this graph plus the diagonal: n + 2E of
them).  When a node or element id does not fit in int32, a numpy sort
(:func:`_numpy_graph`, also the pass's oracle) gives the same graph.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.geometry.tetra import TET_EDGES, TET_FACES
from repro.util.keys import sorted_unique
from repro.util.native import native

#: The compiled pass holds node and element ids as int32 below this.
_INT32_LIMIT = 2**31


class NodeGraph(NamedTuple):
    """A node graph as CSR: node ``v``'s neighbours are
    ``nbr[ptr[v]:ptr[v + 1]]``, ascending, without ``v`` itself.

    ``ptr`` is int64 (num_nodes + 1); ``nbr`` is int32 (int64 only when
    a node id does not fit in int32).  Each edge appears twice, once
    from each end.
    """

    ptr: np.ndarray
    nbr: np.ndarray

    @property
    def num_nodes(self) -> int:
        return len(self.ptr) - 1

    def edges(self) -> np.ndarray:
        """The undirected edges ``(i, j)``, ``i < j``, lexicographic: the
        upper triangle, shape (E, 2), int64."""
        rows = np.repeat(np.arange(self.num_nodes), np.diff(self.ptr))
        upper = self.nbr > rows
        return np.stack([rows[upper], self.nbr[upper]], axis=1)

    def degrees(self) -> np.ndarray:
        """Each node's number of neighbours, int64."""
        return np.diff(self.ptr)

    def adjacency(self) -> sp.csr_matrix:
        """The symmetric int8 CSR adjacency matrix (no diagonal)."""
        n = self.num_nodes
        ones = np.ones(len(self.nbr), dtype=np.int8)
        return sp.csr_matrix((ones, self.nbr, self.ptr), shape=(n, n))

    def is_connected(self) -> bool:
        """Whether the graph has a single connected component."""
        if self.num_nodes <= 1:
            return True
        ncomp, _ = connected_components(self.adjacency(), directed=False)
        return int(ncomp) == 1


def _compiled_graph(tets: np.ndarray, n: int):
    """``(ptr, nbr, -1)`` through ``assembly.c``'s ``assembly_graph``
    (without self loops) and ``node_graph``; ``(None, None, k)`` for a
    first element ``k`` with a corner outside ``[0, n)``."""
    m = len(tets)
    inc_ptr = np.empty(n + 1, np.int64)
    inc = np.empty(4 * m, np.int32)
    ptr = np.empty(n + 1, np.int64)
    stamp = np.empty(n, np.int32)
    ffi, lib = native()
    buf = ffi.from_buffer
    corners = buf("int32_t[]", np.ascontiguousarray(tets, dtype=np.int32))
    incidence = (buf("int64_t[]", inc_ptr), buf("int32_t[]", inc))
    scratch = buf("int32_t[]", stamp)
    bad = lib.assembly_graph(
        n, m, corners, 0, *incidence, buf("int64_t[]", ptr), scratch
    )
    if bad >= 0:
        return None, None, bad
    nbr = np.empty(ptr[n], np.int32)
    lib.node_graph(
        n,
        corners,
        *incidence,
        scratch,
        buf("int64_t[]", ptr),
        buf("int32_t[]", nbr),
    )
    return ptr, nbr, -1


def _numpy_graph(tets: np.ndarray, n: int):
    """The same graph by a sort: every element's corner pairs but self
    loops, in both directions, as ``row * n + col`` keys, sorted, with
    repeats dropped (:func:`~repro.util.keys.sorted_unique`)."""
    outside = np.flatnonzero(((tets < 0) | (tets >= n)).any(axis=1))
    if len(outside):
        return None, None, int(outside[0])
    pairs = tets[:, TET_EDGES].reshape(-1, 2)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    row = np.concatenate([pairs[:, 0], pairs[:, 1]])
    col = np.concatenate([pairs[:, 1], pairs[:, 0]])
    row, col = np.divmod(sorted_unique(row * n + col), n)
    ptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(row, minlength=n), out=ptr[1:])
    nbr = col.astype(np.int32 if n <= _INT32_LIMIT else np.int64)
    return ptr, nbr, -1


def node_graph(tets: np.ndarray, num_nodes: int) -> NodeGraph:
    """The node graph of the elements ``tets`` over ``num_nodes`` nodes:
    two nodes are neighbours when they are corners of one element.

    A repeated corner is no self loop, and a node of no element has no
    neighbours.  Raises ``ValueError`` naming the first element with a
    corner outside ``[0, num_nodes)``.
    """
    tets = np.asarray(tets, dtype=np.int64)
    if tets.ndim != 2 or tets.shape[1] != 4:
        raise ValueError("tets must have shape (num_elements, 4)")
    n = int(num_nodes)
    fits = max(n, len(tets)) < _INT32_LIMIT and (
        tets.size == 0
        or (tets.min() >= -_INT32_LIMIT and tets.max() < _INT32_LIMIT)
    )
    if fits:
        ptr, nbr, bad = _compiled_graph(tets, n)
    else:
        ptr, nbr, bad = _numpy_graph(tets, n)
    if bad >= 0:
        raise ValueError(f"element {bad}: corner outside the node numbering")
    return NodeGraph(ptr, nbr)


def element_adjacency(tets: np.ndarray) -> sp.csr_matrix:
    """Element-to-element adjacency through shared faces.

    Two elements are adjacent when they share a triangular face.
    :func:`repro.partition.metrics.partition_metrics` counts cut faces
    with it.
    """
    tets = np.asarray(tets, dtype=np.int64)
    m = tets.shape[0]
    if m == 0:
        return sp.csr_matrix((0, 0), dtype=np.int8)
    faces = np.sort(tets[:, TET_FACES], axis=2).reshape(-1, 3)
    owner = np.repeat(np.arange(m, dtype=np.int64), 4)
    order = np.lexsort((faces[:, 2], faces[:, 1], faces[:, 0]))
    faces = faces[order]
    owner = owner[order]
    same = np.all(faces[1:] == faces[:-1], axis=1)
    a = owner[:-1][same]
    b = owner[1:][same]
    rows = np.concatenate([a, b])
    cols = np.concatenate([b, a])
    data = np.ones(len(rows), dtype=np.int8)
    return sp.csr_matrix((data, (rows, cols)), shape=(m, m))


def surface_faces(tets: np.ndarray) -> np.ndarray:
    """Triangles appearing in exactly one element (the mesh boundary)."""
    tets = np.asarray(tets, dtype=np.int64)
    if tets.shape[0] == 0:
        return np.empty((0, 3), dtype=np.int64)
    faces = np.sort(tets[:, TET_FACES], axis=2).reshape(-1, 3)
    order = np.lexsort((faces[:, 2], faces[:, 1], faces[:, 0]))
    faces = faces[order]
    first = np.ones(len(faces), dtype=bool)
    first[1:] = np.any(faces[1:] != faces[:-1], axis=1)
    # Run length of each distinct face.
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, len(faces)))
    return faces[starts[counts == 1]]

