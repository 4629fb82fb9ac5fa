"""Vectorized measures of tetrahedra.

Every function takes the mesh representation used throughout this project:
``points`` is an ``(n, 3)`` float array of node coordinates and ``tets`` is
an ``(m, 4)`` integer array of node indices, one row per tetrahedron.
All functions are fully vectorized over the ``m`` tetrahedra, which is what
makes meshes with millions of elements practical in Python.

The quality measures (radius ratio, aspect ratio) are the standard ones
used by Delaunay refinement literature (Shewchuk's thesis, cited by the
paper as the origin of the Quake meshes): a regular tetrahedron has radius
ratio 1.0 and degenerate slivers approach 0.0.

The two measures on the set-up path, :func:`tet_signed_volumes` (the
mesher's orientation and jitter decisions, ``TetMesh.validate`` and
``volumes()``) and :func:`tet_centroids` (``TetMesh.element_centroids``:
material sampling and the partitioners), gather no (m, 4, 3) corner
array: each is one compiled pass in ``repro/fem/assembly.c``
(``element_signed_volumes``, ``element_centroids``) that reads corners
through the element's node ids, in the float order numpy's ``einsum`` /
``mean`` took over such a gather, accumulators starting at +0.0, so the
bits are numpy's.  Numpy spells out the same order one (m, 3) corner
column at a time (:func:`_numpy_signed_volumes`,
:func:`_numpy_centroids`): the passes' specification and the tests'
oracle.  A corner outside the node numbering is a ``ValueError``
naming the first such element.  The quality measures (edges, radii)
still gather; they run for reports, not for set-up.
"""

from __future__ import annotations

import numpy as np

from repro.util.native import native

#: The six (corner, corner) index pairs forming the edges of a tetrahedron.
TET_EDGES = np.array(
    [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], dtype=np.int64
)

#: The four faces of a tetrahedron, each opposite the omitted corner,
#: oriented so their normals point outward for a positively oriented tet.
TET_FACES = np.array(
    [(1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1)], dtype=np.int64
)


def _corner_coords(points: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Gather corner coordinates into an (m, 4, 3) array (the quality
    measures; volumes and centroids read corners without it)."""
    points = np.asarray(points, dtype=float)
    tets = np.asarray(tets, dtype=np.int64)
    if tets.ndim != 2 or tets.shape[1] != 4:
        raise ValueError("tets must have shape (m, 4)")
    return points[tets]


def _operands(points: np.ndarray, tets: np.ndarray):
    """``points`` as contiguous (n, 3) float64 and ``tets`` as
    contiguous (m, 4) int64, checked."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    tets = np.ascontiguousarray(tets, dtype=np.int64)
    if tets.ndim != 2 or tets.shape[1] != 4:
        raise ValueError("tets must have shape (m, 4)")
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError("points must have shape (n, 3)")
    return points, tets


def _first_outside(tets: np.ndarray, num_nodes: int) -> int:
    """The first row of ``tets`` with a corner outside
    ``[0, num_nodes)``, or -1."""
    if tets.size == 0 or (tets.min() >= 0 and tets.max() < num_nodes):
        return -1
    outside = ((tets < 0) | (tets >= num_nodes)).any(axis=1)
    return int(np.flatnonzero(outside)[0])


@np.errstate(invalid="ignore", over="ignore")
def _numpy_signed_volumes(points: np.ndarray, tets: np.ndarray):
    """``element_signed_volumes`` over numpy arrays, one (m, 3) corner
    column at a time: ``(volumes or None, first refused row or -1)``."""
    bad = _first_outside(tets, len(points))
    if bad >= 0:
        return None, bad
    p0 = points[tets[:, 0]]
    a, b, c = (points[tets[:, k]] - p0 for k in (1, 2, 3))
    x0 = b[:, 1] * c[:, 2] - b[:, 2] * c[:, 1]
    x1 = b[:, 2] * c[:, 0] - b[:, 0] * c[:, 2]
    x2 = b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0]
    total = (0.0 + a[:, 0] * x0) + a[:, 2] * x2
    return (total + a[:, 1] * x1) / 6.0, -1


@np.errstate(invalid="ignore", over="ignore")
def _numpy_centroids(points: np.ndarray, tets: np.ndarray):
    """``element_centroids`` over numpy arrays: ``(centroids or None,
    first refused row or -1)``."""
    bad = _first_outside(tets, len(points))
    if bad >= 0:
        return None, bad
    out = 0.0 + points[tets[:, 0]]
    for k in (1, 2, 3):
        out += points[tets[:, k]]
    out /= 4.0
    return out, -1


def _per_element(entry: str, points, tets, width: int):
    """One value (``width`` 0) or row per element of ``tets`` by the
    compiled ``entry``; a corner outside the node numbering raises
    ``ValueError`` naming the first such element."""
    points, tets = _operands(points, tets)
    ffi, lib = native()
    out = np.empty((len(tets), width) if width else len(tets))
    buf = ffi.from_buffer
    bad = getattr(lib, entry)(
        len(tets),
        buf("int64_t[]", tets),
        len(points),
        buf("double[]", points),
        buf("double[]", out),
    )
    if bad >= 0:
        raise ValueError(f"element {bad}: corner outside the node numbering")
    return out


def tet_signed_volumes(points: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Signed volume of each tet (positive for right-handed orientation).

    ``(((0 + a_x x_x) + a_z x_z) + a_y x_y) / 6`` with ``a, b, c =
    p1 - p0, p2 - p0, p3 - p0`` and ``x = b x c``: the bits of numpy's
    ``einsum("ij,ij->i", a, np.cross(b, c)) / 6``.  Raises
    ``ValueError`` naming the first element with a corner outside the
    node numbering.
    """
    return _per_element("element_signed_volumes", points, tets, 0)


def tet_volumes(points: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Absolute volume of each tet."""
    return np.abs(tet_signed_volumes(points, tets))


def tet_centroids(points: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Centroid (mean of the four corners) of each tet, shape (m, 3).

    ``((((0 + p0) + p1) + p2) + p3) / 4``: the bits of
    ``points[tets].mean(axis=1)``.  Raises ``ValueError`` naming the
    first element with a corner outside the node numbering.
    """
    return _per_element("element_centroids", points, tets, 3)


def tet_edge_lengths(points: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Lengths of the six edges of each tet, shape (m, 6).

    Edge ordering follows :data:`TET_EDGES`.
    """
    p = _corner_coords(points, tets)
    diffs = p[:, TET_EDGES[:, 0], :] - p[:, TET_EDGES[:, 1], :]
    return np.linalg.norm(diffs, axis=2)


def tet_longest_edges(points: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Longest edge of each tet."""
    return tet_edge_lengths(points, tets).max(axis=1)


def tet_shortest_edges(points: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Shortest edge of each tet."""
    return tet_edge_lengths(points, tets).min(axis=1)


def _face_areas(p: np.ndarray) -> np.ndarray:
    """Areas of the four faces of each tet, shape (m, 4), from the
    (m, 4, 3) corner array ``p``, one face at a time."""
    areas = np.empty(p.shape[:2])
    for face, (a, b, c) in enumerate(TET_FACES):
        u = p[:, b] - p[:, a]
        v = p[:, c] - p[:, a]
        areas[:, face] = np.linalg.norm(np.cross(u, v), axis=1) / 2.0
    return areas


def _inradii(p: np.ndarray, volumes: np.ndarray) -> np.ndarray:
    """:func:`tet_inradii` from the corner array and the volumes."""
    area = _face_areas(p).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(area > 0, 3.0 * volumes / area, 0.0)
    return r


def tet_inradii(points: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Inscribed-sphere radius: ``3 V / (sum of face areas)``.

    Degenerate tets (zero surface) return 0.
    """
    return _inradii(_corner_coords(points, tets), tet_volumes(points, tets))


def tet_circumradii(points: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Circumscribed-sphere radius of each tet.

    Uses the formula ``R = |alpha| / (12 V)`` where ``alpha`` is a
    Cayley-Menger-style determinant expression; implemented via the
    standard construction ``R = |a|^2 (b x c) + |b|^2 (c x a) + |c|^2 (a x b)|
    / (12 V)`` with a, b, c the edge vectors from corner 0.  Degenerate
    tets return ``inf``.
    """
    return _circumradii(_corner_coords(points, tets))


def _circumradii(p: np.ndarray) -> np.ndarray:
    """:func:`tet_circumradii` from the (m, 4, 3) corner array."""
    a = p[:, 1] - p[:, 0]
    b = p[:, 2] - p[:, 0]
    c = p[:, 3] - p[:, 0]
    la = np.einsum("ij,ij->i", a, a)
    lb = np.einsum("ij,ij->i", b, b)
    lc = np.einsum("ij,ij->i", c, c)
    num = (
        la[:, None] * np.cross(b, c)
        + lb[:, None] * np.cross(c, a)
        + lc[:, None] * np.cross(a, b)
    )
    vol6 = np.abs(np.einsum("ij,ij->i", a, np.cross(b, c)))
    # A near-flat tet's radius can overflow to inf: the degenerate value.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = np.where(
            vol6 > 0, np.linalg.norm(num, axis=1) / (2.0 * vol6), np.inf
        )
    return r


def tet_quality_radius_ratio(
    points: np.ndarray, tets: np.ndarray
) -> np.ndarray:
    """Normalized radius ratio ``3 r_in / R_circ`` in [0, 1].

    Equals 1 for a regular tetrahedron and tends to 0 for slivers; this is
    the measure mesh-quality statistics report.  One corner gather serves
    both radii.
    """
    p = _corner_coords(points, tets)
    rin = _inradii(p, tet_volumes(points, tets))
    rcirc = _circumradii(p)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(np.isfinite(rcirc) & (rcirc > 0), 3.0 * rin / rcirc, 0.0)
    return np.clip(q, 0.0, 1.0)


def tet_aspect_ratios(points: np.ndarray, tets: np.ndarray) -> np.ndarray:
    """Longest edge divided by inradius (lower is better; regular ~4.9).

    Degenerate tets return ``inf``.
    """
    longest = tet_longest_edges(points, tets)
    rin = tet_inradii(points, tets)
    with np.errstate(divide="ignore", invalid="ignore"):
        ar = np.where(rin > 0, longest / rin, np.inf)
    return ar
