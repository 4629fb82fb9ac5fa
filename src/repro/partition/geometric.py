"""MTTV-style geometric sphere-cut partitioner.

This follows the recursive geometric bisection scheme of Miller, Teng,
Thurston, and Vavasis [12 in the paper] that Archimedes used:

1. stereographically project the element centroids onto the unit sphere
   in R^4;
2. compute an (approximate) centerpoint of the projected points;
3. conformally map the sphere so the centerpoint moves to the origin
   (rotate it onto the pole axis, then dilate);
4. cut with a random great circle — after the conformal map, a random
   great circle splits the points near-evenly and, for meshes of bounded
   aspect ratio, cuts O(n^{2/3}) shared nodes in expectation;
5. keep the best of several random circles.

Two departures from the letter of MTTV, both standard in practice: the
centerpoint is approximated by a geometric median (Weiszfeld iteration)
rather than computed exactly, and each candidate circle's cut plane is
slid along its normal to the exact balance point (MTTV instead
re-weights; sliding keeps subdomain sizes exactly equal, which the
paper's Figure 7 assumes).  The candidate that shares the fewest mesh
nodes across the cut wins.

Scoring rule: once per cut the sub-mesh's nodes are renumbered
``0..m-1`` and the corners incident on each are counted; a candidate's
cost is then one counting pass over its left side's corners, a node
being shared iff ``0 < left_count < total_count``.  Every candidate is
O(n) — a matrix-vector product, a selection (``split_by_order``) and
that count — with no sort or set operation.  The floating-point steps
(lift, centerpoint, conformal map, ``mapped @ normal``) keep a fixed
order of operations: partitions are pinned bit for bit by
``tests/golden/partitions.json``.

Five passes are compiled (``cut.c``, built on first use by
:mod:`repro.util.native`; :func:`cut_library`), each repeating numpy's
own order of float operations: the stereographic lift (in two halves,
around ``np.percentile``, which stays numpy), the conformal map, the
Weiszfeld centerpoint, the renumbering (:func:`_local_corners`) and the
count (:func:`_shared_nodes`).  The matrix-vector products stay in
numpy: ``lifted @ v`` before the conformal map and the candidates'
``mapped @ normal`` are BLAS calls, whose rounding belongs to the
library.  The three-column sums of squares that numpy's ``einsum``
rounds as ``(x0² + x2²) + x1²`` are spelled out in that order, in C
and in the numpy functions alike, so the pinned bits do not depend on
einsum's SIMD dispatch.  Without ``cffi`` or ``gcc``, or for an input
the passes do not take (another dtype or layout), the numpy functions
run, with the same bits.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Optional, Tuple

import numpy as np

from repro.mesh.core import TetMesh
from repro.partition.base import (
    Partition,
    Partitioner,
    recursive_bisection,
    register,
)
from repro.util.native import compiled

#: The compiled passes' C source, built by :mod:`repro.util.native`.
_CUT_SOURCE = Path(__file__).with_name("cut.c")
_CUT_CDEF = """
void cut_lift_center(int64_t n, const double *pts, double *center,
                     double *radii);
void cut_lift(int64_t n, const double *pts, const double *center,
              double scale, double *lifted);
void cut_conformal(int64_t n, const double *lifted, const double *proj,
                   double vnorm2, const double *v, double alpha,
                   double *back);
void cut_weiszfeld(int64_t n, const double *pts, int64_t iterations,
                   double *w, double *guess);
int64_t cut_number(int64_t n, const int64_t *tets, int64_t num_elements,
                   const int64_t *ids, int64_t num_nodes, int32_t *scratch);
void cut_corners(int64_t n, const int64_t *tets, const int64_t *ids,
                 const int32_t *scratch, int32_t *local, int64_t *totals);
int64_t cut_shared(int64_t n, const int32_t *local, const uint8_t *mask,
                   int64_t m, const int64_t *totals, int32_t *left);
"""


def cut_library() -> Optional[Tuple[Any, Any]]:
    """The compiled cut passes as ``(ffi, lib)``, built on first use;
    ``None`` when ``cffi`` or ``gcc`` is missing or the build or load
    fails — the partitioner then runs its numpy functions, with the
    same bits."""
    return compiled(_CUT_SOURCE, _CUT_CDEF)


def _is_c_array(
    a: np.ndarray, dtype: type, width: Optional[int] = None
) -> bool:
    """Whether ``a`` is a C-contiguous vector (``width`` None) or
    ``n x width`` table of ``dtype`` — what the compiled passes read."""
    tail = () if width is None else (width,)
    return (
        a.dtype == dtype
        and a.ndim == 1 + len(tail)
        and a.shape[1:] == tail
        and a.flags.c_contiguous
    )


def stereographic_lift(points: np.ndarray) -> np.ndarray:
    """Map R^3 points onto the unit sphere in R^4.

    Uses the inverse stereographic projection from the north pole after
    normalizing the input into the unit ball (centered on the centroid,
    scaled by the 90th percentile radius so outliers don't compress the
    bulk of the points near the origin).

    A C-contiguous ``n x 3`` input runs the compiled passes around
    numpy's percentile, any other the numpy function: the same bits.
    """
    pts = np.asarray(points, dtype=float)
    library = cut_library()
    if library is None or not _is_c_array(pts, np.float64, 3) or not len(pts):
        return _stereographic_lift_numpy(pts)
    ffi, lib = library
    buf = ffi.from_buffer
    pts_c = buf("double[]", pts)
    center, radii = np.empty(3), np.empty(len(pts))
    lib.cut_lift_center(
        len(pts), pts_c, buf("double[]", center), buf("double[]", radii)
    )
    lifted = np.empty((len(pts), 4))
    lib.cut_lift(
        len(pts), pts_c, buf("double[]", center), _lift_scale(radii),
        buf("double[]", lifted),
    )
    return lifted


def _lift_scale(radii: np.ndarray) -> float:
    """The lift's radius: the 90th percentile of ``radii``, or 1.0."""
    scale = np.percentile(radii, 90) if len(radii) else 1.0
    return 1.0 if scale <= 0 else float(scale)


def _squared_norms(x: np.ndarray) -> np.ndarray:
    """Row sums of squares of an ``n x 3`` table, in the order numpy's
    ``einsum("ij,ij->i", x, x)`` takes (``(x0² + x2²) + x1²``), spelled
    out so the bits do not depend on einsum's SIMD dispatch."""
    x0, x1, x2 = x[:, 0], x[:, 1], x[:, 2]
    return (x0 * x0 + x2 * x2) + x1 * x1


def _stereographic_lift_numpy(pts: np.ndarray) -> np.ndarray:
    """:func:`stereographic_lift` in numpy: the compiled passes' oracle."""
    center = pts.mean(axis=0)
    rel = pts - center
    radii = np.linalg.norm(rel, axis=1)
    x = rel / _lift_scale(radii)
    norm2 = _squared_norms(x)
    denom = norm2 + 1.0
    lifted = np.empty((len(pts), 4))
    lifted[:, :3] = 2.0 * x / denom[:, None]
    lifted[:, 3] = (norm2 - 1.0) / denom
    return lifted


def weiszfeld_median(points: np.ndarray, iterations: int = 12) -> np.ndarray:
    """Approximate geometric median (centerpoint surrogate).

    A C-contiguous ``n x 4`` input (the lifted points) runs the
    compiled pass, any other the numpy iteration: the same bits.
    """
    pts = np.asarray(points, dtype=float)
    library = cut_library()
    if library is None or not _is_c_array(pts, np.float64, 4) or not len(pts):
        return _weiszfeld_numpy(pts, iterations)
    ffi, lib = library
    buf = ffi.from_buffer
    guess = np.empty(4)
    lib.cut_weiszfeld(
        len(pts), buf("double[]", pts), iterations,
        buf("double[]", np.empty(len(pts))), buf("double[]", guess),
    )
    return guess


def _weiszfeld_numpy(pts: np.ndarray, iterations: int) -> np.ndarray:
    """:func:`weiszfeld_median` in numpy: the compiled pass's oracle."""
    guess = pts.mean(axis=0)
    for _ in range(iterations):
        diff = pts - guess
        dist = np.linalg.norm(diff, axis=1)
        dist = np.maximum(dist, 1e-12)
        w = 1.0 / dist
        guess = (pts * w[:, None]).sum(axis=0) / w.sum()
    return guess


def conformal_map_to_center(
    lifted: np.ndarray, centerpoint: np.ndarray
) -> np.ndarray:
    """Move ``centerpoint`` to the sphere's center by rotation + dilation.

    Rotates R^4 so the centerpoint sits on the +w axis at height ``r``,
    then applies the stereographic dilation with factor
    ``sqrt((1 - r) / (1 + r))``, which maps the centerpoint to the
    origin.  After this map, every great circle is a splitting circle
    through the centerpoint's image.

    A C-contiguous ``n x 4`` input runs the compiled pass after numpy's
    ``lifted @ v``, any other the numpy function: the same bits.
    """
    lifted = np.asarray(lifted, dtype=float)
    library = cut_library()
    if (
        library is None
        or not _is_c_array(lifted, np.float64, 4)
        or not len(lifted)
    ):
        return _conformal_map_numpy(lifted, centerpoint)
    params = _conformal_parameters(centerpoint)
    if params is None:
        return lifted
    v, vnorm2, alpha = params
    ffi, lib = library
    buf = ffi.from_buffer
    if v is None:
        proj_c = v_c = ffi.NULL
    else:
        proj = lifted @ v
        proj_c, v_c = buf("double[]", proj), buf("double[]", v)
    back = np.empty_like(lifted)
    lib.cut_conformal(
        len(lifted), buf("double[]", lifted), proj_c, vnorm2, v_c, alpha,
        buf("double[]", back),
    )
    return back


def _conformal_parameters(
    centerpoint: np.ndarray,
) -> Optional[Tuple[Optional[np.ndarray], float, float]]:
    """``(v, v @ v, alpha)`` of the map that moves ``centerpoint`` to the
    center: the Householder vector (``None`` when no rotation is needed)
    and the dilation factor.  ``None`` when the centerpoint already is
    the center."""
    c = np.asarray(centerpoint, dtype=float)
    r = float(np.linalg.norm(c))
    if r < 1e-12:
        return None
    r = min(r, 1.0 - 1e-9)
    axis = c / np.linalg.norm(c)
    target = np.array([0.0, 0.0, 0.0, 1.0])
    # Householder-style rotation taking `axis` to `target`.
    v = axis - target
    vnorm2 = v @ v
    alpha = np.sqrt((1.0 - r) / (1.0 + r))
    return (None if vnorm2 < 1e-24 else v), float(vnorm2), float(alpha)


def _conformal_map_numpy(
    lifted: np.ndarray, centerpoint: np.ndarray
) -> np.ndarray:
    """:func:`conformal_map_to_center` in numpy: the compiled pass's
    oracle."""
    params = _conformal_parameters(centerpoint)
    if params is None:
        return lifted
    v, vnorm2, alpha = params
    if v is None:
        rotated = lifted
    else:
        rotated = lifted - 2.0 * np.outer((lifted @ v) / vnorm2, v)
    # Dilation in stereographic coordinates from the north pole (+w).
    w = rotated[:, 3]
    xyz = rotated[:, :3]
    denom = np.maximum(1.0 - w, 1e-12)
    plane = xyz / denom[:, None]
    plane *= alpha
    norm2 = _squared_norms(plane)
    back = np.empty_like(rotated)
    back[:, :3] = 2.0 * plane / (norm2 + 1.0)[:, None]
    back[:, 3] = (norm2 - 1.0) / (norm2 + 1.0)
    return back


#: Coordinate-plane normals tried after the random circles: they
#: guarantee sane cuts even if the random draws are unlucky.
_AXIS_NORMALS = np.eye(3, 4)


def _candidate_normals(rng: np.random.Generator, candidates: int) -> list:
    """Unit normals of one cut's candidate circles, in scoring order."""
    units = []
    for normal in rng.normal(size=(candidates, 4)):
        # Row by row: the 1-D norm is a dot product, and the axis=1 form
        # rounds differently, which would move cuts by ulps.
        norm = np.linalg.norm(normal)
        if norm >= 1e-12:
            units.append(normal / norm)
    return units + list(_AXIS_NORMALS)


def _local_corners(
    tets: np.ndarray, ids: np.ndarray, scratch: np.ndarray
) -> tuple:
    """Compact node numbering of the sub-mesh ``tets[ids]``.

    Returns ``(local, totals)``: ``local`` is ``(len(ids), 4)`` int32
    with the sub-mesh's nodes renumbered ``0..m-1``, and ``totals[v]``
    counts the corners incident on local node ``v``.  ``scratch`` is an
    int32 table over all mesh nodes; only the entries of this
    sub-mesh's nodes are written and read, so it needs no clearing
    between cuts and the cost is O(len(ids)) with no sort or hash.
    The compiled pass takes int64 ``tets`` / ``ids`` (the mesh's own)
    and an int32 ``scratch``; both paths give the same arrays.
    """
    library = cut_library()
    if (
        library is not None
        and _is_c_array(tets, np.int64, 4)
        and _is_c_array(ids, np.int64)
        and _is_c_array(scratch, np.int32)
        and scratch.flags.writeable
        and len(ids)
    ):
        ffi, lib = library
        buf = ffi.from_buffer
        tets_c, ids_c = buf("int64_t[]", tets), buf("int64_t[]", ids)
        scratch_c = buf("int32_t[]", scratch)
        m = lib.cut_number(
            len(ids), tets_c, len(tets), ids_c, len(scratch), scratch_c
        )
        # -1: an id or a node out of range, which numpy's indexing raises.
        if m >= 0:
            local = np.empty((len(ids), 4), dtype=np.int32)
            totals = np.zeros(m, dtype=np.int64)
            lib.cut_corners(
                len(ids), tets_c, ids_c, scratch_c,
                buf("int32_t[]", local), buf("int64_t[]", totals),
            )
            return local, totals
    return _local_corners_numpy(tets, ids, scratch)


def _local_corners_numpy(
    tets: np.ndarray, ids: np.ndarray, scratch: np.ndarray
) -> tuple:
    """:func:`_local_corners` in numpy: the compiled pass's oracle."""
    corners = tets[ids].ravel()
    position = np.arange(len(corners), dtype=np.int32)
    # Each node keeps the position of one of its corners (whichever
    # write lands last); that corner is the node's representative.
    scratch[corners] = position
    representative = scratch[corners]
    is_representative = representative == position
    # Number the representatives 0..m-1 in position order, then hand
    # every corner its representative's number.  int32 rather than the
    # mesh's int64: this table is live beside ``mapped`` for the whole
    # candidate loop and sets the partitioner's peak memory.
    numbering = np.cumsum(is_representative, dtype=np.int32)
    numbering -= 1
    local = numbering[representative].reshape(-1, 4)
    totals = np.bincount(local.ravel(), minlength=int(numbering[-1]) + 1)
    return local, totals


def _shared_nodes(
    local: np.ndarray, totals: np.ndarray, left_mask: np.ndarray
) -> int:
    """Number of sub-mesh nodes touched by elements on both sides of a cut.

    One counting pass over the left side's corners: a node is shared iff
    the left side holds some but not all of the corners incident on it.
    The compiled pass takes :func:`_local_corners`' own arrays and a
    boolean mask; both paths give the same count.
    """
    library = cut_library()
    if (
        library is not None
        and _is_c_array(local, np.int32, 4)
        and _is_c_array(totals, np.int64)
        and _is_c_array(left_mask, np.bool_)
        and len(left_mask) == len(local)
    ):
        ffi, lib = library
        buf = ffi.from_buffer
        shared = lib.cut_shared(
            len(local), buf("int32_t[]", local), buf("uint8_t[]", left_mask),
            len(totals), buf("int64_t[]", totals),
            buf("int32_t[]", np.zeros(len(totals), dtype=np.int32)),
        )
        # -1: a label outside totals, which the numpy count raises on.
        if shared >= 0:
            return shared
    return _shared_nodes_numpy(local, totals, left_mask)


def _shared_nodes_numpy(
    local: np.ndarray, totals: np.ndarray, left_mask: np.ndarray
) -> int:
    """:func:`_shared_nodes` in numpy: the compiled pass's oracle."""
    left = np.bincount(local[left_mask].ravel(), minlength=len(totals))
    return int(np.count_nonzero((left > 0) & (left < totals)))


def _centered_on_sphere(points: np.ndarray) -> np.ndarray:
    """Lift ``points`` to the sphere and map their centerpoint to its center."""
    lifted = stereographic_lift(points)
    return conformal_map_to_center(lifted, weiszfeld_median(lifted))


@register
class GeometricBisection(Partitioner):
    """Recursive MTTV-style sphere-cut bisection.

    ``candidates`` random great circles are tried per cut (plus the
    three coordinate planes as safeguards); the cut sharing the fewest
    nodes wins.
    """

    name = "geometric"

    def __init__(self, candidates: int = 12) -> None:
        if candidates < 1:
            raise ValueError("need at least one candidate circle")
        self.candidates = candidates

    def partition(
        self, mesh: TetMesh, num_parts: int, seed: int = 0
    ) -> Partition:
        centroids = mesh.element_centroids
        tets = mesh.tets
        scratch = np.empty(mesh.num_nodes, dtype=np.int32)

        def bisect(mesh, ids, rng, target_left):
            mapped = _centered_on_sphere(centroids[ids])
            # Built after the conformal map, whose temporaries (the
            # centroid gather, the lift, the rotated copy) are gone by
            # now: allocated beside them, an int64 table raised the
            # sweep's peak RSS on sf5e by 6 %.
            local, totals = _local_corners(tets, ids, scratch)
            best_mask = None
            best_cost = None
            for unit in _candidate_normals(rng, self.candidates):
                mask = self.split_by_order(mapped @ unit, target_left)
                cost = _shared_nodes(local, totals, mask)
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best_mask = mask
            return best_mask

        parts = recursive_bisection(mesh, num_parts, bisect, seed=seed)
        return Partition(parts, num_parts, method=self.name)
