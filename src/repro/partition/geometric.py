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

Scoring: a candidate's left side is ``split_by_order``'s (the
``target_left`` smallest projections, ties by index, NaN last) and its
cost is the number of sub-mesh nodes with corners on both sides.  The
candidate sharing the fewest nodes wins, the first of equals.

One compiled call per cut (``cut.c``'s ``cut_bisect``, built on first
use by :mod:`repro.util.native`; :func:`cut_library`) runs the whole
cut: it reads the centroids through the cut's ids, lifts them (the 90th
percentile by selection, in numpy's interpolation), finds the
centerpoint, maps it to the center, and scores every candidate in one
pass over the corners, one flag bit per candidate.  Its buffers are
sized for the root cut once per :meth:`GeometricBisection.partition`
and reused by every cut.  No float step calls BLAS: the 4-long dot
products take the order OpenBLAS's ``ddot`` takes (one chain of fused
multiply-adds) and the ``n x 4`` products the order of its ``gemv``
(``(l0 u0 + l2 u2) + (l1 u1 + l3 u3)``), spelled out in C and in the
numpy functions alike, so partitions are pinned bit for bit by
``tests/golden/partitions.json`` on any BLAS.  Without ``cffi`` or
``gcc``, or for an input the call does not take (another dtype or
layout), the numpy functions run the same cut, one candidate at a time,
with the same bits; they are the compiled call's oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
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

#: The compiled cut's C source, built by :mod:`repro.util.native`.
_CUT_SOURCE = Path(__file__).with_name("cut.c")
_CUT_CDEF = """
void cut_lift(int64_t n, const double *pts, double *radii, double *lifted);
void cut_weiszfeld(int64_t n, const double *pts, int64_t iterations,
                   double *w, double *guess);
int cut_conformal(int64_t n, const double *lifted, const double *center,
                  double *back);
int64_t cut_score(int64_t n, const double *mapped, const int64_t *tets,
                  int64_t num_elements, const int64_t *ids, int64_t num_nodes,
                  int64_t target_left, int64_t num_draws, const double *draws,
                  double *units, double *work, uint64_t *flags, uint64_t *acc,
                  int64_t *nodes, uint8_t *mask);
int64_t cut_bisect(int64_t n, const double *centroids, const int64_t *tets,
                   int64_t num_elements, const int64_t *ids, int64_t num_nodes,
                   int64_t target_left, int64_t iterations, int64_t num_draws,
                   const double *draws, double *mapped, double *units,
                   double *work, uint64_t *flags, uint64_t *acc,
                   int64_t *nodes, uint8_t *mask);
"""

#: Weiszfeld steps per centerpoint.
_ITERATIONS = 12


def cut_library() -> Optional[Tuple[Any, Any]]:
    """The compiled cut as ``(ffi, lib)``, built on first use; ``None``
    when ``cffi`` or ``gcc`` is missing or the build or load fails — the
    partitioner then runs its numpy functions, with the same bits."""
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


# -- The owned orders --------------------------------------------------


def _dot4(table: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``table @ u`` for an ``n x 4`` table, in the order OpenBLAS's
    ``gemv`` takes for ``n >= 2``: ``(t0 u0 + t2 u2) + (t1 u1 + t3 u3)``."""
    t0, t1, t2, t3 = table[:, 0], table[:, 1], table[:, 2], table[:, 3]
    return (t0 * u[0] + t2 * u[2]) + (t1 * u[1] + t3 * u[3])


def _fused_sumsq(x: np.ndarray) -> float:
    """``x @ x`` of a 4-vector in the order OpenBLAS's ``ddot`` takes:
    ``fma(x3, x3, fma(x2, x2, fma(x1, x1, x0 x0)))``, each fused step
    rounded once by exact rational arithmetic."""
    x0, *rest = (float(v) for v in x)
    total = x0 * x0
    for v in rest:
        if math.isfinite(v) and math.isfinite(total):
            try:
                total = float(Fraction(v) * Fraction(v) + Fraction(total))
            except OverflowError:
                total = math.inf
        else:
            # An infinite or NaN step rounds nothing.
            total = v * v + total
    return total


def _squared_norms(x: np.ndarray) -> np.ndarray:
    """Row sums of squares of an ``n x 3`` table as ``(x0² + x2²) +
    x1²``, the order numpy's ``einsum("ij,ij->i", x, x)`` took."""
    x0, x1, x2 = x[:, 0], x[:, 1], x[:, 2]
    return (x0 * x0 + x2 * x2) + x1 * x1


# -- The passes ---------------------------------------------------------


def stereographic_lift(points: np.ndarray) -> np.ndarray:
    """Map R^3 points onto the unit sphere in R^4.

    Uses the inverse stereographic projection from the north pole after
    normalizing the input into the unit ball (centered on the centroid,
    scaled by the 90th percentile radius so outliers don't compress the
    bulk of the points near the origin).

    A C-contiguous ``n x 3`` input runs the compiled pass, any other the
    numpy function: the same bits.
    """
    pts = np.asarray(points, dtype=float)
    library = cut_library()
    if library is None or not _is_c_array(pts, np.float64, 3) or not len(pts):
        return _stereographic_lift_numpy(pts)
    ffi, lib = library
    buf = ffi.from_buffer
    lifted = np.empty((len(pts), 4))
    lib.cut_lift(
        len(pts), buf("double[]", pts), buf("double[]", np.empty(len(pts))),
        buf("double[]", lifted),
    )
    return lifted


def _stereographic_lift_numpy(pts: np.ndarray) -> np.ndarray:
    """:func:`stereographic_lift` in numpy: the compiled pass's oracle."""
    center = pts.mean(axis=0)
    rel = pts - center
    d0, d1, d2 = rel[:, 0], rel[:, 1], rel[:, 2]
    radii = np.sqrt((d0 * d0 + d1 * d1) + d2 * d2)
    scale = np.percentile(radii, 90) if len(radii) else 1.0
    x = rel / (1.0 if scale <= 0 else float(scale))
    norm2 = _squared_norms(x)
    denom = norm2 + 1.0
    lifted = np.empty((len(pts), 4))
    lifted[:, :3] = 2.0 * x / denom[:, None]
    lifted[:, 3] = (norm2 - 1.0) / denom
    return lifted


def weiszfeld_median(
    points: np.ndarray, iterations: int = _ITERATIONS
) -> np.ndarray:
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
        d = pts - guess
        d0, d1, d2, d3 = d[:, 0], d[:, 1], d[:, 2], d[:, 3]
        dist = np.sqrt(((d0 * d0 + d1 * d1) + d2 * d2) + d3 * d3)
        w = 1.0 / np.maximum(dist, 1e-12)
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
    through the centerpoint's image.  Returns ``lifted`` itself when the
    centerpoint already is the center.

    A C-contiguous ``n x 4`` input runs the compiled pass, any other the
    numpy function: the same bits.
    """
    lifted = np.asarray(lifted, dtype=float)
    center = np.ascontiguousarray(centerpoint, dtype=np.float64)
    library = cut_library()
    if (
        library is None
        or not _is_c_array(lifted, np.float64, 4)
        or center.shape != (4,)
        or not len(lifted)
    ):
        return _conformal_map_numpy(lifted, center)
    ffi, lib = library
    buf = ffi.from_buffer
    back = np.empty_like(lifted)
    mapped = lib.cut_conformal(
        len(lifted), buf("double[]", lifted), buf("double[]", center),
        buf("double[]", back),
    )
    return back if mapped else lifted


def _conformal_parameters(
    centerpoint: np.ndarray,
) -> Optional[Tuple[Optional[np.ndarray], float, float]]:
    """``(v, v @ v, alpha)`` of the map that moves ``centerpoint`` to the
    center: the Householder vector (``None`` when no rotation is needed)
    and the dilation factor.  ``None`` when the centerpoint already is
    the center."""
    c = np.asarray(centerpoint, dtype=float)
    norm = math.sqrt(_fused_sumsq(c))
    if norm < 1e-12:
        return None
    r = min(norm, 1.0 - 1e-9)
    # Householder-style rotation taking c / |c| to the +w axis.
    v = c / norm - np.array([0.0, 0.0, 0.0, 1.0])
    vnorm2 = _fused_sumsq(v)
    alpha = math.sqrt((1.0 - r) / (1.0 + r))
    return (None if vnorm2 < 1e-24 else v), vnorm2, alpha


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
        rotated = lifted - 2.0 * np.outer(_dot4(lifted, v) / vnorm2, v)
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


def _candidate_normals(draws: np.ndarray) -> list:
    """Unit normals of one cut's candidate circles, in scoring order:
    every draw whose norm is at least 1e-12, then the three axes."""
    units = []
    for normal in draws:
        norm = math.sqrt(_fused_sumsq(normal))
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
    sub-mesh's nodes are written and read, so it needs no clearing.
    """
    corners = tets[ids].ravel()
    position = np.arange(len(corners), dtype=np.int32)
    # Each node keeps the position of one of its corners (whichever
    # write lands last); that corner is the node's representative.
    scratch[corners] = position
    representative = scratch[corners]
    is_representative = representative == position
    # Number the representatives 0..m-1 in position order, then hand
    # every corner its representative's number.
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
    """
    left = np.bincount(local[left_mask].ravel(), minlength=len(totals))
    return int(np.count_nonzero((left > 0) & (left < totals)))


# -- The cut ------------------------------------------------------------


class _Workspace:
    """The compiled cut's buffers for cuts of up to ``size`` elements of
    a mesh of ``num_nodes`` nodes: allocated once, reused by every cut.

    Separate arrays, not one block: freed, a single block stays on
    glibc's heap, which raised the quake workload's later peak RSS.
    """

    def __init__(self, size: int, num_nodes: int) -> None:
        self.size = size
        self.num_nodes = num_nodes
        self.mapped = np.empty((size, 4))
        self.work = np.empty(3 * size)
        self.flags = np.empty(size, dtype=np.uint64)
        # Each node's OR and AND of its corners' flag words, which every
        # cut leaves as it found them.
        self.acc = np.zeros(2 * num_nodes, dtype=np.uint64)
        self.acc[1::2] = ~np.uint64(0)
        self.nodes = np.empty(num_nodes + 1, dtype=np.int64)

    def fits(self, size: int, num_nodes: int) -> bool:
        return size <= self.size and num_nodes <= self.num_nodes


def _compiled_operands(
    tets: np.ndarray,
    ids: np.ndarray,
    draws: np.ndarray,
    target_left: int,
    table: np.ndarray,
    width: int,
    rows: int,
) -> bool:
    """Whether the compiled cut takes these operands: C-contiguous int64
    ``tets`` (``m x 4``) and ``ids`` (at least one), float64 ``draws``
    (``k x 4``) and ``table`` (``rows x width``), and ``target_left``
    in ``[0, len(ids)]`` (the numpy cut raises for any other)."""
    return (
        _is_c_array(tets, np.int64, 4)
        and _is_c_array(ids, np.int64)
        and 0 <= target_left <= len(ids)
        and len(ids) > 0
        and _is_c_array(draws, np.float64, 4)
        and _is_c_array(table, np.float64, width)
        and len(table) == rows
    )


def _cut(
    centroids: np.ndarray,
    tets: np.ndarray,
    num_nodes: int,
    ids: np.ndarray,
    draws: np.ndarray,
    target_left: int,
    workspace: Optional[_Workspace] = None,
) -> Tuple[int, np.ndarray]:
    """One cut of the elements ``ids``: ``(winner, left mask)``, the
    index of the winning candidate among :func:`_candidate_normals`
    ``(draws)`` and its ``target_left`` elements.

    The compiled call when it builds and takes the arrays, with
    ``workspace`` (a fresh one when it is ``None`` or too small), the
    numpy cut otherwise: the same winner and mask.
    """
    draws = np.ascontiguousarray(draws, dtype=np.float64)
    library = cut_library()
    if library is not None and _compiled_operands(
        tets, ids, draws, target_left, centroids, 3, len(tets)
    ):
        if workspace is None or not workspace.fits(len(ids), num_nodes):
            workspace = _Workspace(len(ids), num_nodes)
        ffi, lib = library
        buf = ffi.from_buffer
        mask = np.empty(len(ids), dtype=bool)
        winner = lib.cut_bisect(
            len(ids), buf("double[]", centroids), buf("int64_t[]", tets),
            len(tets), buf("int64_t[]", ids), num_nodes, target_left,
            _ITERATIONS, len(draws), buf("double[]", draws),
            buf("double[]", workspace.mapped),
            buf("double[]", np.empty(4 * (len(draws) + 3))),
            buf("double[]", workspace.work),
            buf("uint64_t[]", workspace.flags),
            buf("uint64_t[]", workspace.acc),
            buf("int64_t[]", workspace.nodes), buf("uint8_t[]", mask),
        )
        # -1: an id or a corner out of range, which numpy's indexing raises.
        if winner >= 0:
            return winner, mask
    lifted = _stereographic_lift_numpy(centroids[ids])
    mapped = _conformal_map_numpy(lifted, _weiszfeld_numpy(lifted, _ITERATIONS))
    return _score_numpy(mapped, tets, num_nodes, ids, draws, target_left)


def _score(
    mapped: np.ndarray,
    tets: np.ndarray,
    num_nodes: int,
    ids: np.ndarray,
    draws: np.ndarray,
    target_left: int,
) -> Tuple[int, np.ndarray]:
    """The scoring of :func:`_cut` on its own, on the conformally mapped
    centroids ``mapped``: compiled when it builds and takes the arrays,
    numpy otherwise, the same ``(winner, left mask)``."""
    draws = np.ascontiguousarray(draws, dtype=np.float64)
    library = cut_library()
    if library is not None and _compiled_operands(
        tets, ids, draws, target_left, mapped, 4, len(ids)
    ):
        ffi, lib = library
        buf = ffi.from_buffer
        space = _Workspace(len(ids), num_nodes)
        mask = np.empty(len(ids), dtype=bool)
        winner = lib.cut_score(
            len(ids), buf("double[]", mapped), buf("int64_t[]", tets),
            len(tets), buf("int64_t[]", ids), num_nodes, target_left,
            len(draws), buf("double[]", draws),
            buf("double[]", np.empty(4 * (len(draws) + 3))),
            buf("double[]", space.work), buf("uint64_t[]", space.flags),
            buf("uint64_t[]", space.acc), buf("int64_t[]", space.nodes),
            buf("uint8_t[]", mask),
        )
        if winner >= 0:
            return winner, mask
    return _score_numpy(mapped, tets, num_nodes, ids, draws, target_left)


def _score_numpy(
    mapped: np.ndarray,
    tets: np.ndarray,
    num_nodes: int,
    ids: np.ndarray,
    draws: np.ndarray,
    target_left: int,
) -> Tuple[int, np.ndarray]:
    """:func:`_score` in numpy, one candidate at a time: the compiled
    call's oracle."""
    local, totals = _local_corners(
        tets, ids, np.empty(num_nodes, dtype=np.int32)
    )
    winner, best_mask, best_cost = -1, None, None
    for index, unit in enumerate(_candidate_normals(draws)):
        mask = Partitioner.split_by_order(_dot4(mapped, unit), target_left)
        cost = _shared_nodes(local, totals, mask)
        if best_cost is None or cost < best_cost:
            winner, best_mask, best_cost = index, mask, cost
    return winner, best_mask


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
        workspace = None
        if cut_library() is not None:
            workspace = _Workspace(mesh.num_elements, mesh.num_nodes)

        def bisect(mesh, ids, rng, target_left):
            draws = rng.normal(size=(self.candidates, 4))
            return _cut(
                centroids, tets, mesh.num_nodes, ids, draws, target_left,
                workspace,
            )[1]

        parts = recursive_bisection(mesh, num_parts, bisect, seed=seed)
        return Partition(parts, num_parts, method=self.name)
