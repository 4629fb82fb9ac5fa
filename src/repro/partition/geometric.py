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

One compiled call per subtree (``cut.c``'s ``cut_tree``, in the
native library of :mod:`repro.util.native`) runs every
cut of the recursion below it, in the recursion's order: each cut reads
its centroids through its ids, lifts them (the 90th percentile by
selection, in numpy's interpolation), finds the centerpoint, maps it to
the center, scores every candidate in one pass over the corners (one
flag bit per candidate), reorders its ids into the two sides in place
and leaves the parts at the leaves.  All ``p - 1`` cuts' candidates are
drawn up front, as one ``(p - 1) x candidates x 4`` draw: the stream the
recursion draws cut by cut.  The calling thread cuts the root, then the
two subtrees run as one call each, on disjoint slices of one set of
buffers the calling thread carved from one mapping (:func:`_carve`):
at once with two or more usable cores
(:func:`repro.util.cores.usable_cores`), one on a worker thread that is
joined before :meth:`GeometricBisection.partition` returns, and one
after the other on one core.

The root cut is the one cut a p sweep repeats: every even p draws the
same first row of candidates (the draw is one stream) and puts half
the elements on the left.  So its left side is kept per mesh, a bit per
element (:data:`_ROOT_CUTS`, keyed by the first draw row, the left
size, the candidate count and the Weiszfeld steps; a few per mesh, in a
``weakref.WeakKeyDictionary`` so that they go with their mesh, whose
arrays are immutable).  A kept root skips the root's map and scoring
and only splits the ids, in ``cut_split``'s stable order: the same
bits.

No float step calls BLAS: the 4-long dot products take the order
OpenBLAS's ``ddot`` takes (one chain of fused multiply-adds) and the
``n x 4`` products the order of its ``gemv`` (``(l0 u0 + l2 u2) + (l1
u1 + l3 u3)``), spelled out in C and in the numpy functions alike, so
partitions are pinned bit for bit by ``tests/golden/partitions.json``
on any BLAS and any core count.  For an input the call does not take
(another dtype or layout), :func:`recursive_bisection` drives the numpy
cut, one candidate at a time, with the same bits: it is the compiled
tree's oracle.
"""

from __future__ import annotations

import functools
import math
import mmap
import threading
import weakref
from collections import OrderedDict
from fractions import Fraction
from typing import Any, Callable, Optional, Tuple

import numpy as np

from repro.mesh.core import TetMesh
from repro.partition.base import (
    Partition,
    Partitioner,
    _checked_num_parts,
    recursive_bisection,
)
from repro.util import cores
from repro.util.native import native

#: Weiszfeld steps per centerpoint.
_ITERATIONS = 12

#: A transparent huge page on x86-64 and arm64 (2 MiB).
_HUGE_PAGE = 2 << 20

#: Root cuts kept per mesh, m / 8 bytes each.
_ROOTS_PER_MESH = 4

#: Each mesh's kept root cuts, the most recently used last: ``(first
#: draw row bytes, left size, candidates, Weiszfeld steps)`` -> the
#: left side, packed a bit per element (``np.packbits``).  A
#: :class:`TetMesh`'s arrays are immutable, so the key and the mesh are
#: everything the root cut reads; an entry goes with its mesh.
_ROOT_CUTS: "weakref.WeakKeyDictionary[TetMesh, OrderedDict]" = (
    weakref.WeakKeyDictionary()
)
_ROOT_LOCK = threading.Lock()


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
    if not _is_c_array(pts, np.float64, 3) or not len(pts):
        return _stereographic_lift_numpy(pts)
    ffi, lib = native()
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
    if not _is_c_array(pts, np.float64, 4) or not len(pts):
        return _weiszfeld_numpy(pts, iterations)
    ffi, lib = native()
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
    if (
        not _is_c_array(lifted, np.float64, 4)
        or center.shape != (4,)
        or not len(lifted)
    ):
        return _conformal_map_numpy(lifted, center)
    ffi, lib = native()
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


def _node_words(num_nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(acc, nodes)`` for the compiled scoring over ``num_nodes``
    nodes: each node's OR and AND of its corners' flag words, as every
    scoring pass leaves them (0 and ~0), and the list of touched nodes
    (one slot more than there are nodes)."""
    acc = np.zeros(2 * num_nodes, dtype=np.uint64)
    acc[1::2] = ~np.uint64(0)
    return acc, np.empty(num_nodes + 1, dtype=np.int64)


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


def _compiled_score(
    lib: Any,
    buf: Any,
    mapped: np.ndarray,
    tets: np.ndarray,
    num_nodes: int,
    ids: np.ndarray,
    units: np.ndarray,
    target_left: int,
) -> Optional[Tuple[int, np.ndarray]]:
    """``cut_score`` over every candidate of ``units``: ``(winner, left
    mask)``, or ``None`` when an id or a corner is out of range."""
    n = len(ids)
    flags = np.empty(n, dtype=np.uint64)
    acc, nodes = _node_words(num_nodes)
    winner = lib.cut_score(
        n, buf("double[]", mapped), buf("int64_t[]", tets), len(tets),
        buf("int64_t[]", ids), num_nodes, target_left,
        buf("double[]", units), units.size // 4,
        buf("double[]", np.empty(3 * n)), buf("uint64_t[]", flags),
        buf("uint64_t[]", acc), buf("int64_t[]", nodes),
    )
    if winner < 0:
        return None
    return winner, (flags >> np.uint64(63)).astype(bool)


def _cut(
    centroids: np.ndarray,
    tets: np.ndarray,
    num_nodes: int,
    ids: np.ndarray,
    draws: np.ndarray,
    target_left: int,
) -> Tuple[int, np.ndarray]:
    """One cut of the elements ``ids``: ``(winner, left mask)``, the
    index of the winning candidate among :func:`_candidate_normals`
    ``(draws)`` and its ``target_left`` elements.

    Compiled (``cut_map``, then ``cut_score``: the passes ``cut_tree``
    runs for each cut) when it takes the arrays, the numpy cut
    otherwise: the same winner and mask.
    """
    draws = np.ascontiguousarray(draws, dtype=np.float64)
    if _compiled_operands(
        tets, ids, draws, target_left, centroids, 3, len(tets)
    ):
        ffi, lib = native()
        buf = ffi.from_buffer
        mapped = np.empty((len(ids), 4))
        units = np.empty(4 * (len(draws) + 3))
        count = lib.cut_map(
            len(ids), buf("double[]", centroids), len(tets),
            buf("int64_t[]", ids), _ITERATIONS, len(draws),
            buf("double[]", draws), buf("double[]", mapped),
            buf("double[]", units), buf("double[]", np.empty(len(ids))),
        )
        # -1 / None: an id or a corner out of range, which numpy's
        # indexing raises.
        if count >= 0:
            result = _compiled_score(
                lib, buf, mapped, tets, num_nodes, ids, units[: 4 * count],
                target_left,
            )
            if result is not None:
                return result
    return _cut_numpy(centroids, tets, num_nodes, ids, draws, target_left)


def _cut_numpy(
    centroids: np.ndarray,
    tets: np.ndarray,
    num_nodes: int,
    ids: np.ndarray,
    draws: np.ndarray,
    target_left: int,
) -> Tuple[int, np.ndarray]:
    """:func:`_cut` in numpy, one candidate at a time: the compiled
    passes' oracle."""
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
    centroids ``mapped``: compiled when it takes the arrays, numpy
    otherwise, the same ``(winner, left mask)``."""
    draws = np.ascontiguousarray(draws, dtype=np.float64)
    if _compiled_operands(
        tets, ids, draws, target_left, mapped, 4, len(ids)
    ):
        ffi, lib = native()
        units = np.ascontiguousarray(_candidate_normals(draws), dtype=float)
        result = _compiled_score(
            lib, ffi.from_buffer, mapped, tets, num_nodes, ids, units,
            target_left,
        )
        if result is not None:
            return result
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


def _carve(layout: list) -> list:
    """Arrays of the ``(dtype, length)`` pairs of ``layout``, zeroed,
    carved at 64-byte offsets from one private anonymous mapping advised
    for huge pages.  The mapping is the arrays' own: it is unmapped when
    the last of them goes, so it neither stays on the malloc heap nor
    costs a minor fault per 4 KiB page of a fresh one."""
    offsets, total = [], 0
    for dtype, count in layout:
        offsets.append(total)
        total += -(-np.dtype(dtype).itemsize * count // 64) * 64
    # Whole huge pages, so that no part of the block falls back to
    # 4 KiB pages.
    total = max(-(-total // _HUGE_PAGE) * _HUGE_PAGE, _HUGE_PAGE)
    block = mmap.mmap(-1, total, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    try:
        block.madvise(mmap.MADV_HUGEPAGE)
    except (AttributeError, OSError):
        pass  # no transparent huge pages here: 4 KiB pages
    raw = np.frombuffer(block, dtype=np.uint8)
    return [
        raw[at : at + np.dtype(dtype).itemsize * count].view(dtype)
        for at, (dtype, count) in zip(offsets, layout)
    ]


def _run_pair(
    here: Callable[[], int], there: Callable[[], int]
) -> Tuple[int, int]:
    """``(here(), there())``: ``there`` on a new thread, ``here`` on this
    one, the thread joined before returning.  Both are compiled calls
    whose operands are already built, so the new thread allocates no
    buffer."""
    out: list = []
    thread = threading.Thread(target=lambda: out.append(there()))
    thread.start()
    try:
        mine = here()
    finally:
        thread.join()
    return mine, out[0]


def _recall_root(mesh: TetMesh, key: tuple) -> Optional[np.ndarray]:
    """The packed left side of ``mesh``'s root cut under ``key``, or
    ``None`` when it is not kept."""
    with _ROOT_LOCK:
        cuts = _ROOT_CUTS.get(mesh)
        if cuts is None or key not in cuts:
            return None
        cuts.move_to_end(key)
        return cuts[key]


def _keep_root(mesh: TetMesh, key: tuple, packed: np.ndarray) -> None:
    """Keep ``packed`` as ``mesh``'s root cut under ``key``, dropping
    the least recently used beyond :data:`_ROOTS_PER_MESH`."""
    with _ROOT_LOCK:
        cuts = _ROOT_CUTS.setdefault(mesh, OrderedDict())
        cuts[key] = packed
        cuts.move_to_end(key)
        while len(cuts) > _ROOTS_PER_MESH:
            cuts.popitem(last=False)


def _cut_tree(mesh: Any, draws: np.ndarray) -> Optional[np.ndarray]:
    """The parts of every element of ``mesh`` under the compiled
    recursion with the cuts' ``draws`` (``(p - 1) x k x 4``), or
    ``None`` when a corner is out of range.

    The calling thread cuts the root (``cut_map``, ``cut_score``,
    ``cut_split``: the passes ``cut_tree`` runs for each cut), or, for
    a :class:`TetMesh` whose root cut with the same first draw row,
    left size and candidates is kept in :data:`_ROOT_CUTS`, splits the
    ids by the kept left side.  Then the two subtrees run as one
    ``cut_tree`` call each: at once on two threads with two or more
    usable cores, each with its own ``units``, ``acc`` and ``nodes``,
    one after the other on one core.  Both work on disjoint slices of
    the same buffers, all carved from one mapping (:func:`_carve`).
    """
    centroids, tets = mesh.element_centroids, mesh.tets
    num_nodes = mesh.num_nodes
    m, num_parts, k = len(tets), len(draws) + 1, draws.shape[1]
    parts = np.zeros(m, dtype=np.int32)
    if num_parts == 1:
        return parts
    workers = 2 if cores.usable_cores() >= 2 else 1
    ids, mapped, work, flags, *per_worker = _carve(
        [(np.int64, m), (np.float64, 4 * m), (np.float64, 4 * m),
         (np.uint64, m)]
        + [(np.float64, 4 * (k + 3)), (np.uint64, 2 * num_nodes),
           (np.int64, num_nodes + 1)] * workers
    )
    ids[:] = np.arange(m)
    ffi, lib = native()
    units, accs, nodes = per_worker[0::3], per_worker[1::3], per_worker[2::3]
    for acc in accs:
        acc[1::2] = ~np.uint64(0)  # each node's (OR, AND): (0, ~0)
    buf = ffi.from_buffer
    c_centroids, c_tets = buf("double[]", centroids), buf("int64_t[]", tets)
    c_ids, c_draws = buf("int64_t[]", ids), buf("double[]", draws)
    c_mapped, c_work = buf("double[]", mapped), buf("double[]", work)
    c_flags, c_parts = buf("uint64_t[]", flags), buf("int32_t[]", parts)
    c_units = [buf("double[]", u) for u in units]
    c_words = [
        (buf("uint64_t[]", acc), buf("int64_t[]", listed))
        for acc, listed in zip(accs, nodes)
    ]

    def subtree(worker: int, lo: int, hi: int, first: int, q: int, cut: int):
        """``cut_tree`` over ``ids[lo:hi]`` with ``worker``'s words,
        from draw ``cut`` on."""
        return functools.partial(
            lib.cut_tree, hi - lo, c_centroids, c_tets, m, c_ids + lo,
            num_nodes, first, q, _ITERATIONS, k, c_draws + 4 * k * cut,
            c_mapped + 4 * lo, c_units[worker], c_work + 4 * lo,
            c_flags + lo, *c_words[worker], c_parts,
        )

    left = lib.cut_left_size(m, num_parts)
    key = (draws[0].tobytes(), left, k, _ITERATIONS)
    memo = isinstance(mesh, TetMesh)
    packed = _recall_root(mesh, key) if memo else None
    if packed is None:
        count = lib.cut_map(
            m, c_centroids, m, c_ids, _ITERATIONS, k, c_draws, c_mapped,
            c_units[0], c_work,
        )
        if count < 0 or lib.cut_score(
            m, c_mapped, c_tets, m, c_ids, num_nodes, left, c_units[0],
            count, c_work, c_flags, *c_words[0],
        ) < 0:
            return None
        if memo:
            _keep_root(mesh, key, np.packbits(flags >= np.uint64(1 << 63)))
    else:
        # The kept side back in bit 63, where cut_score leaves it.
        flags[:] = np.unpackbits(packed, count=m)
        flags <<= np.uint64(63)
    lib.cut_split(m, c_ids, c_flags)
    q_left = (num_parts + 1) // 2
    left_tree = subtree(0, 0, left, 0, q_left, num_parts - q_left)
    right_tree = subtree(workers - 1, left, m, q_left, num_parts - q_left, 1)
    if workers == 2:
        status = _run_pair(left_tree, right_tree)
    else:
        status = (right_tree(), left_tree())
    return parts if max(status) == 0 else None


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
        if _is_c_array(tets, np.int64, 4) and _is_c_array(
            centroids, np.float64, 3
        ):
            num_parts = _checked_num_parts(num_parts, mesh.num_elements)
            rng = np.random.default_rng(seed)
            # The stream recursive_bisection draws, cut by cut.
            draws = rng.normal(size=(num_parts - 1, self.candidates, 4))
            parts = _cut_tree(mesh, draws)
            if parts is not None:
                return Partition(parts, num_parts, method=self.name)

        def bisect(mesh, ids, rng, target_left):
            draws = rng.normal(size=(self.candidates, 4))
            return _cut(
                centroids, tets, mesh.num_nodes, ids, draws, target_left
            )[1]

        parts = recursive_bisection(mesh, num_parts, bisect, seed=seed)
        return Partition(parts, num_parts, method=self.name)
