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
cost is then one ``np.bincount`` over its left side's corners, a node
being shared iff ``0 < left_count < total_count``.  Every candidate is
O(n) — a matrix-vector product, a selection (``split_by_order``) and
that count — with no sort or set operation.  The floating-point steps
(lift, centerpoint, conformal map, ``mapped @ normal``) keep a fixed
order of operations: partitions are pinned bit for bit by
``tests/golden/partitions.json``.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.core import TetMesh
from repro.partition.base import (
    Partition,
    Partitioner,
    recursive_bisection,
    register,
)


def stereographic_lift(points: np.ndarray) -> np.ndarray:
    """Map R^3 points onto the unit sphere in R^4.

    Uses the inverse stereographic projection from the north pole after
    normalizing the input into the unit ball (centered on the centroid,
    scaled by the 90th percentile radius so outliers don't compress the
    bulk of the points near the origin).
    """
    pts = np.asarray(points, dtype=float)
    center = pts.mean(axis=0)
    rel = pts - center
    radii = np.linalg.norm(rel, axis=1)
    scale = np.percentile(radii, 90) if len(radii) else 1.0
    if scale <= 0:
        scale = 1.0
    x = rel / scale
    norm2 = np.einsum("ij,ij->i", x, x)
    denom = norm2 + 1.0
    lifted = np.empty((len(pts), 4))
    lifted[:, :3] = 2.0 * x / denom[:, None]
    lifted[:, 3] = (norm2 - 1.0) / denom
    return lifted


def weiszfeld_median(points: np.ndarray, iterations: int = 12) -> np.ndarray:
    """Approximate geometric median (centerpoint surrogate)."""
    pts = np.asarray(points, dtype=float)
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
    """
    c = np.asarray(centerpoint, dtype=float)
    r = float(np.linalg.norm(c))
    if r < 1e-12:
        return np.asarray(lifted, dtype=float)
    r = min(r, 1.0 - 1e-9)
    axis = c / np.linalg.norm(c)
    target = np.array([0.0, 0.0, 0.0, 1.0])
    # Householder-style rotation taking `axis` to `target`.
    v = axis - target
    vnorm2 = v @ v
    if vnorm2 < 1e-24:
        rotated = np.asarray(lifted, dtype=float)
    else:
        rotated = lifted - 2.0 * np.outer((lifted @ v) / vnorm2, v)
    # Dilation in stereographic coordinates from the north pole (+w).
    alpha = np.sqrt((1.0 - r) / (1.0 + r))
    w = rotated[:, 3]
    xyz = rotated[:, :3]
    denom = np.maximum(1.0 - w, 1e-12)
    plane = xyz / denom[:, None]
    plane *= alpha
    norm2 = np.einsum("ij,ij->i", plane, plane)
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
    """
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
    """
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
