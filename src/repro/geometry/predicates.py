"""Orientation and containment predicates.

These are plain floating-point predicates (no adaptive arithmetic); the
mesher only uses them for sanity checks and point-location on meshes whose
coordinates are kilometers apart, far from the near-degenerate regime where
exact predicates matter.
"""

from __future__ import annotations

import numpy as np


def orient3d(a, b, c, d) -> np.ndarray:
    """Orientation of point(s) ``d`` relative to the plane through a, b, c.

    Positive when ``d`` lies on the side such that (a, b, c, d) form a
    positively oriented (right-handed) tetrahedron, negative on the other
    side, ~0 when coplanar.  Inputs broadcast: each argument may be a
    single point or an (n, 3) array.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    c = np.atleast_2d(np.asarray(c, dtype=float))
    d = np.atleast_2d(np.asarray(d, dtype=float))
    # det[b-a, c-a, d-a]: six times the signed volume of (a, b, c, d).
    ba = b - a
    ca = c - a
    da = d - a
    det = np.einsum("ij,ij->i", ba, np.cross(ca, da))
    return det


def points_in_aabb(points: np.ndarray, lo, hi) -> np.ndarray:
    """Boolean mask of points inside the closed box [lo, hi]."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    return np.all((pts >= lo) & (pts <= hi), axis=1)


def points_in_tets(
    points: np.ndarray,
    tet_corners: np.ndarray,
    tol: float = 1e-9,
) -> np.ndarray:
    """Test whether ``points[i]`` lies inside ``tet_corners[i]``.

    Parameters
    ----------
    points:
        ``(n, 3)`` query points.
    tet_corners:
        ``(n, 4, 3)`` corner coordinates, one tet per query point (this is
        the shape produced by gathering ``mesh.points[mesh.tets[idx]]``).
    tol:
        Relative slack on the barycentric coordinates.

    Returns
    -------
    numpy.ndarray
        Boolean mask of length ``n``.
    """
    pts = np.asarray(points, dtype=float)
    tc = np.asarray(tet_corners, dtype=float)
    if pts.ndim != 2 or tc.ndim != 3 or tc.shape[1:] != (4, 3):
        raise ValueError("expected points (n,3) and tet_corners (n,4,3)")
    # Solve for barycentric coordinates: p = p0 + T @ lambda[1:4].
    t_mat = np.transpose(tc[:, 1:4, :] - tc[:, 0:1, :], (0, 2, 1))
    rhs = pts - tc[:, 0, :]
    # Batched 3x3 solve; singular (degenerate) tets marked as "outside".
    dets = np.linalg.det(t_mat)
    ok = np.abs(dets) > 0
    lam = np.zeros((pts.shape[0], 3))
    if np.any(ok):
        lam[ok] = np.linalg.solve(t_mat[ok], rhs[ok][..., None])[..., 0]
    lam0 = 1.0 - lam.sum(axis=1)
    inside = (
        ok
        & (lam0 >= -tol)
        & np.all(lam >= -tol, axis=1)
        & (lam0 <= 1 + tol)
        & np.all(lam <= 1 + tol, axis=1)
    )
    return inside
