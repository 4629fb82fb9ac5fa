"""Element matrices for linear (4-node) tetrahedra.

For a linear tet, the shape function gradients are constant, so the
12x12 element stiffness has the closed form (isotropic elasticity)

``K[a*3+i, b*3+j] = V * (lam * g_a[i] g_b[j] + mu * g_a[j] g_b[i]
                          + mu * (g_a . g_b) * delta_ij)``

with ``g_a`` the gradient of shape function ``a`` and ``V`` the element
volume.  Everything here is vectorized over elements.  The float order
is spelled out — ``((lam g_a[i] g_b[j] + mu g_a[j] g_b[i]) + (mu (g_a .
g_b)) delta_ij) V`` with ``g_a . g_b = (g_a[0] g_b[0] + g_a[2] g_b[2])
+ g_a[1] g_b[1]`` — because the compiled assembly pass
(``assembly.c``) computes the same values in the same order, and an
einsum's reduction order is its own business.

The geometry is in closed form, in one float order too.  With
``e_k = p_k - p_0`` the gradients are cross products over the
determinant::

    c_1 = e_2 x e_3,  c_2 = e_3 x e_1,  c_3 = e_1 x e_2
    det = (e_1x c_1x + e_1y c_1y) + e_1z c_1z
    g_k = c_k / det,  g_0 = -((g_1 + g_2) + g_3),  V = |det| / 6

(``a x b = (a_y b_z - a_z b_y, a_z b_x - a_x b_z, a_x b_y - a_y
b_x)``).  ``assembly.c`` runs it as one compiled pass
(``element_geometry``), and so does the shortest-edge time behind
:func:`repro.fem.timestepper.stable_timestep` (``element_edge_time``,
edge lengths ``sqrt((dx dx + dy dy) + dz dz)``).  Numpy spells out the
same operations with the same bits (:func:`_numpy_geometry`,
:func:`_numpy_edge_time`): the passes' specification and the tests'
oracle.  No LAPACK call is on this path, so the bits do not depend on
which BLAS kernel a CPU selects.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.fem.material import ElementMaterials
from repro.geometry.tetra import TET_EDGES
from repro.mesh.core import TetMesh
from repro.util.native import native


def _element_ids(mesh: TetMesh, element_ids) -> Optional[np.ndarray]:
    """``element_ids`` as contiguous int64, each checked to be an
    element of ``mesh``; ``None`` stays ``None`` (every element)."""
    if element_ids is None:
        return None
    ids = np.ascontiguousarray(element_ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ValueError("element_ids must be one-dimensional")
    if len(ids) and (ids.min() < 0 or ids.max() >= mesh.num_elements):
        raise IndexError("element id outside the mesh")
    return ids


def _reject(mesh: TetMesh, element_id: int) -> ValueError:
    """The error for element ``element_id``, which a geometry pass
    refused: a corner outside the node numbering, a non-finite
    coordinate, or (otherwise) a degenerate shape."""
    corners = mesh.tets[element_id]
    if np.any((corners < 0) | (corners >= mesh.num_nodes)):
        return ValueError(
            f"element {element_id}: corner outside the node numbering"
        )
    if not np.all(np.isfinite(mesh.points[corners])):
        return ValueError(f"element {element_id}: non-finite coordinate")
    return ValueError(f"degenerate element {element_id}")


def _first(bad: np.ndarray) -> int:
    """The position of the first ``True`` in ``bad``, or -1."""
    hits = np.flatnonzero(bad)
    return int(hits[0]) if len(hits) else -1


def _corners(mesh: TetMesh, tets: np.ndarray):
    """``(outside, p)``: which rows of ``tets`` have a corner outside
    the node numbering, and the corner coordinates (m, 4, 3), with such
    corners clipped into range (their rows are refused anyway)."""
    outside = ((tets < 0) | (tets >= mesh.num_nodes)).any(axis=1)
    return outside, np.take(mesh.points, tets, axis=0, mode="clip")


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``a x b`` of two (m, 3) arrays, in ``assembly.c``'s
    order."""
    return np.stack(
        [
            a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1],
            a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2],
            a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0],
        ],
        axis=1,
    )


@np.errstate(invalid="ignore", over="ignore")
def _numpy_geometry(mesh: TetMesh, ids, want_grads: bool):
    """``element_geometry`` over numpy arrays, the same bits: ``(grads
    or None, volumes, position of the first refused element or -1)``."""
    tets = mesh.tets if ids is None else mesh.tets[ids]
    outside, p = _corners(mesh, tets)
    e1, e2, e3 = (p[:, k] - p[:, 0] for k in (1, 2, 3))
    c = (_cross(e2, e3), _cross(e3, e1), _cross(e1, e2))
    c1 = c[0]
    det = (e1[:, 0] * c1[:, 0] + e1[:, 1] * c1[:, 1]) + e1[:, 2] * c1[:, 2]
    size = np.abs(det)
    bad = _first(outside | ~((size >= 1e-30) & (size < np.inf)))
    if bad >= 0:
        return None, None, bad
    grads = None
    if want_grads:
        grads = np.empty((len(tets), 4, 3))
        for k in range(3):
            np.divide(c[k], det[:, None], out=grads[:, k + 1])
        grads[:, 0] = -((grads[:, 1] + grads[:, 2]) + grads[:, 3])
    return grads, size / 6.0, -1


def _geometry(mesh: TetMesh, element_ids, want_grads: bool):
    """``(grads or None, volumes)`` of the elements ``element_ids`` (all
    when ``None``) by the compiled pass ``element_geometry``; a refused
    element raises ``ValueError`` naming it."""
    ids = _element_ids(mesh, element_ids)
    m = mesh.num_elements if ids is None else len(ids)
    grads = np.empty((m, 4, 3)) if want_grads else None
    volumes = np.empty(m)
    ffi, lib = native()
    buf = ffi.from_buffer
    bad = lib.element_geometry(
        m,
        ffi.NULL if ids is None else buf("int64_t[]", ids),
        buf("int64_t[]", np.ascontiguousarray(mesh.tets, np.int64)),
        mesh.num_nodes,
        buf("double[]", np.ascontiguousarray(mesh.points, np.float64)),
        ffi.NULL if grads is None else buf("double[]", grads),
        buf("double[]", volumes),
    )
    if bad >= 0:
        raise _reject(mesh, bad if ids is None else int(ids[bad]))
    return grads, volumes


def shape_gradients(mesh: TetMesh, element_ids=None):
    """Constant shape-function gradients and volumes per element.

    Returns ``(grads, volumes)`` with ``grads`` of shape (m, 4, 3):
    ``grads[e, a]`` is the gradient of shape function ``a`` on element
    ``e``.  Raises ``ValueError`` naming the first element that is
    degenerate (``|det| < 1e-30``) or has a non-finite coordinate.
    """
    return _geometry(mesh, element_ids, want_grads=True)


@np.errstate(over="ignore")
def _numpy_edge_time(mesh: TetMesh, speed: np.ndarray):
    """``element_edge_time`` over numpy arrays, the same bits: ``(the
    minimum or None, position of the first refused element or -1)``."""
    outside, p = _corners(mesh, mesh.tets)
    bad = _first(outside | ~np.isfinite(p).all(axis=(1, 2)))
    if bad >= 0:
        return None, bad
    shortest = np.full(mesh.num_elements, np.inf)
    for a, b in TET_EDGES:
        d = p[:, a] - p[:, b]
        dx, dy, dz = d[:, 0], d[:, 1], d[:, 2]
        length = np.sqrt((dx * dx + dy * dy) + dz * dz)
        np.minimum(shortest, length, out=shortest)
    return float(np.min(shortest / speed)), -1


def min_edge_time(mesh: TetMesh, speed: np.ndarray) -> float:
    """``min_e shortest_edge_e / speed_e`` over every element of
    ``mesh`` (``speed`` one value per element), each edge length
    ``sqrt((dx dx + dy dy) + dz dz)``.

    Raises ``ValueError`` naming the first element with a non-finite
    coordinate, and on a mesh without elements.  One compiled pass,
    ``element_edge_time``.
    """
    speed = np.ascontiguousarray(speed, dtype=np.float64)
    if speed.shape != (mesh.num_elements,):
        raise ValueError("speed must hold one value per element")
    if mesh.num_elements == 0:
        raise ValueError("the mesh has no elements")
    out = np.empty(1)
    ffi, lib = native()
    buf = ffi.from_buffer
    bad = lib.element_edge_time(
        mesh.num_elements,
        buf("int64_t[]", np.ascontiguousarray(mesh.tets, np.int64)),
        mesh.num_nodes,
        buf("double[]", np.ascontiguousarray(mesh.points, np.float64)),
        buf("double[]", speed),
        buf("double[]", out),
    )
    if bad >= 0:
        raise _reject(mesh, bad)
    return float(out[0])


def element_stiffness(
    mesh: TetMesh,
    materials: ElementMaterials,
    element_ids=None,
) -> np.ndarray:
    """Dense 12x12 stiffness matrices, shape (m, 12, 12).

    ``element_ids`` restricts to a subset; materials are indexed by the
    same subset and must cover the full mesh.
    """
    materials.check_covers(mesh)
    grads, volumes = shape_gradients(mesh, element_ids)
    if element_ids is None:
        lam, mu = materials.lam, materials.mu
    else:
        lam, mu = materials.lam[element_ids], materials.mu[element_ids]
    m = grads.shape[0]
    # K_block[e, a, b, i, j] per the closed form, then reshaped to 12x12.
    # gg[e, a, b, i, j] = g_a[i] g_b[j], the lam term.
    gg = grads[:, :, None, :, None] * grads[:, None, :, None, :]
    dots = (gg[..., 0, 0] + gg[..., 2, 2]) + gg[..., 1, 1]
    eye = np.eye(3)
    blocks = (
        lam[:, None, None, None, None] * gg
        + mu[:, None, None, None, None] * np.transpose(gg, (0, 1, 2, 4, 3))
        + mu[:, None, None, None, None] * dots[..., None, None] * eye
    )
    blocks *= volumes[:, None, None, None, None]
    # (e, a, b, i, j) -> (e, a, i, b, j) -> (e, 12, 12)
    k = np.transpose(blocks, (0, 1, 3, 2, 4)).reshape(m, 12, 12)
    return k


def element_lumped_mass(
    mesh: TetMesh,
    materials: ElementMaterials,
    element_ids=None,
) -> np.ndarray:
    """Lumped nodal masses per element, shape (m, 4).

    Each corner receives a quarter of the element mass ``rho * V``;
    ``materials`` must cover the full mesh.
    """
    materials.check_covers(mesh)
    _, volumes = _geometry(mesh, element_ids, want_grads=False)
    rho = materials.rho if element_ids is None else materials.rho[element_ids]
    return np.repeat((rho * volumes / 4.0)[:, None], 4, axis=1)
