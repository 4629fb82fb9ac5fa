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
"""

from __future__ import annotations

import numpy as np

from repro.fem.material import ElementMaterials
from repro.mesh.core import TetMesh


def shape_gradients(mesh: TetMesh, element_ids=None):
    """Constant shape-function gradients and volumes per element.

    Returns ``(grads, volumes)`` with ``grads`` of shape (m, 4, 3):
    ``grads[e, a]`` is the gradient of shape function ``a`` on element
    ``e``.  Raises on degenerate elements.
    """
    tets = mesh.tets if element_ids is None else mesh.tets[element_ids]
    p = mesh.points[tets]  # (m, 4, 3)
    # Edge matrix rows: p1-p0, p2-p0, p3-p0.
    edge = p[:, 1:4, :] - p[:, 0:1, :]  # (m, 3, 3)
    det = np.linalg.det(edge)
    if np.any(np.abs(det) < 1e-30):
        raise ValueError("degenerate element encountered")
    inv = np.linalg.inv(edge)  # (m, 3, 3); columns are grad(lambda_{1..3})
    grads = np.empty((len(tets), 4, 3))
    grads[:, 1:4, :] = np.transpose(inv, (0, 2, 1))
    grads[:, 0, :] = -grads[:, 1:4, :].sum(axis=1)
    volumes = np.abs(det) / 6.0
    return grads, volumes


def element_stiffness(
    mesh: TetMesh,
    materials: ElementMaterials,
    element_ids=None,
) -> np.ndarray:
    """Dense 12x12 stiffness matrices, shape (m, 12, 12).

    ``element_ids`` restricts to a subset (the numpy assembly path
    works in element chunks); materials are indexed by the same subset
    and must cover the full mesh.
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
    tets = mesh.tets if element_ids is None else mesh.tets[element_ids]
    p = mesh.points[tets]
    edge = p[:, 1:4, :] - p[:, 0:1, :]
    volumes = np.abs(np.linalg.det(edge)) / 6.0
    rho = materials.rho if element_ids is None else materials.rho[element_ids]
    return np.repeat((rho * volumes / 4.0)[:, None], 4, axis=1)
