"""Sparse assembly of global and subdomain matrices.

The global stiffness K is ``3n x 3n`` and extremely sparse (~42
nonzeros per row on the Quake meshes, paper Section 2.2).  Assembly
proceeds in element chunks to bound peak memory: each chunk's dense
12x12 element matrices scatter into COO triplets, partial CSR matrices
are summed, and the result is optionally converted to 3x3 BSR (the
natural block storage for the vector-valued problem).

``assemble_subdomain_stiffness`` assembles the *local* matrix of one
PE — contributions from that PE's elements only, over that PE's local
node numbering.  Shared blocks therefore hold partial values, and the
exchange-and-sum phase of the distributed SMVP completes them; that is
exactly the storage scheme of the paper's Figure 3.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.fem.element import element_lumped_mass, element_stiffness
from repro.fem.material import ElementMaterials
from repro.mesh.core import TetMesh
from repro.telemetry.registry import get_registry, stage_span

#: Elements per assembly chunk (144 COO entries each).
DEFAULT_CHUNK = 100_000


def _scatter_chunk(
    k_dense: np.ndarray, tets_chunk: np.ndarray, num_nodes: int
) -> sp.csr_matrix:
    """Scatter (m, 12, 12) element matrices into a 3n x 3n CSR matrix.

    The triplet indices are built in the width scipy's COO constructor
    would downcast them to anyway — by copying: int64 triplets cost a
    chunk 230 MB plus 115 MB of int32 copies, int32 ones 115 MB in all.
    """
    m = k_dense.shape[0]
    index = np.int32 if 3 * num_nodes < 2**31 else np.int64
    dof = (
        3 * tets_chunk.astype(index)[:, :, None]
        + np.arange(3, dtype=index)[None, None, :]
    ).reshape(m, 12)
    rows = np.repeat(dof, 12, axis=1).ravel()
    cols = np.tile(dof, (1, 12)).ravel()
    coo = sp.coo_matrix(
        (k_dense.ravel(), (rows, cols)), shape=(3 * num_nodes, 3 * num_nodes)
    )
    return coo.tocsr()


def assemble_stiffness(
    mesh: TetMesh,
    materials: ElementMaterials,
    fmt: str = "csr",
    chunk_size: int = DEFAULT_CHUNK,
) -> sp.spmatrix:
    """Assemble the global stiffness matrix.

    Parameters
    ----------
    mesh, materials:
        Geometry and per-element properties (must cover the full mesh).
    fmt:
        ``"csr"`` or ``"bsr"`` (3x3 blocks).
    chunk_size:
        Elements per scatter chunk.
    """
    if materials.num_elements != mesh.num_elements:
        raise ValueError("materials must cover the full mesh")
    if fmt not in ("csr", "bsr"):
        raise ValueError("fmt must be 'csr' or 'bsr'")
    n = mesh.num_nodes
    total: Optional[sp.csr_matrix] = None
    with stage_span("fem.assemble", track="fem"):
        for start in range(0, mesh.num_elements, chunk_size):
            ids = np.arange(start, min(start + chunk_size, mesh.num_elements))
            k_dense = element_stiffness(mesh, materials, ids)
            part = _scatter_chunk(k_dense, mesh.tets[ids], n)
            total = part if total is None else total + part
        if total is None:
            total = sp.csr_matrix((3 * n, 3 * n))
        total.sum_duplicates()
    _record_assembly(total, scope="global")
    if fmt == "bsr":
        return sp.bsr_matrix(total, blocksize=(3, 3))
    return total


def _record_assembly(matrix: sp.spmatrix, scope: str) -> None:
    """Fold one finished assembly into the installed registry, if any."""
    reg = get_registry()
    if reg is not None:
        reg.counter(
            "repro_fem_assemblies_total", "stiffness assemblies"
        ).inc(scope=scope)
        reg.counter(
            "repro_fem_assembled_nnz_total",
            "nonzeros across assembled stiffness matrices",
        ).inc(int(matrix.nnz), scope=scope)


def assemble_lumped_mass(
    mesh: TetMesh, materials: ElementMaterials
) -> np.ndarray:
    """Lumped mass vector of length 3n (equal mass per dof of a node)."""
    if materials.num_elements != mesh.num_elements:
        raise ValueError("materials must cover the full mesh")
    node_mass = np.zeros(mesh.num_nodes)
    masses = element_lumped_mass(mesh, materials)
    np.add.at(node_mass, mesh.tets.ravel(), masses.ravel())
    return np.repeat(node_mass, 3)


def assemble_subdomain_stiffness(
    mesh: TetMesh,
    materials: ElementMaterials,
    element_ids: np.ndarray,
    local_nodes: np.ndarray,
    fmt: str = "csr",
    chunk_size: int = DEFAULT_CHUNK,
) -> sp.spmatrix:
    """Assemble one PE's local stiffness matrix.

    Parameters
    ----------
    element_ids:
        Global element indices owned by the PE.
    local_nodes:
        Sorted global node indices resident on the PE (from
        :meth:`repro.smvp.DataDistribution.local_nodes`); the result is
        ``3 * len(local_nodes)`` square, in local node numbering.
    """
    if materials.num_elements != mesh.num_elements:
        raise ValueError("materials must cover the full mesh")
    element_ids = np.asarray(element_ids, dtype=np.int64)
    local_nodes = np.asarray(local_nodes, dtype=np.int64)
    n_local = len(local_nodes)
    # Remap global -> local node indices for the owned elements.
    local_tets = np.searchsorted(local_nodes, mesh.tets[element_ids])
    if np.any(local_tets >= n_local) or np.any(
        local_nodes[np.minimum(local_tets, n_local - 1)]
        != mesh.tets[element_ids]
    ):
        raise ValueError("element touches a node not in local_nodes")
    total: Optional[sp.csr_matrix] = None
    with stage_span("fem.assemble_subdomain", track="fem"):
        for start in range(0, len(element_ids), chunk_size):
            sel = np.arange(start, min(start + chunk_size, len(element_ids)))
            k_dense = element_stiffness(mesh, materials, element_ids[sel])
            part = _scatter_chunk(k_dense, local_tets[sel], n_local)
            total = part if total is None else total + part
        if total is None:
            total = sp.csr_matrix((3 * n_local, 3 * n_local))
        total.sum_duplicates()
    _record_assembly(total, scope="subdomain")
    if fmt == "bsr":
        return sp.bsr_matrix(total, blocksize=(3, 3))
    return total
