"""Sparse assembly of global and subdomain matrices.

The global stiffness K is ``3n x 3n`` and extremely sparse (~42
nonzeros per row on the Quake meshes, paper Section 2.2).  It is stored
as *node-block* CSR: one full 3x3 block per pair of nodes that share an
element, column nodes ascending, so rows 3b, 3b+1 and 3b+2 hold one
column list — the layout ``csr`` packs, one block per node pair, for
its compiled loop (block (c, b) comes out as block (b, c) transposed,
bit for bit: see :mod:`repro.smvp.kernels`), and the canonical CSR
scipy's COO → CSR gives.

The bits: every entry is +0.0 plus its element contributions in
ascending element order (the order of ``element_ids``), left to right,
and each contribution is :func:`element_stiffness`'s value bit for bit.
Two paths give them:

* the compiled pass (``assembly.c``, in the native library of
  :mod:`repro.util.native`) builds the pattern without sorting
  anything and then visits each node once, summing its elements' row
  slices straight into its three rows — no triplets, no 12x12
  temporaries;
* when ``nnz`` reaches 2**31 (int64 indices), a numpy pass
  (:func:`_numpy_assembly`, also the tests' oracle): the pattern by a
  sort of packed node-pair keys (repeats dropped by a neighbour
  compare), :func:`element_stiffness`, positions in the pattern by
  ``searchsorted``, ``np.add.at`` into zeros.

They agree bit for bit on every entry that is not a NaN.  NaNs sit at
the same entries on both paths, but when NaNs of different payloads
meet in a sum (an element whose ``lam`` and ``mu`` are two different
NaNs) the payload that survives depends on the order of the operands,
and the compiler may commute some of the compiled pass's sums: demo
element 16331 with such a ``lam`` and ``mu`` gives 128 of its 144
entries other NaN bits on the two paths.

Both read the element geometry from :func:`shape_gradients`: the closed
form of :mod:`repro.fem.element`, whose compiled pass lives in the same
``assembly.c`` (``element_geometry``; the lumped mass reads its volumes
and ``stable_timestep`` its sibling ``element_edge_time``).  The
mesh's node graph (:func:`repro.mesh.topology.node_graph`) is one more
entry there, ``node_graph``, after ``assembly_graph`` without self
loops, and so are the signed volumes and centroids of
:mod:`repro.geometry.tetra` (``element_signed_volumes``,
``element_centroids``) and a partition's per-PE edge counts
(``edge_counts``, behind :class:`repro.smvp.distribution.
DataDistribution`).  Each has a numpy spelling beside its caller with
the same bits up to the NaN payloads above (the same integers, for the
graph and the counts): the pass's specification and its tests' oracle.

``assemble_subdomain_stiffness`` assembles the *local* matrix of one
PE — contributions from that PE's elements only, over that PE's local
node numbering.  Shared blocks therefore hold partial values, and the
exchange-and-sum phase of the distributed SMVP completes them; that is
exactly the storage scheme of the paper's Figure 3.  Its corners reach
the local numbering through one reusable dense map
(:func:`repro.util.numbering.local_numbering`), not a ``searchsorted``
per PE.

:func:`assemble_subdomain_packed` is the executor's spelling of the
same matrix: one compiled pass (``packed_fill``, beside
``assembly_fill``) over the PE's elements writes ``csr``'s packed state
arrays straight away — each node pair's block once, bit for bit what
:class:`repro.smvp.kernels.PackedState` packs from the CSR, and the
same check that every block below the node diagonal is its mirror
transposed.  Where it cannot give those bits (an index past int32, a
failed check, a NaN ``lam`` / ``mu``) it returns ``None`` and the
caller assembles the CSR, the specification.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.fem.element import (
    element_lumped_mass,
    element_stiffness,
    shape_gradients,
)
from repro.fem.material import ElementMaterials
from repro.mesh.core import TetMesh
from repro.telemetry.registry import get_registry, stage_span
from repro.util.keys import sorted_unique
from repro.util.native import native
from repro.util.numbering import local_numbering

#: Index arrays stay int32 (as scipy's would) below this.
_INT32_LIMIT = 2**31

#: The stage span of each assembly scope.
_SPANS = {"global": "fem.assemble", "subdomain": "fem.assemble_subdomain"}


def _per_element(values: np.ndarray, element_ids) -> np.ndarray:
    """``values`` of the assembled elements, contiguous."""
    if element_ids is not None:
        values = values[element_ids]
    return np.ascontiguousarray(values)


def _graph(
    tets: np.ndarray, num_nodes: int, element_ids
) -> Tuple[Any, tuple, np.ndarray]:
    """``assembly_graph`` with self loops over the corners ``tets``:
    their int32 buffer, the graph's buffers (incidence, neighbour
    counts, stamp) and the counts' prefix sums ``node_ptr``."""
    n, m = num_nodes, len(tets)
    tets = np.ascontiguousarray(tets, dtype=np.int32)
    node_ptr = np.empty(n + 1, np.int64)
    ffi, lib = native()
    buf = ffi.from_buffer
    corners = buf("int32_t[]", tets)
    graph = (
        buf("int64_t[]", np.empty(n + 1, np.int64)),
        buf("int32_t[]", np.empty(4 * m, np.int32)),
        buf("int64_t[]", node_ptr),
        buf("int32_t[]", np.empty(n, np.int32)),
    )
    bad = lib.assembly_graph(n, m, corners, 1, *graph)
    if bad >= 0:
        bad = bad if element_ids is None else int(element_ids[bad])
        raise ValueError(f"element {bad}: corner outside the node numbering")
    return corners, graph, node_ptr


def _element_values(mesh, materials, element_ids) -> tuple:
    """The gradients, volumes, ``lam`` and ``mu`` of the assembled
    elements, as the fill passes read them."""
    grads, volumes = shape_gradients(mesh, element_ids)
    lam = _per_element(materials.lam, element_ids)
    mu = _per_element(materials.mu, element_ids)
    return grads, volumes, lam, mu


def _compiled_assembly(
    mesh: TetMesh,
    materials: ElementMaterials,
    element_ids: Optional[np.ndarray],
    tets: np.ndarray,
    num_nodes: int,
) -> Optional[sp.csr_matrix]:
    """The compiled pass; ``None`` when the matrix needs int64 indices."""
    n, m = num_nodes, len(tets)
    if max(3 * n, m) >= _INT32_LIMIT:
        return None
    corners, graph, node_ptr = _graph(tets, n, element_ids)
    blocks = int(node_ptr[n])
    if 9 * blocks >= _INT32_LIMIT:
        return None
    ffi, lib = native()
    buf = ffi.from_buffer
    values = _element_values(mesh, materials, element_ids)
    indptr = np.empty(3 * n + 1, np.int32)
    indices = np.empty(9 * blocks, np.int32)
    data = np.empty(9 * blocks)
    lib.assembly_fill(
        n,
        corners,
        *graph,
        buf("int32_t[]", np.empty(blocks, np.int32)),
        *(buf("double[]", a) for a in values),
        buf("int32_t[]", indptr),
        buf("int32_t[]", indices),
        buf("double[]", data),
    )
    return sp.csr_matrix((data, indices, indptr), shape=(3 * n, 3 * n))


def _numpy_assembly(
    mesh: TetMesh,
    materials: ElementMaterials,
    element_ids: Optional[np.ndarray],
    tets: np.ndarray,
    num_nodes: int,
) -> sp.csr_matrix:
    """The same matrix in numpy (any index width): the same bits, NaN
    payloads aside (see the module docstring).  Each entry is +0.0 plus
    its element contributions in ascending element order: ``np.add.at``
    adds them in the order of ``where``, element major."""
    n = num_nodes
    tets = tets.astype(np.int64)
    # Every coupled node pair once, sorted: row node major, column minor.
    pairs = sorted_unique(
        np.repeat(tets, 4, axis=1) * n + np.tile(tets, (1, 4))
    )
    row_node, col_node = np.divmod(pairs, n)
    deg = np.bincount(row_node, minlength=n)
    node_ptr = np.zeros(n + 1, np.int64)
    np.cumsum(deg, out=node_ptr[1:])
    nnz = 9 * len(pairs)
    index = np.int32 if max(nnz, 3 * n) < _INT32_LIMIT else np.int64
    dof = np.arange(3)

    def position(row, pair, i, j):
        """Where entry (row dof i, column dof j) of node pair ``pair``
        (whose row node is ``row``) sits in ``data``."""
        start = node_ptr[row]
        return 9 * start + 3 * deg[row] * i + 3 * (pair - start) + j

    indptr = np.empty(3 * n + 1, index)
    indptr[:-1] = (9 * node_ptr[:-1, None] + 3 * deg[:, None] * dof).ravel()
    indptr[-1] = nnz
    indices = np.empty(nnz, index)
    indices[
        position(
            row_node[:, None, None],
            np.arange(len(pairs))[:, None, None],
            dof[:, None],
            dof,
        )
    ] = 3 * col_node[:, None, None] + dof
    data = np.zeros(nnz)
    k_dense = element_stiffness(mesh, materials, element_ids)
    pair = np.searchsorted(pairs, tets[:, :, None] * n + tets[:, None, :])
    # [e, a, i, b, j]: the layout of k_dense's (12, 12) rows/columns.
    where = position(
        tets[:, :, None, None, None],
        pair[:, :, None, :, None],
        dof[:, None, None],
        dof,
    )
    np.add.at(data, where.ravel(), k_dense.ravel())
    return sp.csr_matrix((data, indices, indptr), shape=(3 * n, 3 * n))


def _assemble(
    mesh: TetMesh,
    materials: ElementMaterials,
    element_ids: Optional[np.ndarray],
    tets: np.ndarray,
    num_nodes: int,
) -> sp.csr_matrix:
    """The ``3 num_nodes`` square stiffness of the elements
    ``element_ids`` (the whole mesh's when ``None``: the global K),
    whose corners in the matrix's node numbering are ``tets``."""
    scope = "global" if element_ids is None else "subdomain"
    with stage_span(_SPANS[scope], track="fem"):
        total = _compiled_assembly(
            mesh, materials, element_ids, tets, num_nodes
        )
        if total is None:
            total = _numpy_assembly(
                mesh, materials, element_ids, tets, num_nodes
            )
    _record_assembly(total.nnz, scope=scope)
    return total


def assemble_stiffness(
    mesh: TetMesh, materials: ElementMaterials
) -> sp.csr_matrix:
    """Assemble the global stiffness matrix (node-block CSR).

    Parameters
    ----------
    mesh, materials:
        Geometry and per-element properties (must cover the full mesh).
    """
    materials.check_covers(mesh)
    return _assemble(mesh, materials, None, mesh.tets, mesh.num_nodes)


def _record_assembly(nnz: int, scope: str) -> None:
    """Fold one finished assembly into the installed registry, if any."""
    reg = get_registry()
    if reg is not None:
        reg.counter(
            "repro_fem_assemblies_total", "stiffness assemblies"
        ).inc(scope=scope)
        reg.counter(
            "repro_fem_assembled_nnz_total",
            "nonzeros across assembled stiffness matrices",
        ).inc(int(nnz), scope=scope)


def assemble_lumped_mass(
    mesh: TetMesh, materials: ElementMaterials
) -> np.ndarray:
    """Lumped mass vector of length 3n (equal mass per dof of a node)."""
    materials.check_covers(mesh)
    node_mass = np.zeros(mesh.num_nodes)
    masses = element_lumped_mass(mesh, materials)
    np.add.at(node_mass, mesh.tets.ravel(), masses.ravel())
    return np.repeat(node_mass, 3)


def _local_corners(
    mesh: TetMesh, element_ids: np.ndarray, local_nodes: np.ndarray
) -> np.ndarray:
    """The corners of ``element_ids`` in the local numbering of
    ``local_nodes`` (:func:`~repro.util.numbering.local_numbering`)."""
    with local_numbering(
        mesh.num_nodes, local_nodes, "element touches a node not in local_nodes"
    ) as local:
        return local(mesh.tets[element_ids])


def assemble_subdomain_stiffness(
    mesh: TetMesh,
    materials: ElementMaterials,
    element_ids: np.ndarray,
    local_nodes: np.ndarray,
) -> sp.csr_matrix:
    """Assemble one PE's local stiffness matrix.

    Parameters
    ----------
    element_ids:
        Global element indices owned by the PE.
    local_nodes:
        Strictly ascending global node indices resident on the PE (from
        :meth:`repro.smvp.DataDistribution.local_nodes`); the result is
        ``3 * len(local_nodes)`` square, in local node numbering.
        ``ValueError`` when an element touches a node not among them,
        or they are not strictly ascending node ids.
    """
    materials.check_covers(mesh)
    element_ids = np.asarray(element_ids, dtype=np.int64)
    local_nodes = np.asarray(local_nodes, dtype=np.int64)
    local_tets = _local_corners(mesh, element_ids, local_nodes)
    return _assemble(mesh, materials, element_ids, local_tets, len(local_nodes))


#: The arrays of one packed state: ``ptr``, ``upper``, ``nbr``, ``ref``
#: and ``blocks`` (see :class:`repro.smvp.kernels.PackedState`).
PackedArrays = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def assemble_subdomain_packed(
    mesh: TetMesh,
    materials: ElementMaterials,
    element_ids: np.ndarray,
    local_nodes: np.ndarray,
) -> Optional[PackedArrays]:
    """One PE's local stiffness as ``csr``'s packed arrays, straight
    from its elements: ``(ptr, upper, nbr, ref, blocks)``, bit for bit
    those :class:`repro.smvp.kernels.PackedState` packs from
    :func:`assemble_subdomain_stiffness`'s matrix, and no CSR on the
    way (``packed_fill`` in ``assembly.c``).

    ``None`` — the caller then assembles the CSR — when an index would
    pass int32, a block below the node diagonal is not its mirror
    transposed bit for bit (the CSR route keeps such a matrix as CSR),
    or an element's ``lam`` or ``mu`` is NaN: a sum of two NaNs keeps
    the payload of whichever operand the compiler put first, which two
    separately compiled passes need not agree on, so only the CSR route
    gives its bits.  Every other value,
    -0.0 and the infinities included, sums alike in either operand
    order.  Refuses what :func:`assemble_subdomain_stiffness` refuses,
    with its messages.
    """
    materials.check_covers(mesh)
    element_ids = np.asarray(element_ids, dtype=np.int64)
    local_nodes = np.asarray(local_nodes, dtype=np.int64)
    n, m = len(local_nodes), len(element_ids)
    if max(3 * n, m) >= _INT32_LIMIT:
        return None
    local_tets = _local_corners(mesh, element_ids, local_nodes)
    ffi, lib = native()
    buf = ffi.from_buffer
    with stage_span(_SPANS["subdomain"], track="fem"):
        corners, graph, node_ptr = _graph(local_tets, n, element_ids)
        entries = int(node_ptr[n])
        if 9 * entries >= _INT32_LIMIT:
            return None
        values = _element_values(mesh, materials, element_ids)
        if np.isnan(values[2]).any() or np.isnan(values[3]).any():
            return None
        length = np.diff(node_ptr)
        # Each off-diagonal pair twice, each touched node's diagonal once.
        n_blocks = (entries + int(np.count_nonzero(length))) // 2
        # One allocation, blocks then the int32 arrays, as
        # PackedState.of lays a state out.
        store = np.empty(72 * n_blocks + 4 * (2 * n + 1 + 2 * entries), np.uint8)
        blocks = store[: 72 * n_blocks].view(np.float64)
        ptr, upper, nbr, ref = np.split(
            store[72 * n_blocks :].view(np.int32),
            np.cumsum([n + 1, n, entries]),
        )
        most = int(length.max()) if n else 0
        ok = lib.packed_fill(
            n,
            corners,
            *graph,
            *(buf("double[]", a) for a in values),
            n_blocks,
            *(buf("int32_t[]", a) for a in (ptr, upper, nbr, ref)),
            buf("double[]", blocks),
            buf("int32_t[]", np.empty(n, np.int32)),
            buf("double[]", np.empty(9 * most)),
        )
    if not ok:
        return None
    _record_assembly(9 * entries, scope="subdomain")
    return ptr, upper, nbr, ref, blocks
