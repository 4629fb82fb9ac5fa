"""Runtime memory model.

The paper (Section 2.1): "for each node in the mesh, a simulation uses
about 1.2 KByte of memory at runtime to accommodate the storage of
several vectors and sparse matrices.  For example, sf2 requires about
450 MBytes of memory at runtime."  This module derives that number from
first principles for any mesh, so the §1 EXFLOW comparison ("about 2
MBytes of data on each PE") and the §2.1 claim can both be checked.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import paperdata

#: Bytes per 64-bit float and per 32-bit index.
_FLOAT = 8
_INDEX = 4

#: Runtime vectors of length 3n kept live by the explicit solver — the
#: ExplicitTimeStepper working set: its three rotating state buffers
#: (u, u_prev, the spare that becomes u_next), the SMVP product ku, the
#: force f, M, M^-1 and the per-dof damping vector.
VECTORS_PER_NODE = 8


@dataclass(frozen=True)
class MemoryModel:
    """Estimated runtime memory for one mesh (or subdomain)."""

    num_nodes: int
    num_edges: int
    matrix_bytes: int
    vector_bytes: int
    mesh_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.matrix_bytes + self.vector_bytes + self.mesh_bytes

    @property
    def bytes_per_node(self) -> float:
        """Comparable to the paper's 1.2 KByte/node rule."""
        return self.total_bytes / self.num_nodes if self.num_nodes else 0.0

    @property
    def mbytes(self) -> float:
        return self.total_bytes / 2**20


def memory_model(
    num_nodes: int,
    num_edges: int,
    num_elements: int = 0,
    vectors: int = VECTORS_PER_NODE,
) -> MemoryModel:
    """Estimate runtime memory from structural mesh counts.

    The stiffness matrix is costed in 3x3 block-sparse-row form: one
    dense 3x3 block (72 bytes) plus a 4-byte column index per stored
    block, with ``num_nodes + 2 * num_edges`` blocks, plus row pointers.
    Vectors are ``vectors`` arrays of 3 doubles per node.  Mesh
    connectivity (4 indices per element plus coordinates) is included
    because the real applications keep it live for output.
    """
    if num_nodes < 0 or num_edges < 0 or num_elements < 0:
        raise ValueError("counts must be non-negative")
    blocks = num_nodes + 2 * num_edges
    matrix_bytes = blocks * (9 * _FLOAT + _INDEX) + (3 * num_nodes + 1) * _INDEX
    vector_bytes = vectors * 3 * _FLOAT * num_nodes
    mesh_bytes = num_elements * 4 * _INDEX + num_nodes * 3 * _FLOAT
    return MemoryModel(
        num_nodes=num_nodes,
        num_edges=num_edges,
        matrix_bytes=matrix_bytes,
        vector_bytes=vector_bytes,
        mesh_bytes=mesh_bytes,
    )


def paper_rule_bytes(num_nodes: int) -> float:
    """The paper's flat 1.2 KByte/node estimate for comparison."""
    return paperdata.MEMORY_BYTES_PER_NODE * num_nodes
