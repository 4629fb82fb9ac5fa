"""Partition quality metrics.

These are the quantities the paper says a good partitioner optimizes
(Section 2.2): equal element counts per subdomain and few mesh nodes
shared between subdomains.  ``partition_metrics`` is what the
partitioner-comparison ablation bench reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.mesh.core import TetMesh
from repro.mesh.topology import element_adjacency
from repro.partition.base import Partition
from repro.util.keys import sorted_unique


def node_part_incidence(mesh: TetMesh, partition: Partition) -> sp.csr_matrix:
    """Boolean sparse (num_nodes, num_parts) matrix: node i resides on
    part j (because some element of part j touches node i).

    This is the fundamental object behind all communication statistics:
    a node is *shared* when its row has two or more nonzeros, and the
    vectors x/y are replicated on exactly the parts of its row.

    Built in canonical form (sorted rows, no duplicates, int8 ones)
    straight from the sorted distinct ``node * p + part`` keys (int32
    when they fit, which halves the sort).
    """
    n, p = mesh.num_nodes, partition.num_parts
    index = np.int32 if max(n * p, 4 * mesh.num_elements) < 2**31 else np.int64
    keys = mesh.tets.astype(index) * index(p) + partition.parts[:, None]
    nodes, parts = np.divmod(sorted_unique(keys), index(p))
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.bincount(nodes, minlength=n), out=indptr[1:])
    mat = sp.csr_matrix(
        (np.ones(len(parts), dtype=np.int8), parts, indptr),
        shape=(n, p),
    )
    mat.has_canonical_format = True
    return mat


@dataclass(frozen=True)
class PartitionMetrics:
    """Summary of one partition's quality."""

    method: str
    num_parts: int
    imbalance: float  # max part size / ideal part size
    shared_nodes: int  # nodes residing on >= 2 parts
    shared_fraction: float  # shared_nodes / num_nodes
    replication: float  # sum of residencies / num_nodes (>= 1.0)
    max_node_parts: int  # worst node's residency count
    cut_faces: int  # element faces whose two elements sit on different parts

    def __str__(self) -> str:
        return (
            f"{self.method}/{self.num_parts}: imbalance={self.imbalance:.3f} "
            f"shared={self.shared_nodes} ({100 * self.shared_fraction:.1f}%) "
            f"replication={self.replication:.3f} cut_faces={self.cut_faces}"
        )


def partition_metrics(mesh: TetMesh, partition: Partition) -> PartitionMetrics:
    """Compute :class:`PartitionMetrics` for a partition of ``mesh``."""
    if partition.num_elements != mesh.num_elements:
        raise ValueError("partition does not match mesh")
    incidence = node_part_incidence(mesh, partition)
    residency = np.asarray(incidence.sum(axis=1)).ravel()
    shared = int(np.count_nonzero(residency >= 2))
    # Cut faces: adjacent element pairs straddling a part boundary.
    adj = element_adjacency(mesh.tets).tocoo()
    parts = partition.parts
    crossing = parts[adj.row] != parts[adj.col]
    cut_faces = int(np.count_nonzero(crossing) // 2)
    return PartitionMetrics(
        method=partition.method,
        num_parts=partition.num_parts,
        imbalance=partition.imbalance(),
        shared_nodes=shared,
        shared_fraction=shared / max(mesh.num_nodes, 1),
        replication=float(residency.sum() / max(mesh.num_nodes, 1)),
        max_node_parts=int(residency.max()) if len(residency) else 0,
        cut_faces=cut_faces,
    )
