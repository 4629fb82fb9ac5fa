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
from repro.partition.geometric import _is_c_array
from repro.util.keys import sorted_unique
from repro.util.native import native


def node_part_incidence(mesh: TetMesh, partition: Partition) -> sp.csr_matrix:
    """Boolean sparse (num_nodes, num_parts) matrix: node i resides on
    part j (because some element of part j touches node i).

    This is the fundamental object behind all communication statistics:
    a node is *shared* when its row has two or more nonzeros, and the
    vectors x/y are replicated on exactly the parts of its row.

    Built in canonical form (sorted rows, no duplicates, int8 ones,
    int32 index arrays when ``n p`` and ``4 m`` fit) by one compiled
    pass without a sort (``cut.c``'s ``incidence_rows`` /
    ``incidence_parts``: each element's part bit ORed into its corners'
    ``ceil(p / 64)`` words, then popcount for the row pointers and the
    set bits for the rows).  For arrays the pass does not take (another
    dtype or layout), the rows come from :func:`_incidence_numpy`: the
    oracle, with the same arrays.  A corner outside ``[0, num_nodes)``
    is a ``ValueError`` naming its element.
    """
    n, p = mesh.num_nodes, partition.num_parts
    index = np.int32 if max(n * p, 4 * mesh.num_elements) < 2**31 else np.int64
    tets, labels = mesh.tets, partition.parts
    if (
        _is_c_array(tets, np.int64, 4)
        and _is_c_array(labels, np.int32)
        and len(labels) == len(tets)
    ):
        ffi, lib = native()
        buf = ffi.from_buffer
        words = np.zeros(n * -(-p // 64), dtype=np.uint64)
        indptr = np.empty(n + 1, dtype=np.int64)
        nnz = lib.incidence_rows(
            n, len(tets), buf("int64_t[]", tets), buf("int32_t[]", labels),
            p, buf("uint64_t[]", words), buf("int64_t[]", indptr),
        )
        if nnz < 0:
            e = -1 - nnz
            if ((tets[e] >= 0) & (tets[e] < n)).all():
                raise ValueError(
                    f"element {e} has part {int(labels[e])} outside [0, {p})"
                )
            raise _corner_error(tets, n, e)
        parts = np.empty(nnz, dtype=np.int32)
        lib.incidence_parts(
            n, p, buf("uint64_t[]", words), buf("int32_t[]", parts)
        )
        indptr = indptr.astype(index, copy=False)
        parts = parts.astype(index, copy=False)
    else:
        indptr, parts = _incidence_numpy(tets, labels, n, p, index)
    mat = sp.csr_matrix(
        (np.ones(len(parts), dtype=np.int8), parts, indptr),
        shape=(n, p),
    )
    mat.has_canonical_format = True
    return mat


def _incidence_numpy(
    tets: np.ndarray, labels: np.ndarray, n: int, p: int, index: type
) -> tuple:
    """The rows of :func:`node_part_incidence` as ``(indptr, parts)`` of
    ``index`` dtype, from the sorted distinct ``node * p + part`` keys
    (:func:`~repro.util.keys.sorted_unique`): the compiled pass's
    specification."""
    bad = ((tets < 0) | (tets >= n)).any(axis=1)
    if bad.any():
        raise _corner_error(tets, n, int(np.argmax(bad)))
    keys = tets.astype(index) * index(p) + labels[:, None]
    nodes, parts = np.divmod(sorted_unique(keys), index(p))
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.bincount(nodes, minlength=n), out=indptr[1:])
    return indptr, parts


def _corner_error(tets: np.ndarray, n: int, e: int) -> ValueError:
    """The error for element ``e``, which has a corner outside
    ``[0, n)``."""
    return ValueError(
        f"element {e} has a corner outside [0, {n}): {tets[e].tolist()}"
    )


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
    residency = np.diff(node_part_incidence(mesh, partition).indptr)
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
