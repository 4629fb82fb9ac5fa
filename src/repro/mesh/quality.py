"""Element quality statistics.

Quality matters here for a specific reason: the paper's flop and
communication counts assume the mesh is a reasonable unstructured mesh
(bounded node degree, gradual size changes).  The quality report gives
tests something concrete to assert.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry import (
    tet_edge_lengths,
    tet_quality_radius_ratio,
    tet_volumes,
)
from repro.mesh.core import TetMesh


@dataclass(frozen=True)
class QualityReport:
    """Summary statistics over a mesh's elements and node graph."""

    num_nodes: int
    num_elements: int
    num_edges: int
    mean_degree: float
    max_degree: int
    min_quality: float
    mean_quality: float
    p05_quality: float
    min_volume: float
    total_volume: float
    max_edge_ratio: float  # longest/shortest edge, worst element

    def __str__(self) -> str:
        return (
            f"nodes={self.num_nodes} elements={self.num_elements} "
            f"edges={self.num_edges} degree(mean={self.mean_degree:.1f}, "
            f"max={self.max_degree}) quality(min={self.min_quality:.3f}, "
            f"mean={self.mean_quality:.3f}, p05={self.p05_quality:.3f}) "
            f"volume(total={self.total_volume:.3e})"
        )


def quality_report(mesh: TetMesh) -> QualityReport:
    """Compute a :class:`QualityReport` for a mesh."""
    q = tet_quality_radius_ratio(mesh.points, mesh.tets)
    vols = tet_volumes(mesh.points, mesh.tets)
    edges = tet_edge_lengths(mesh.points, mesh.tets)
    longest, shortest = edges.max(axis=1), edges.min(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        edge_ratio = np.where(shortest > 0, longest / shortest, np.inf)
    degrees = mesh.node_degrees
    return QualityReport(
        num_nodes=mesh.num_nodes,
        num_elements=mesh.num_elements,
        num_edges=mesh.num_edges,
        mean_degree=float(degrees.mean()) if len(degrees) else 0.0,
        max_degree=int(degrees.max()) if len(degrees) else 0,
        min_quality=float(q.min()) if len(q) else 1.0,
        mean_quality=float(q.mean()) if len(q) else 1.0,
        p05_quality=float(np.percentile(q, 5)) if len(q) else 1.0,
        min_volume=float(vols.min()) if len(vols) else 0.0,
        total_volume=float(vols.sum()),
        max_edge_ratio=float(edge_ratio.max()) if len(q) else 1.0,
    )
