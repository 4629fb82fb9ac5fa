"""The tetrahedral mesh data structure.

A :class:`TetMesh` is the representation every other subsystem consumes:
the mesher produces one, the FEM assembles stiffness matrices over one,
the partitioners split one, and the SMVP statistics are all functions of
one plus a partition.  It is intentionally a thin, immutable-by-convention
container: ``points`` (n, 3) and ``tets`` (m, 4), with topology computed
lazily and cached: one node graph (compiled; see
:mod:`repro.mesh.topology`), which the edges, degrees, adjacency and
connectivity are read from.

Terminology follows the paper: mesh vertices are *nodes* and tetrahedra
are *elements* (the paper reserves "PE" for processors to avoid clashing
with mesh nodes; we do the same).
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

import numpy as np

from repro.geometry import (
    AABB,
    tet_centroids,
    tet_signed_volumes,
    tet_volumes,
)
from repro.mesh import topology


class TetMesh:
    """An unstructured tetrahedral mesh.

    Parameters
    ----------
    points:
        ``(num_nodes, 3)`` float array of node coordinates (meters).
    tets:
        ``(num_elements, 4)`` integer array; each row lists the four node
        indices of one element.
    copy:
        Whether to copy the input arrays (default) or adopt them.

    Notes
    -----
    The arrays should not be mutated after construction: topology is
    cached on first use.  All constructors in this project produce
    positively oriented elements (positive signed volume); ``validate``
    checks this along with index sanity.
    """

    def __init__(
        self, points: np.ndarray, tets: np.ndarray, copy: bool = True
    ) -> None:
        points = np.array(points, dtype=np.float64, copy=copy)
        tets = np.array(tets, dtype=np.int64, copy=copy)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError("points must have shape (num_nodes, 3)")
        if tets.ndim != 2 or tets.shape[1] != 4:
            raise ValueError("tets must have shape (num_elements, 4)")
        self.points = points
        self.tets = tets

    # -- sizes ------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of mesh nodes (the paper's n; vectors have length 3n)."""
        return self.points.shape[0]

    @property
    def num_elements(self) -> int:
        """Number of tetrahedral elements."""
        return self.tets.shape[0]

    @cached_property
    def num_edges(self) -> int:
        """Number of unique undirected node-to-node edges."""
        return self.edges.shape[0]

    def __repr__(self) -> str:
        return (
            f"TetMesh(nodes={self.num_nodes}, elements={self.num_elements}, "
            f"edges={self.num_edges})"
        )

    # -- topology (cached) --------------------------------------------------

    @cached_property
    def node_graph(self) -> topology.NodeGraph:
        """The node graph as CSR (:func:`repro.mesh.topology.node_graph`),
        built once: edges, degrees, adjacency and connectivity read it.

        Raises ``ValueError`` naming the first element with a corner
        outside the node numbering.
        """
        return topology.node_graph(self.tets, self.num_nodes)

    @cached_property
    def edges(self) -> np.ndarray:
        """Unique undirected edges as an (num_edges, 2) array, i < j, sorted."""
        return self.node_graph.edges()

    @cached_property
    def node_degrees(self) -> np.ndarray:
        """Number of distinct neighbors of each node (excluding itself)."""
        return self.node_graph.degrees()

    @cached_property
    def bbox(self) -> AABB:
        """Bounding box of the node coordinates."""
        return AABB.from_points(self.points)

    @cached_property
    def element_centroids(self) -> np.ndarray:
        """Centroid of each element, shape (num_elements, 3)."""
        return tet_centroids(self.points, self.tets)

    def node_adjacency(self):
        """Symmetric sparse (CSR) node adjacency matrix (no self loops)."""
        return self.node_graph.adjacency()

    def element_adjacency(self):
        """Sparse element-to-element adjacency (sharing a face)."""
        return topology.element_adjacency(self.tets)

    def surface_faces(self) -> np.ndarray:
        """Boundary triangles: faces belonging to exactly one element."""
        return topology.surface_faces(self.tets)

    def volumes(self) -> np.ndarray:
        """Element volumes."""
        return tet_volumes(self.points, self.tets)

    def total_volume(self) -> float:
        """Sum of element volumes (equals the domain volume for a
        conforming mesh of a convex domain)."""
        return float(self.volumes().sum())

    # -- integrity -----------------------------------------------------------

    def validate(self, require_positive: bool = True) -> None:
        """Raise ``ValueError`` if the mesh is structurally broken.

        Checks index bounds, duplicate corners within an element, and
        (by default) positive orientation of every element.
        """
        if self.num_elements:
            if self.tets.min() < 0 or self.tets.max() >= self.num_nodes:
                raise ValueError("element refers to an out-of-range node")
            sorted_corners = np.sort(self.tets, axis=1)
            if np.any(sorted_corners[:, :-1] == sorted_corners[:, 1:]):
                raise ValueError("element with repeated node")
            if require_positive:
                vols = tet_signed_volumes(self.points, self.tets)
                if np.any(vols <= 0):
                    bad = int(np.sum(vols <= 0))
                    raise ValueError(
                        f"{bad} elements are degenerate or inverted"
                    )
        if not np.all(np.isfinite(self.points)):
            raise ValueError("non-finite node coordinate")

    def is_connected(self) -> bool:
        """True when the node graph forms a single connected component."""
        return self.node_graph.is_connected()

    def unused_nodes(self) -> np.ndarray:
        """Indices of nodes not referenced by any element."""
        used = np.zeros(self.num_nodes, dtype=bool)
        used[self.tets.ravel()] = True
        return np.flatnonzero(~used)

    # -- derived meshes -------------------------------------------------------

    def compacted(self) -> "TetMesh":
        """Copy of the mesh with unused nodes dropped and indices remapped."""
        used = np.zeros(self.num_nodes, dtype=bool)
        used[self.tets.ravel()] = True
        remap = np.cumsum(used) - 1
        return TetMesh(self.points[used], remap[self.tets], copy=False)

    def subset(self, element_mask: np.ndarray) -> "TetMesh":
        """Mesh restricted to the selected elements (nodes compacted).

        ``element_mask`` may be a boolean mask or an index array over
        elements.  This is how subdomain meshes are carved out of the
        global mesh.
        """
        sub = TetMesh(self.points, self.tets[element_mask], copy=False)
        return sub.compacted()
