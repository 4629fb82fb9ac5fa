"""Tests for repro.mesh.topology (the node graph: tests/test_node_graph.py)."""

import numpy as np
import pytest

from repro.mesh import topology


class TestElementAdjacency:
    def test_two_tets_sharing_face(self, two_tet_mesh):
        adj = topology.element_adjacency(two_tet_mesh.tets)
        assert adj[0, 1] == 1 and adj[1, 0] == 1

    def test_tets_sharing_only_edge_not_adjacent(self):
        # Two tets sharing edge (0, 1) but no face.
        tets = np.array([[0, 1, 2, 3], [0, 1, 4, 5]])
        adj = topology.element_adjacency(tets)
        assert adj.nnz == 0

    def test_empty(self):
        assert topology.element_adjacency(np.empty((0, 4), dtype=int)).shape == (0, 0)

    def test_mesh_adjacency_degree_bounded_by_four(self, demo_mesh):
        adj = demo_mesh.element_adjacency()
        degrees = np.asarray(adj.sum(axis=1)).ravel()
        assert degrees.max() <= 4
        assert degrees.min() >= 1


class TestSurfaceFaces:
    def test_counts(self, two_tet_mesh):
        faces = topology.surface_faces(two_tet_mesh.tets)
        assert len(faces) == 6
        # The shared face (0,1,2) must not be in the boundary.
        assert not any(set(f) == {0, 1, 2} for f in faces)

    def test_euler_like_consistency(self, demo_mesh):
        # Every face appears once (boundary) or twice (interior):
        # 4 * elements = boundary + 2 * interior.
        boundary = len(topology.surface_faces(demo_mesh.tets))
        adj = topology.element_adjacency(demo_mesh.tets)
        interior = adj.nnz // 2
        assert 4 * demo_mesh.num_elements == boundary + 2 * interior

