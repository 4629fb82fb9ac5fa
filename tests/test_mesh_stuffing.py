"""Tests for repro.mesh.stuffing (the conforming octree mesher)."""

import numpy as np
import pytest

from repro.geometry import AABB
from repro.mesh import topology
from repro.mesh.stuffing import (
    _TEMPLATES,
    _face_template,
    jitter_mesh,
    stuff_octree,
)
from repro.octree.linear import LinearOctree
from repro.velocity.sizing import UniformSizingField

UNIT = AABB((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))


def assert_conforming(mesh, domain):
    """A stuffed mesh must exactly tile the domain.

    Checks: positive elements, exact volume, and that every face
    belonging to a single element lies on the domain boundary (interior
    faces always shared by exactly two elements = no T-vertices
    geometrically visible as cracks)."""
    mesh.validate()
    assert mesh.total_volume() == pytest.approx(domain.volume)
    surf = topology.surface_faces(mesh.tets)
    pts = mesh.points[surf]
    lo = np.asarray(domain.lo)
    hi = np.asarray(domain.hi)
    on_boundary = np.zeros(len(surf), dtype=bool)
    for axis in range(3):
        for value in (lo[axis], hi[axis]):
            on_boundary |= np.all(
                np.abs(pts[:, :, axis] - value) < 1e-9 * max(hi - lo), axis=1
            )
    assert on_boundary.all(), "surface face not on the domain boundary"


class TestFaceTemplates:
    def test_plain_face_two_triangles(self):
        assert len(_face_template(0, False)) == 2
        assert len(_face_template(0, True)) == 2

    def test_full_split_eight_triangles(self):
        # Center + all four midpoints: fan of 8.
        assert len(_face_template(0b11111, False)) == 8

    def test_single_midpoint_three_triangles(self):
        for bit in range(4):
            assert len(_face_template(1 << bit, False)) == 3

    def test_templates_cover_area(self):
        # Every template's triangles must tile the unit quad exactly.
        from repro.mesh.stuffing import _POS_UV

        for (pattern, anti), tris in sorted(_TEMPLATES.items()):
            area = 0.0
            for a, b, c in tris:
                pa, pb, pc = _POS_UV[a], _POS_UV[b], _POS_UV[c]
                area += abs(
                    (pb[0] - pa[0]) * (pc[1] - pa[1])
                    - (pb[1] - pa[1]) * (pc[0] - pa[0])
                ) / 2.0
            assert area == pytest.approx(4.0), (pattern, anti)  # 2x2 units

    def test_no_degenerate_triangles(self):
        for tris in _TEMPLATES.values():
            from repro.mesh.stuffing import _collinear

            for a, b, c in tris:
                assert not _collinear(a, b, c)


class TestStuffing:
    def test_single_cell(self, cube_mesh):
        # 8 corners + 1 center, 6 faces x 2 triangles = 12 tets.
        assert cube_mesh.num_nodes == 9
        assert cube_mesh.num_elements == 12
        assert_conforming(cube_mesh, UNIT)

    def test_uniform_two_levels(self):
        tree = LinearOctree(UNIT, (1, 1, 1))
        tree.refine(UniformSizingField(0.5))
        tree.balance()
        mesh, spacing = stuff_octree(tree)
        # 8 cells: 27 corners + 8 centers.
        assert mesh.num_nodes == 35
        assert len(spacing) == mesh.num_nodes
        assert_conforming(mesh, UNIT)

    def test_graded_tree_conforms(self, graded_cube_tree):
        mesh, _ = stuff_octree(graded_cube_tree)
        assert_conforming(mesh, UNIT)

    def test_forest_conforms(self):
        box = AABB((0.0, 0.0, 0.0), (2.0, 1.0, 1.0))
        tree = LinearOctree(box, (2, 1, 1))
        tree.refine(UniformSizingField(0.5))
        tree.balance()
        mesh, _ = stuff_octree(tree)
        assert_conforming(mesh, box)

    def test_spacing_reflects_leaf_sizes(self, graded_cube_tree):
        mesh, spacing = stuff_octree(graded_cube_tree)
        sizes = {graded_cube_tree.cell_size(l) for l in graded_cube_tree.levels}
        assert set(np.unique(spacing)) <= sizes

    def test_empty_tree_rejected(self):
        tree = LinearOctree(UNIT, (1, 1, 1))
        tree.levels = {}
        with pytest.raises(ValueError):
            stuff_octree(tree)

    def test_lattice_keys_bound_the_depth(self):
        """A leaf whose far corner needs a 22nd key bit per axis is
        refused (the keys would collide); one level shallower meshes."""
        top = LinearOctree(UNIT, (1, 1, 1), {19: [[0, 0, 2**19 - 1]]})
        mesh, _ = stuff_octree(top)
        mesh.validate()
        assert mesh.num_elements == 12
        assert mesh.total_volume() == pytest.approx(2.0**-57)
        too_deep = LinearOctree(UNIT, (1, 1, 1), {20: [[0, 0, 2**20 - 1]]})
        with pytest.raises(ValueError, match="too deep"):
            stuff_octree(too_deep)

    def test_deterministic(self, graded_cube_tree):
        m1, _ = stuff_octree(graded_cube_tree)
        m2, _ = stuff_octree(graded_cube_tree)
        assert np.array_equal(m1.points, m2.points)
        assert np.array_equal(m1.tets, m2.tets)


class TestJitterMesh:
    def test_volume_preserved_and_positive(self, graded_cube_tree):
        mesh, spacing = stuff_octree(graded_cube_tree)
        jittered = jitter_mesh(mesh, spacing, amplitude=0.15, seed=1)
        jittered.validate()
        assert jittered.total_volume() == pytest.approx(1.0)

    def test_topology_unchanged(self, graded_cube_tree):
        mesh, spacing = stuff_octree(graded_cube_tree)
        jittered = jitter_mesh(mesh, spacing, amplitude=0.15)
        assert np.array_equal(jittered.tets, mesh.tets)

    def test_interior_nodes_moved(self, graded_cube_tree):
        mesh, spacing = stuff_octree(graded_cube_tree)
        jittered = jitter_mesh(mesh, spacing, amplitude=0.15, seed=0)
        assert not np.array_equal(jittered.points, mesh.points)

    def test_boundary_nodes_stay_on_boundary(self, graded_cube_tree):
        mesh, spacing = stuff_octree(graded_cube_tree)
        jittered = jitter_mesh(mesh, spacing, amplitude=0.2, seed=2)
        for axis in range(3):
            for value in (0.0, 1.0):
                before = np.abs(mesh.points[:, axis] - value) < 1e-12
                assert np.all(
                    np.abs(jittered.points[before, axis] - value) < 1e-12
                )

    def test_zero_amplitude_identity(self, cube_mesh):
        spacing = np.ones(cube_mesh.num_nodes)
        assert jitter_mesh(cube_mesh, spacing, amplitude=0.0) is cube_mesh

    def test_validation(self, cube_mesh):
        with pytest.raises(ValueError):
            jitter_mesh(cube_mesh, np.ones(3), amplitude=0.1)
        with pytest.raises(ValueError):
            jitter_mesh(cube_mesh, np.ones(cube_mesh.num_nodes), amplitude=0.7)

    def test_deterministic(self, graded_cube_tree):
        mesh, spacing = stuff_octree(graded_cube_tree)
        a = jitter_mesh(mesh, spacing, amplitude=0.1, seed=9)
        b = jitter_mesh(mesh, spacing, amplitude=0.1, seed=9)
        assert np.array_equal(a.points, b.points)
