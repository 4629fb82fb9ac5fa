"""Tests for repro.mesh.stuffing (the conforming octree mesher).

The tets come from compiled per-level passes (``mesh/stuffing.c``);
numpy's sorted lookups (``stuffing._numpy_tets``, the path of a tree
with 2**31 nodes, called directly here) give the same bits:

* compiled == numpy (tets, points, spacing) on demo, sf10e and sf5e
  and on Hypothesis forests (a single leaf and multi-root forests
  among them), balanced ones conforming;
* a tree that would leave a node on a leaf face where the face's
  template cannot see it is refused with ``UnbalancedOctreeError``
  naming the leaf, on both paths; any unbalanced tree either is
  refused or meshes conforming;
* the empty, too-deep and coincident-node refusals raise the same
  error on both paths.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import AABB
from repro.mesh import stuffing, topology
from repro.mesh.instances import get_instance
from repro.mesh.stuffing import (
    _TEMPLATES,
    UnbalancedOctreeError,
    _face_template,
    jitter_mesh,
    stuff_octree,
)
from repro.octree.linear import LinearOctree
from repro.velocity.sizing import UniformSizingField, WavelengthSizingField

UNIT = AABB((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))


def numpy_stuff_octree(tree):
    """``stuff_octree(tree)`` with the tets from numpy's lookups."""
    leaves, scale_bits, node_keys, node_sizes, corner_keys, node_ids = (
        stuffing._lattice_nodes(tree)
    )
    tets = stuffing._numpy_tets(
        leaves, scale_bits, node_keys, node_ids[: len(corner_keys)]
    )
    mesh = stuffing._oriented_mesh(tree, scale_bits, node_keys, tets)
    return mesh, node_sizes


#: The compiled stuffing, then its numpy specification.
STUFFINGS = (stuff_octree, numpy_stuff_octree)


def stuffed_on_both_paths(tree):
    """``stuff_octree(tree)`` by each spelling, checked bit-identical."""
    results = [stuff(tree) for stuff in STUFFINGS]
    (mesh, spacing), rest = results[0], results[1:]
    for other, other_spacing in rest:
        assert mesh.tets.tobytes() == other.tets.tobytes()
        assert mesh.points.tobytes() == other.points.tobytes()
        assert spacing.tobytes() == other_spacing.tobytes()
    return mesh, spacing


def refusals_on_both_paths(tree):
    """The error each path raises on ``tree`` (``None`` when it meshes),
    checked the same type and message."""
    seen = []
    for stuff in STUFFINGS:
        try:
            stuff(tree)
        except ValueError as err:
            seen.append(err)
        else:
            seen.append(None)
    first = seen[0]
    for err in seen[1:]:
        assert type(err) is type(first)
        assert str(err) == str(first)
    return first


def instance_tree(name):
    """The balanced octree :func:`repro.mesh.generate_mesh` stuffs for
    the named instance."""
    inst = get_instance(name)
    model = inst.model()
    sizing = WavelengthSizingField(
        model, period=inst.period, points_per_wavelength=inst.points_per_wavelength
    )
    return LinearOctree.build(
        model.domain, sizing, base_shape=(5, 5, 1), dither=True, dither_seed=inst.seed
    )


@st.composite
def forests(draw, balanced):
    """A forest of unit roots (a single leaf among them) whose leaves
    split at random for up to three levels, 2:1-balanced if asked."""
    base = draw(st.tuples(*[st.integers(1, 2)] * 3))
    depth = draw(st.integers(0, 3))
    chance = draw(st.floats(0.0, 0.7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tree = LinearOctree(AABB((0.0, 0.0, 0.0), tuple(map(float, base))), base)
    for level in range(depth):
        coords = tree.levels.get(level)
        if coords is None:
            break
        split = rng.random(len(coords)) < chance
        if not split.any():
            continue
        if split.all():
            del tree.levels[level]
        else:
            tree.levels[level] = coords[~split]
        tree.levels[level + 1] = LinearOctree._children(coords[split])
    if balanced:
        tree.balance()
    return tree


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


class TestCompiledEqualsNumpy:
    @pytest.mark.parametrize("name", ["demo", "sf10e", "sf5e"])
    def test_instance(self, name):
        tree = instance_tree(name)
        mesh, _ = stuffed_on_both_paths(tree)
        # The tree is the instance's: jitter moves points, not tets.
        assert np.array_equal(mesh.tets, get_instance(name).build()[0].tets)

    @settings(max_examples=60, deadline=None)
    @given(forests(balanced=True))
    def test_balanced_forests_conform(self, tree):
        mesh, _ = stuffed_on_both_paths(tree)
        assert_conforming(mesh, tree.domain)

    @pytest.mark.parametrize("base", [(1, 1, 1), (3, 2, 1)])
    def test_unrefined_forests(self, base):
        tree = LinearOctree(AABB((0.0, 0.0, 0.0), tuple(map(float, base))), base)
        mesh, _ = stuffed_on_both_paths(tree)
        assert mesh.num_elements == 12 * int(np.prod(base))
        assert_conforming(mesh, tree.domain)


def fine_beside_coarse():
    """The 2 x 1 x 1 forest with root (1, 0, 0) refined twice beside the
    level-0 leaf (0, 0, 0): level-2 corners sit on quarter points of
    that leaf's face x = 1, where its template cannot see them."""
    box = AABB((0.0, 0.0, 0.0), (2.0, 1.0, 1.0))
    level1 = LinearOctree._children(np.array([[1, 0, 0]]))
    fine = np.array([[2, 0, 0]])
    return LinearOctree(
        box,
        (2, 1, 1),
        {
            0: np.array([[0, 0, 0]]),
            1: level1[np.any(level1 != fine, axis=1)],
            2: LinearOctree._children(fine),
        },
    )


class TestRefusals:
    def test_a_hidden_face_node_is_refused_by_leaf(self):
        tree = fine_beside_coarse()
        for stuff in STUFFINGS:
            with pytest.raises(
                UnbalancedOctreeError, match=r"leaf \(0, 0, 0\) at level 0"
            ) as refused:
                stuff(tree)
            assert refused.value.level == 0
            assert refused.value.leaf == (0, 0, 0)
            assert isinstance(refused.value, ValueError)

    def test_the_balanced_tree_conforms(self):
        tree = fine_beside_coarse()
        assert tree.balance() > 0
        mesh, _ = stuffed_on_both_paths(tree)
        assert_conforming(mesh, tree.domain)

    def test_a_level_one_step_is_accepted(self):
        """Root (1, 0, 0) refined once beside a level-0 leaf: balanced,
        so the quarter-point lookups find nothing."""
        box = AABB((0.0, 0.0, 0.0), (2.0, 1.0, 1.0))
        tree = LinearOctree(
            box,
            (2, 1, 1),
            {
                0: np.array([[0, 0, 0]]),
                1: LinearOctree._children(np.array([[1, 0, 0]])),
            },
        )
        mesh, _ = stuffed_on_both_paths(tree)
        assert_conforming(mesh, box)

    def test_a_two_level_jump_across_a_corner_alone_conforms(self):
        """The level-0 root (0, 0, 0) meets level-2 leaves only at its
        corner (1, 1, 1): not balanced, but no node hides on its faces."""
        box = AABB((0.0, 0.0, 0.0), (2.0, 2.0, 2.0))
        roots = np.array(list(np.ndindex(2, 2, 2)))
        level1 = LinearOctree._children(roots[1:])
        corner = np.array([[2, 2, 2]])
        tree = LinearOctree(
            box,
            (2, 2, 2),
            {
                0: roots[:1],
                1: level1[np.any(level1 != corner, axis=1)],
                2: LinearOctree._children(corner),
            },
        )
        assert not tree.is_balanced()
        mesh, _ = stuffed_on_both_paths(tree)
        assert_conforming(mesh, box)

    @settings(max_examples=80, deadline=None)
    @given(forests(balanced=False))
    def test_an_unbalanced_forest_is_refused_or_conforms(self, tree):
        """A jump of two levels across a leaf's corner alone leaves no
        node its faces cannot see; across a face or an edge it does."""
        if refusals_on_both_paths(tree) is None:
            mesh, _ = stuffed_on_both_paths(tree)
            assert_conforming(mesh, tree.domain)

    @pytest.mark.parametrize(
        "levels, message",
        [
            ({}, "empty octree"),
            ({20: [[0, 0, 2**20 - 1]]}, "too deep"),
            ({0: [[0, 0, 0]], 1: [[0, 0, 0]]}, "coincident"),
        ],
    )
    def test_the_same_refusal_on_both_paths(self, levels, message):
        tree = LinearOctree(UNIT, (1, 1, 1), levels)
        if not levels:
            tree.levels = {}
        err = refusals_on_both_paths(tree)
        assert type(err) is ValueError
        assert message in str(err)


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
