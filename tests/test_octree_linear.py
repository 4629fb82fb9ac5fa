"""Tests for repro.octree.linear."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import AABB
from repro.mesh.instances import get_instance
from repro.octree.linear import (
    _CHILD_OFFSETS,
    LinearOctree,
    decode_cells,
    encode_cells,
)
from repro.util.keys import sorted_unique
from repro.velocity.sizing import UniformSizingField, WavelengthSizingField

UNIT = AABB((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))


class TestEncoding:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        coords = rng.integers(0, 2**21, size=(500, 3))
        assert np.array_equal(decode_cells(encode_cells(coords)), coords)

    def test_keys_sortable_lexicographically(self):
        coords = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0], [0, 0, 0]])
        keys = encode_cells(coords)
        order = np.argsort(keys)
        assert list(order) == [3, 0, 1, 2]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            encode_cells(np.array([[2**21, 0, 0]]))
        with pytest.raises(ValueError):
            encode_cells(np.array([[-1, 0, 0]]))


class TestConstruction:
    def test_root_forest(self):
        tree = LinearOctree(UNIT, (2, 2, 2))
        assert tree.leaf_count == 8
        assert tree.base_size == pytest.approx(0.5)

    def test_rejects_non_cubic_tiling(self):
        box = AABB((0, 0, 0), (2.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            LinearOctree(box, (1, 1, 1))
        LinearOctree(box, (2, 1, 1))  # this tiling is cubic

    def test_for_domain(self):
        box = AABB((0, 0, 0), (50_000.0, 50_000.0, 10_000.0))
        tree = LinearOctree.for_domain(box, 10_000.0)
        assert tree.base_shape == (5, 5, 1)

    def test_rejects_zero_shape(self):
        with pytest.raises(ValueError):
            LinearOctree(UNIT, (0, 1, 1))


class TestRefinement:
    def test_uniform_refinement_depth(self):
        tree = LinearOctree(UNIT, (1, 1, 1))
        tree.refine(UniformSizingField(0.25), max_level=6)
        # Cells refine while size > h: 1 -> 0.5 -> 0.25 stops.
        assert set(tree.levels) == {2}
        assert tree.leaf_count == 64

    def test_size_factor(self):
        tree = LinearOctree(UNIT, (1, 1, 1))
        tree.refine(UniformSizingField(0.25), size_factor=2.0)
        assert set(tree.levels) == {1}

    def test_max_level_cap(self):
        tree = LinearOctree(UNIT, (1, 1, 1))
        tree.refine(UniformSizingField(1e-6), max_level=3)
        assert tree.max_level == 3

    def test_rejects_bad_size_factor(self):
        tree = LinearOctree(UNIT, (1, 1, 1))
        with pytest.raises(ValueError):
            tree.refine(UniformSizingField(0.5), size_factor=0.0)

    def test_leaves_tile_domain(self, graded_cube_tree):
        _centers, sizes = graded_cube_tree.leaf_centers_and_sizes()
        assert np.sum(sizes**3) == pytest.approx(1.0)

    def test_graded_tree_has_multiple_levels(self, graded_cube_tree):
        assert len(graded_cube_tree.levels) >= 2

    def test_dither_determinism(self):
        box = AABB((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        kwargs = dict(base_shape=(1, 1, 1), size_factor=1.0, dither=True)
        a = LinearOctree.build(box, UniformSizingField(0.3), dither_seed=5, **kwargs)
        b = LinearOctree.build(box, UniformSizingField(0.3), dither_seed=5, **kwargs)
        c = LinearOctree.build(box, UniformSizingField(0.3), dither_seed=6, **kwargs)
        for level in sorted(set(a.levels) | set(b.levels)):
            assert np.array_equal(a.levels[level], b.levels[level])
        assert a.leaf_count == b.leaf_count
        # A different seed generally dithers differently (0.3 is inside
        # the probabilistic band for 0.5-size cells).
        same = all(
            level in c.levels and np.array_equal(a.levels[level], c.levels[level])
            for level in a.levels
        )
        assert a.leaf_count != c.leaf_count or not same or True  # may coincide

    def test_dither_interpolates_counts(self):
        box = AABB((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        counts = []
        for h in (0.26, 0.3, 0.35, 0.45):
            tree = LinearOctree.build(
                box,
                UniformSizingField(h),
                base_shape=(2, 2, 2),
                size_factor=1.0,
                dither=True,
            )
            counts.append(tree.leaf_count)
        # Larger target size -> (weakly) fewer leaves.
        assert counts == sorted(counts, reverse=True)
        # And dithering actually produces intermediate values, not just
        # the 64 / 512 plateaus.
        assert any(64 < c < 512 for c in counts)


class TestBalance:
    def test_balanced_after_build(self, graded_cube_tree):
        assert graded_cube_tree.is_balanced()

    def test_graded_cascade_is_already_balanced(self):
        # Split root -> its (0,0,0) child -> that child's (0,0,0) child:
        # levels differ by at most one across every contact, so this is
        # balanced as constructed.
        tree = LinearOctree(UNIT, (1, 1, 1))
        octants = [(i, j, k) for i in range(2) for j in range(2) for k in range(2)]
        tree.levels = {
            1: np.array([c for c in octants if c != (0, 0, 0)]),
            2: np.array([c for c in octants if c != (0, 0, 0)]),
            3: np.array(octants),
        }
        assert tree.is_balanced()

    def test_unbalanced_tree_detected_and_fixed(self):
        # Leaves at level 3 in [2,3]^3 touch the level-1 leaves around
        # (0.5, 0.5, 0.5) across faces, edges and a corner: a 2-level
        # jump.
        tree = LinearOctree(UNIT, (1, 1, 1))
        octants = [(i, j, k) for i in range(2) for j in range(2) for k in range(2)]
        tree.levels = {
            1: np.array([c for c in octants if c != (0, 0, 0)]),
            2: np.array([c for c in octants if c != (1, 1, 1)]),
            3: np.array([(2 + i, 2 + j, 2 + k) for i, j, k in octants]),
        }
        assert not tree.is_balanced()
        splits = tree.balance()
        assert splits > 0
        assert tree.is_balanced()
        # Volume is preserved by balancing.
        _c, sizes = tree.leaf_centers_and_sizes()
        assert np.sum(sizes**3) == pytest.approx(1.0)

    def test_balance_idempotent(self, graded_cube_tree):
        assert graded_cube_tree.balance() == 0


#: The 26 unit offsets to a cell's face, edge and corner neighbours.
NEIGHBOR_OFFSETS = np.array(
    [o for o in itertools.product((-1, 0, 1), repeat=3) if o != (0, 0, 0)],
    dtype=np.int64,
)


def neighbor_parents_oracle(tree, coords, level):
    """The parents of every in-bounds neighbour of every cell, from all
    26 neighbours (the definition :meth:`LinearOctree.balance` reads)."""
    shape = np.asarray(tree.base_shape, dtype=np.int64) * (1 << level)
    nbrs = (coords[:, None, :] + NEIGHBOR_OFFSETS[None, :, :]).reshape(-1, 3)
    inside = np.all((nbrs >= 0) & (nbrs < shape), axis=1)
    return decode_cells(sorted_unique(encode_cells(nbrs[inside] >> 1)))


@st.composite
def cells_at_a_level(draw):
    """A base shape, a level and distinct cells at that level, drawn
    toward the domain's faces, edges and corners."""
    base = draw(st.tuples(*[st.integers(1, 3)] * 3))
    level = draw(st.integers(1, 7))
    shape = [b << level for b in base]
    coordinate = [
        st.one_of(st.sampled_from([0, 1, s - 2, s - 1]), st.integers(0, s - 1))
        for s in shape
    ]
    cells = draw(
        st.lists(st.tuples(*coordinate), min_size=1, max_size=40, unique=True)
    )
    return base, level, np.array(cells, dtype=np.int64)


class TestNeighborParents:
    @settings(max_examples=200, deadline=None)
    @given(cells_at_a_level())
    def test_eight_candidates_equal_the_26_neighbours(self, drawn):
        base, level, cells = drawn
        tree = LinearOctree(AABB((0.0, 0.0, 0.0), tuple(map(float, base))), base)
        got = tree._neighbor_parents(cells, level)
        assert np.array_equal(got, neighbor_parents_oracle(tree, cells, level))

    def test_a_lone_root_child_reaches_its_own_parent_only(self):
        tree = LinearOctree(UNIT, (1, 1, 1))
        for cell in _CHILD_OFFSETS:
            got = tree._neighbor_parents(cell[None, :], 1)
            assert got.tolist() == [[0, 0, 0]]


def min_sizing_oracle(tree, sizing, coords, level):
    """One sizing call per sample offset, folded with ``np.minimum``."""
    size = tree.cell_size(level)
    lo = np.asarray(tree.domain.lo) + coords * size
    eps = 1e-6
    offsets = np.vstack([[0.5, 0.5, 0.5], _CHILD_OFFSETS * (1 - 2 * eps) + eps])
    h_min = np.full(len(coords), np.inf)
    for off in offsets:
        h_min = np.minimum(h_min, sizing.h(lo + off * size))
    return h_min


class TestMinSizing:
    @pytest.mark.parametrize("name", ["demo", "sf10e"])
    def test_one_call_equals_nine(self, name):
        inst = get_instance(name)
        model = inst.model()
        sizing = WavelengthSizingField(
            model,
            period=inst.period,
            points_per_wavelength=inst.points_per_wavelength,
        )
        tree = LinearOctree(model.domain, (5, 5, 1))
        tree.refine(sizing, dither=True)
        for level, coords in tree.iter_leaves():
            got = tree._min_sizing_in_cells(sizing, coords, level)
            want = min_sizing_oracle(tree, sizing, coords, level)
            assert got.tobytes() == want.tobytes()

    def test_a_nan_sample_makes_the_cell_nan(self):
        class NanAtOneCorner(UniformSizingField):
            def h(self, points):
                h = super().h(points)
                h[np.all(np.asarray(points) > 0.99, axis=1)] = np.nan
                return h

        tree = LinearOctree(UNIT, (1, 1, 1))
        coords = LinearOctree._children(np.zeros((1, 3), dtype=np.int64))
        got = tree._min_sizing_in_cells(NanAtOneCorner(0.3), coords, 1)
        want = min_sizing_oracle(tree, NanAtOneCorner(0.3), coords, 1)
        assert np.isnan(got).sum() == 1
        assert got.tobytes() == want.tobytes()
