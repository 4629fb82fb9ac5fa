"""Property-based tests (hypothesis) on the core invariants.

These cover the algebraic heart of the reproduction: the β bound, the
Equation (1)/(2) identities, octree encoding and balance, jitter
safety, and partition/schedule invariants under randomized inputs.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.geometry import AABB, tet_quality_radius_ratio, tet_volumes
from repro.model.highlevel import efficiency_from_tc, required_tc
from repro.model.inputs import ModelInputs
from repro.model.lowlevel import (
    MAXIMAL_BLOCKS,
    half_bandwidth_targets,
    latency_for_tradeoff,
    tc_from_blocks,
)
from repro.model.machine import Machine
from repro.octree.linear import LinearOctree, decode_cells, encode_cells
from repro.stats.beta import beta_bound
from repro.tables.render import format_cell
from repro.velocity.sizing import UniformSizingField

# ---------------------------------------------------------------------------
# Strategies

pe_counts = st.integers(min_value=2, max_value=40)


@st.composite
def words_and_blocks(draw):
    n = draw(pe_counts)
    c = draw(
        hnp.arrays(
            np.int64, n, elements=st.integers(min_value=1, max_value=10_000)
        )
    )
    b = draw(
        hnp.arrays(np.int64, n, elements=st.integers(min_value=1, max_value=200))
    )
    return c, b


@st.composite
def model_inputs(draw):
    return ModelInputs(
        label="hyp",
        num_parts=draw(st.integers(2, 128)),
        F=draw(st.integers(1_000, 10**9)),
        c_max=draw(st.integers(6, 10**6)),
        b_max=draw(st.integers(2, 1000)),
    )


efficiencies = st.floats(min_value=0.01, max_value=0.99)
machines = st.floats(min_value=1.0, max_value=10_000.0).map(
    lambda mflops: Machine.from_mflops("hyp", mflops)
)


# ---------------------------------------------------------------------------
# Beta bound


class TestBetaProperties:
    @given(words_and_blocks())
    @settings(max_examples=60)
    def test_beta_in_unit_band(self, cb):
        c, b = cb
        beta = beta_bound(c, b)
        assert 1.0 <= beta <= 2.0 + 1e-9

    @given(words_and_blocks())
    @settings(max_examples=60)
    def test_beta_is_a_true_bound_on_the_model(self, cb):
        """B_max*tl + C_max*tw never exceeds beta * max_i(B_i tl + C_i tw)."""
        c, b = cb
        beta = beta_bound(c, b)
        rng = np.random.default_rng(0)
        for tl, tw in ((1e-6, 1e-9), (1e-9, 1e-6), (5e-6, 5e-8)):
            modeled = b.max() * tl + c.max() * tw
            actual = (b * tl + c * tw).max()
            assert modeled <= beta * actual * (1 + 1e-12)
            assert modeled >= actual * (1 - 1e-12)

    @given(words_and_blocks())
    @settings(max_examples=40)
    def test_beta_one_iff_attained_together(self, cb):
        c, b = cb
        i_c = int(np.argmax(c))
        if b[i_c] == b.max():
            assert beta_bound(c, b) == pytest.approx(1.0)

    @given(words_and_blocks(), st.integers(min_value=2, max_value=7))
    @settings(max_examples=40)
    def test_beta_scale_invariant(self, cb, k):
        c, b = cb
        assert beta_bound(c * k, b) == pytest.approx(beta_bound(c, b))
        assert beta_bound(c, b * k) == pytest.approx(beta_bound(c, b))


# ---------------------------------------------------------------------------
# Model equations


class TestModelProperties:
    @given(model_inputs(), efficiencies, machines)
    @settings(max_examples=80)
    def test_equation_one_roundtrip(self, inputs, eff, machine):
        tc = required_tc(inputs, eff, machine)
        assert tc > 0
        assert efficiency_from_tc(inputs, tc, machine) == pytest.approx(
            eff, rel=1e-9
        )

    @given(model_inputs(), efficiencies, machines, st.floats(0.0, 0.9))
    @settings(max_examples=80)
    def test_equation_two_tradeoff_consistency(self, inputs, eff, machine, frac):
        tc = required_tc(inputs, eff, machine)
        tw = frac * tc
        tl = latency_for_tradeoff(inputs, eff, machine, tw)
        assert tl >= 0
        assert tc_from_blocks(inputs, tl, tw) == pytest.approx(tc, rel=1e-9)

    @given(model_inputs(), efficiencies, machines)
    @settings(max_examples=80)
    def test_half_bandwidth_halves(self, inputs, eff, machine):
        h = half_bandwidth_targets(inputs, eff, machine, MAXIMAL_BLOCKS)
        t_comm = inputs.c_max * h.tc
        assert inputs.c_max * h.half_tw == pytest.approx(t_comm / 2)
        assert inputs.b_max * h.half_tl == pytest.approx(t_comm / 2)
        # And the pair satisfies Equation (2) exactly.
        assert tc_from_blocks(inputs, h.half_tl, h.half_tw) == pytest.approx(
            h.tc
        )


# ---------------------------------------------------------------------------
# Octree


class TestOctreeProperties:
    @given(
        hnp.arrays(
            np.int64,
            st.integers(1, 50).map(lambda n: (n, 3)),
            elements=st.integers(0, 2**21 - 1),
        )
    )
    @settings(max_examples=50)
    def test_encode_decode_roundtrip(self, coords):
        assert np.array_equal(decode_cells(encode_cells(coords)), coords)

    @given(
        st.floats(min_value=0.05, max_value=1.5),
        st.booleans(),
        st.integers(0, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_refined_tree_balanced_and_volume_preserving(
        self, h, dither, seed
    ):
        domain = AABB((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        tree = LinearOctree.build(
            domain,
            UniformSizingField(h),
            base_shape=(1, 1, 1),
            max_level=5,
            dither=dither,
            dither_seed=seed,
        )
        assert tree.is_balanced()
        _, sizes = tree.leaf_centers_and_sizes()
        assert np.sum(sizes**3) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Jitter


# ---------------------------------------------------------------------------
# Geometry


class TestGeometryProperties:
    @given(
        hnp.arrays(
            np.float64,
            (4, 3),
            elements=st.floats(min_value=-100, max_value=100, width=64),
        )
    )
    @settings(max_examples=80)
    # Nearly flat but not cocircular: the circumradius overflows to inf.
    @example(np.array([[0, 0, 0], [100, 0, 0], [0, 100, 0], [50, 50, 5e-324]]))
    def test_quality_bounded_volume_nonnegative(self, corners):
        tets = np.array([[0, 1, 2, 3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # degenerate tets warn nothing
            vol = tet_volumes(corners, tets)[0]
            q = tet_quality_radius_ratio(corners, tets)[0]
        assert vol >= 0
        assert 0.0 <= q <= 1.0

    @given(
        hnp.arrays(
            np.float64,
            (4, 3),
            elements=st.floats(min_value=-10, max_value=10, width=64),
        ),
        hnp.arrays(
            np.float64,
            (3,),
            elements=st.floats(min_value=-50, max_value=50, width=64),
        ),
    )
    @settings(max_examples=60)
    def test_volume_translation_invariant(self, corners, shift):
        tets = np.array([[0, 1, 2, 3]])
        v1 = tet_volumes(corners, tets)[0]
        v2 = tet_volumes(corners + shift, tets)[0]
        assert v2 == pytest.approx(v1, rel=1e-6, abs=1e-6)


# ---------------------------------------------------------------------------
# Rendering


class TestRenderProperties:
    @given(st.integers(min_value=-(10**12), max_value=10**12))
    @settings(max_examples=40)
    def test_int_format_roundtrip(self, value):
        assert int(format_cell(value).replace(",", "")) == value

    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    @settings(max_examples=40)
    def test_float_format_never_crashes(self, value):
        assert isinstance(format_cell(value), str)
