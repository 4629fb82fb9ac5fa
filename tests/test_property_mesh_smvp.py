"""Property-based tests over the mesher and SMVP distribution.

The stuffing mesher's conformity proof lives in code review; these
tests attack it with randomized graded sizing fields.  The distribution
invariants are checked under arbitrary (valid) element partitions, not
just the ones our partitioners produce.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import AABB
from repro.mesh import topology
from repro.mesh.stuffing import jitter_mesh, stuff_octree
from repro.octree.linear import LinearOctree
from repro.partition.base import Partition
from repro.smvp.distribution import DataDistribution
from repro.smvp.schedule import CommSchedule
from repro.stats.beta import beta_bound
from repro.velocity.sizing import SizingField
from tests.conftest import shared_word_oracle

UNIT = AABB((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))


class BumpSizing(SizingField):
    """Random sizing field: fine Gaussian bumps on a coarse background."""

    def __init__(self, centers, widths, fine, coarse):
        self.centers = np.asarray(centers, dtype=float)
        self.widths = np.asarray(widths, dtype=float)
        self.fine = float(fine)
        self.coarse = float(coarse)

    def h(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.full(pts.shape[0], self.coarse)
        for center, width in zip(self.centers, self.widths):
            d2 = ((pts - center) ** 2).sum(axis=1)
            bump = self.fine + (self.coarse - self.fine) * (
                1 - np.exp(-d2 / (2 * width**2))
            )
            out = np.minimum(out, bump)
        return out

    def h_min(self):
        return self.fine


@st.composite
def bump_fields(draw):
    k = draw(st.integers(1, 3))
    centers = [
        [draw(st.floats(0.1, 0.9)) for _ in range(3)] for _ in range(k)
    ]
    widths = [draw(st.floats(0.05, 0.3)) for _ in range(k)]
    fine = draw(st.floats(0.06, 0.15))
    return BumpSizing(centers, widths, fine=fine, coarse=0.7)


class TestStuffingUnderRandomGrading:
    @given(bump_fields(), st.booleans(), st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_always_conforming(self, sizing, dither, seed):
        tree = LinearOctree.build(
            UNIT,
            sizing,
            base_shape=(1, 1, 1),
            max_level=4,
            dither=dither,
            dither_seed=seed,
        )
        mesh, spacing = stuff_octree(tree)
        mesh.validate()
        assert mesh.total_volume() == pytest.approx(1.0)
        # Every single-owner face lies on the domain boundary.
        surf = topology.surface_faces(mesh.tets)
        pts = mesh.points[surf]
        on_boundary = np.zeros(len(surf), dtype=bool)
        for axis in range(3):
            for value in (0.0, 1.0):
                on_boundary |= np.all(
                    np.abs(pts[:, :, axis] - value) < 1e-9, axis=1
                )
        assert on_boundary.all()
        # Jitter preserves all of it.
        jittered = jitter_mesh(mesh, spacing, amplitude=0.12, seed=seed)
        jittered.validate()
        assert jittered.total_volume() == pytest.approx(1.0)

    @given(bump_fields())
    @settings(max_examples=10, deadline=None)
    def test_connected_and_degree_bounded(self, sizing):
        tree = LinearOctree.build(
            UNIT, sizing, base_shape=(1, 1, 1), max_level=4
        )
        mesh, _ = stuff_octree(tree)
        assert mesh.is_connected()
        # Balanced-octree stuffing has bounded node degree.
        assert mesh.node_degrees.max() <= 40


@st.composite
def random_partitions(draw, num_elements: int):
    p = draw(st.integers(2, 12))
    # Guarantee every part non-empty by seeding one element per part.
    assignment = draw(
        st.lists(
            st.integers(0, p - 1),
            min_size=num_elements,
            max_size=num_elements,
        )
    )
    parts = np.array(assignment, dtype=np.int32)
    parts[:p] = np.arange(p)
    return Partition(parts, p, method="hyp")


class TestDistributionUnderRandomPartitions:
    @pytest.fixture(scope="class")
    def small_mesh(self):
        from repro.velocity.sizing import UniformSizingField

        tree = LinearOctree(UNIT, (2, 2, 2))
        tree.refine(UniformSizingField(0.25))
        tree.balance()
        mesh, _ = stuff_octree(tree)
        return mesh

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_schedule_invariants(self, small_mesh, data):
        partition = data.draw(random_partitions(small_mesh.num_elements))
        dist = DataDistribution(small_mesh, partition)
        sched = CommSchedule(dist)
        # Residency: every node somewhere, every element exactly one PE.
        assert dist.node_residency.min() >= 1
        # Every shared node sent once each way between every pair of
        # its PEs: the residency oracle, hence symmetric.
        mat = sched.word_matrix
        assert np.array_equal(mat, shared_word_oracle(dist))
        # Word matrix symmetric, zero diagonal, multiples of 3.
        assert np.array_equal(mat, mat.T)
        assert np.all(np.diag(mat) == 0)
        assert np.all(mat % 3 == 0)
        # Per-PE totals even and divisible by 3.
        assert np.all(sched.words_per_pe % 6 == 0)
        # Totals.
        assert sched.total_words == sched.words_per_pe.sum() // 2
        # Beta in band.
        beta = beta_bound(sched.words_per_pe, sched.blocks_per_pe)
        assert 1.0 <= beta <= 2.0 + 1e-9
        # Flops: local sums at least the global requirement.
        flops = dist.local_counts["flops"]
        global_flops = 2 * 9 * (
            small_mesh.num_nodes + 2 * small_mesh.num_edges
        )
        assert flops.sum() >= global_flops
