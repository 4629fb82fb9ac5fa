"""Tests for repro.mesh.generator."""

import numpy as np
import pytest

from repro.mesh.generator import generate_mesh
from repro.velocity.basin import default_san_fernando_like_model
from repro.velocity.sizing import UniformSizingField


class TestGenerator:
    @pytest.fixture(scope="class")
    def model(self):
        return default_san_fernando_like_model()

    def test_stuffing_pipeline(self, model):
        mesh, report = generate_mesh(model, period=25.0, seed=0)
        mesh.validate()
        assert mesh.is_connected()
        assert report.num_nodes == mesh.num_nodes
        assert mesh.total_volume() == pytest.approx(model.domain.volume)

    def test_determinism(self, model):
        m1, _ = generate_mesh(model, period=25.0, seed=4)
        m2, _ = generate_mesh(model, period=25.0, seed=4)
        assert np.array_equal(m1.points, m2.points)
        assert np.array_equal(m1.tets, m2.tets)

    def test_seed_changes_mesh(self, model):
        m1, _ = generate_mesh(model, period=25.0, seed=1)
        m2, _ = generate_mesh(model, period=25.0, seed=2)
        assert not (
            m1.num_nodes == m2.num_nodes
            and np.array_equal(m1.points, m2.points)
        )

    def test_shorter_period_more_nodes(self, model):
        coarse, _ = generate_mesh(model, period=25.0)
        fine, _ = generate_mesh(model, period=10.0, points_per_wavelength=1.3514)
        assert fine.num_nodes > coarse.num_nodes

    def test_sizing_override(self, model):
        mesh, _ = generate_mesh(
            model,
            period=25.0,
            sizing=UniformSizingField(5000.0),
            jitter=0.0,
            dither=False,
        )
        mesh.validate()
        # Uniform 5 km sizing over a 50x50x10 km box: 10x10x2 cells of
        # 5 km -> 11*11*3 corners + 200 centers.
        assert mesh.num_nodes == 11 * 11 * 3 + 200

    def test_report_accounting(self, model):
        _, report = generate_mesh(model, period=25.0)
        assert report.seconds_total == pytest.approx(
            report.seconds_octree + report.seconds_mesh
        )
        assert report.octree_leaves > 0
