"""Tests for repro.velocity (profiles, basin, sizing)."""

import numpy as np
import pytest

from repro.geometry import AABB
from repro.velocity import (
    BasinModel,
    LayeredProfile,
    LinearGradientProfile,
    PowerLawSedimentProfile,
    UniformSizingField,
    WavelengthSizingField,
    default_san_fernando_like_model,
)


class TestProfiles:
    def test_linear_gradient_monotone_and_clamped(self):
        p = LinearGradientProfile(vs_surface=2500, gradient_per_m=0.15, vs_max=4000)
        depths = np.array([0, 1000, 5000, 50_000])
        vs = p.vs(depths)
        assert vs[0] == 2500
        assert np.all(np.diff(vs) >= 0)
        assert vs[-1] == 4000

    def test_power_law_shape(self):
        p = PowerLawSedimentProfile(vs_surface=300, ref_depth=50, exponent=0.45, vs_max=1200)
        assert p.vs(0.0) == pytest.approx(300)
        assert p.vs(50.0) == pytest.approx(300 * 2**0.45)
        assert p.vs(1e9) == 1200

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            LinearGradientProfile().vs(np.array([-5.0]))

    def test_vp_poisson_solid(self):
        p = LinearGradientProfile()
        assert p.vp(0.0) == pytest.approx(p.vs(0.0) * np.sqrt(3))

    def test_density_physical_range(self):
        for profile in (LinearGradientProfile(), PowerLawSedimentProfile()):
            rho = profile.rho(np.array([0.0, 100.0, 5000.0]))
            assert np.all(rho >= 1400) and np.all(rho <= 3000)

    def test_layered_lookup(self):
        p = LayeredProfile(layers=[(0.0, 400.0), (100.0, 800.0), (1000.0, 2000.0)])
        assert list(p.vs(np.array([0, 50, 100, 500, 2000]))) == [
            400,
            400,
            800,
            800,
            2000,
        ]

    def test_layered_rejects_unsorted(self):
        with pytest.raises(ValueError):
            LayeredProfile(layers=[(100.0, 1.0), (0.0, 2.0)])

    def test_layered_rejects_missing_surface(self):
        with pytest.raises(ValueError):
            LayeredProfile(layers=[(10.0, 1.0)])


class TestBasinModel:
    def test_basement_depth_peak_and_edge(self, basin_model):
        peak = basin_model.basement_depth(
            basin_model.center_x, basin_model.center_y
        )
        assert peak == pytest.approx(basin_model.depth_max)
        outside = basin_model.basement_depth(0.0, 0.0)
        assert outside == 0.0

    def test_sediment_is_slower_than_rock(self, basin_model):
        sediment_pt = np.array(
            [[basin_model.center_x, basin_model.center_y, -100.0]]
        )
        rock_pt = np.array([[1000.0, 1000.0, -100.0]])
        assert basin_model.vs(sediment_pt)[0] < basin_model.vs(rock_pt)[0] / 3

    def test_below_basement_is_rock(self, basin_model):
        deep = np.array(
            [[basin_model.center_x, basin_model.center_y, -5000.0]]
        )
        assert not basin_model.in_sediment(deep)[0]
        assert basin_model.vs(deep)[0] > 2000

    def test_lame_parameters_consistent(self, basin_model):
        pts = np.array([[25_000.0, 22_000.0, -50.0], [1000.0, 1000.0, -50.0]])
        lam, mu, rho_s = basin_model.sample(pts)
        rho = basin_model.rho(pts)
        vs = basin_model.vs(pts)
        vp = basin_model.vp(pts)
        assert np.array_equal(rho_s, rho)
        assert np.allclose(mu, rho * vs**2)
        assert np.allclose(lam, rho * (vp**2 - 2 * vs**2))

    def test_min_vs_is_soft_sediment(self, basin_model):
        assert basin_model.min_vs() == pytest.approx(
            basin_model.sediment.vs(0.0)
        )

    def test_rejects_basin_deeper_than_domain(self):
        with pytest.raises(ValueError):
            BasinModel(
                domain=AABB((0, 0, -1000.0), (50_000.0, 50_000.0, 0.0)),
                depth_max=1800.0,
            )

    def test_rejects_bad_axes(self):
        with pytest.raises(ValueError):
            BasinModel(semi_x=-1.0)


class TestSizingFields:
    def test_uniform(self):
        f = UniformSizingField(100.0)
        assert np.all(f.h(np.zeros((5, 3))) == 100.0)
        assert f.h_min() == 100.0

    def test_uniform_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            UniformSizingField(0.0)

    def test_wavelength_rule(self, basin_model):
        f = WavelengthSizingField(basin_model, period=10.0, points_per_wavelength=10.0)
        pt = np.array([[1000.0, 1000.0, -100.0]])  # rock
        expected = basin_model.vs(pt)[0] * 10.0 / 10.0
        assert f.h(pt)[0] == pytest.approx(min(expected, f.ceiling))

    def test_sediment_finer_than_rock(self, basin_model):
        f = WavelengthSizingField(basin_model, period=2.0)
        sediment = np.array([[basin_model.center_x, basin_model.center_y, -100.0]])
        rock = np.array([[1000.0, 1000.0, -100.0]])
        assert f.h(sediment)[0] < f.h(rock)[0]

    def test_clamping(self, basin_model):
        f = WavelengthSizingField(
            basin_model, period=100.0, floor=25.0, ceiling=5000.0
        )
        rock = np.array([[1000.0, 1000.0, -100.0]])
        assert f.h(rock)[0] == 5000.0

    def test_h_min_bound(self, basin_model):
        f = WavelengthSizingField(basin_model, period=2.0)
        samples = basin_model.domain.sample_grid((20, 20, 8))
        assert f.h(samples).min() >= f.h_min() - 1e-9

    def test_halving_period_halves_h(self, basin_model):
        f1 = WavelengthSizingField(basin_model, period=4.0, floor=1.0, ceiling=1e9)
        f2 = WavelengthSizingField(basin_model, period=2.0, floor=1.0, ceiling=1e9)
        pts = np.array([[12_000.0, 9_000.0, -3000.0]])
        assert f1.h(pts)[0] == pytest.approx(2 * f2.h(pts)[0])

    def test_parameter_validation(self, basin_model):
        with pytest.raises(ValueError):
            WavelengthSizingField(basin_model, period=-1.0)
        with pytest.raises(ValueError):
            WavelengthSizingField(basin_model, period=1.0, points_per_wavelength=0)
        with pytest.raises(ValueError):
            WavelengthSizingField(basin_model, period=1.0, floor=10.0, ceiling=5.0)
