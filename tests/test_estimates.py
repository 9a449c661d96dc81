import math

import numpy as np
import pytest

from liespec.estimates import (
    GaussianParams,
    VolumeModel,
    annuli_integral_check,
    dyadic_series_bound,
    fit_gaussian_envelope,
    gaussian_envelope,
)
from liespec.spectral import h1_heat_kernel

P_STANDARD = GaussianParams(1.0, 1.0, 0.0, 2.0, 4.0)


class TestGaussianEnvelope:
    def test_origin_drops_spatial_factor(self):
        p = GaussianParams(2.0, 1.0, 0.5, 2.0, 4.0)
        t = 0.7
        assert gaussian_envelope(t, 0.0, p) == pytest.approx(
            2.0 * t ** -2 * math.exp(0.5 * t))

    def test_strictly_decreasing_in_radius(self):
        vals = [gaussian_envelope(1.0, r, P_STANDARD)
                for r in np.linspace(0, 4, 15)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_unit_substitution(self):
        assert gaussian_envelope(1.0, 1.0, P_STANDARD) == pytest.approx(
            math.exp(-1.0))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GaussianParams(0.0, 1.0, 0.0, 2.0, 4.0)
        with pytest.raises(ValueError):
            GaussianParams(1.0, 1.0, -0.1, 2.0, 4.0)
        with pytest.raises(ValueError):
            GaussianParams(1.0, 1.0, 0.0, 1.5, 4.0)
        with pytest.raises(ValueError):
            gaussian_envelope(0.0, 1.0, P_STANDARD)


class TestVolumeModel:
    def test_continuous_at_one(self):
        v = VolumeModel(4.0, 2.5)
        assert v.ball_volume(1.0) == 1.0
        assert v.ball_volume(1.0 + 1e-12) == pytest.approx(1.0, abs=1e-10)

    def test_non_decreasing(self):
        v = VolumeModel(3.0, 1.0)
        rs = np.linspace(0, 5, 40)
        vals = [v.ball_volume(r) for r in rs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestDyadicSeries:
    def test_reference_values(self):
        assert dyadic_series_bound(1.0, 2.0, 4.0).value == pytest.approx(
            0.3146, abs=1e-4)
        assert dyadic_series_bound(1.0, 2.0, 3.0).value == pytest.approx(
            0.1541, abs=1e-4)

    def test_partial_summation_oracle(self):
        for q in (3.0, 4.0, 5.5):
            oracle = sum(math.exp(-2.0 * 2 ** j) * 2 ** ((j + 1) * q / 2)
                         for j in range(1, 60))
            got = dyadic_series_bound(1.0, 2.0, q)
            assert abs(got.value - oracle) <= max(1e-14, 1e-12 * oracle)

    def test_tail_certificate(self):
        got = dyadic_series_bound(1.0, 2.0, 4.0)
        assert got.tail_bound < 1e-12

    def test_always_finite(self):
        for b, m, q in [(0.01, 2.0, 12.0), (5.0, 6.0, 3.0), (0.5, 3.0, 7.0)]:
            got = dyadic_series_bound(b, m, q)
            assert math.isfinite(got.value) and got.tail_bound < 1e-12

    def test_monotone_in_parameters(self):
        b_vals = [dyadic_series_bound(b, 2.0, 4.0).value
                  for b in (0.5, 1.0, 2.0, 4.0)]
        assert all(y < x for x, y in zip(b_vals, b_vals[1:]))
        q_vals = [dyadic_series_bound(1.0, 2.0, q).value
                  for q in (2.0, 3.0, 4.0, 5.0)]
        assert all(y > x for x, y in zip(q_vals, q_vals[1:]))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            dyadic_series_bound(0.0, 2.0, 4.0)
        with pytest.raises(ValueError):
            dyadic_series_bound(1.0, 1.5, 4.0)


class TestAnnuliIntegral:
    def test_small_time_ratios_converge(self):
        rep = annuli_integral_check([1e-2, 1e-3, 1e-4], P_STANDARD,
                                    VolumeModel(4.0, 1.0))
        assert rep.bounded and rep.converging
        for row in rep.rows:
            assert abs(row.ratio - rep.limit_estimate) < 0.1 * rep.limit_estimate

    def test_small_time_limit_value(self):
        # the polynomial-regime limit 4 + 3 sum_j 4^j exp(-2^{j+1})
        rep = annuli_integral_check([1e-4], P_STANDARD, VolumeModel(4.0, 1.0))
        expected = 4.0 + 3.0 * sum(4 ** j * math.exp(-(2 ** (j + 1)))
                                   for j in range(1, 40))
        assert rep.rows[0].ratio == pytest.approx(expected, rel=1e-10)

    def test_large_time_finite_with_certificate(self):
        rep = annuli_integral_check([10.0], P_STANDARD, VolumeModel(4.0, 1.0))
        row = rep.rows[0]
        assert math.isfinite(row.integral) and row.certified
        assert row.tail_bound < 1e-12 * row.integral

    def test_faster_volume_growth_still_finite(self):
        rep = annuli_integral_check([1e-2, 1e-3, 1e-4, 10.0], P_STANDARD,
                                    VolumeModel(4.0, 5.0))
        assert rep.bounded
        assert all(math.isfinite(r.integral) for r in rep.rows)

    def test_proof_chain_inequality(self):
        # I(t) <= (2t)^{Q*/m} (1 + dyadic series) for small t
        series = dyadic_series_bound(1.0, 2.0, 4.0).value
        rep = annuli_integral_check([1e-2, 1e-3, 1e-4], P_STANDARD,
                                    VolumeModel(4.0, 1.0))
        for row in rep.rows:
            assert row.integral <= (2 * row.t) ** 2 * (1.0 + series)

    def test_rejects_nonpositive_times(self):
        with pytest.raises(ValueError):
            annuli_integral_check([0.0, 1.0], P_STANDARD, VolumeModel(4.0, 1.0))


class TestEnvelopeFit:
    def test_dominates_kernel_grid(self):
        ts = np.logspace(-1.5, 0, 8)
        samples = []
        for t in ts:
            for r in np.linspace(0.0, 2.0, 8):
                v = h1_heat_kernel(float(t), (float(r), 0.0, 0.0))
                samples.append((float(t), float(r), v))
        fit = fit_gaussian_envelope(samples, 2.0, 4.0)
        assert fit.violations == 0
        assert fit.margin >= 1.0
        for t, r, v in samples:
            assert v <= gaussian_envelope(t, r, fit.params)

    def test_margin_reflects_safety_factor(self):
        samples = [(1.0, 0.0, 0.0625)]
        fit = fit_gaussian_envelope(samples, 2.0, 4.0, safety=1.05)
        assert fit.margin == pytest.approx(1.05, rel=1e-12)

    def test_ignores_nonpositive_samples(self):
        samples = [(1.0, 0.0, 0.0625), (0.1, 3.0, -1e-15)]
        fit = fit_gaussian_envelope(samples, 2.0, 4.0)
        assert fit.violations == 0

    def test_all_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            fit_gaussian_envelope([(1.0, 1.0, 0.0)], 2.0, 4.0)

    def test_nonpositive_cap_factor_named(self):
        samples = [(1.0, 0.0, 0.0625)]
        for cap in (0.0, -1.0):
            with pytest.raises(
                    ValueError, match=f"^cap_factor must be positive, got {cap}$"):
                fit_gaussian_envelope(samples, 2.0, 4.0, cap_factor=cap)
