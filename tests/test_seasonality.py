"""Profiles, error bands, ratio propagation, and power-law fits."""

import numpy as np
import pytest

from intraday.cross_section import dispersion_grid
from intraday.errors import InsufficientDataError
from intraday.seasonality import (
    IntradayProfile,
    first_half_range,
    first_two_hours_range,
    fit_power_law,
    profile_over_days,
    profile_over_stocks,
    ratio_profile,
)
from intraday.synth import gaussian_iid_panel


def make_profile(values, bins=None, band=None, overnight=None):
    values = np.asarray(values, dtype=float)
    if bins is None:
        bins = np.arange(1, values.size + 1)
    if band is None:
        band = np.zeros_like(values)
    ov, ob = (overnight, 0.0) if overnight is not None else (None, None)
    return IntradayProfile(
        bins=np.asarray(bins),
        values=values,
        band=np.asarray(band, dtype=float),
        overnight_value=ov,
        overnight_band=ob,
        statistic_name="x",
        band_kind="stderr",
    )


class TestProfiles:
    def test_profile_over_days_mean_and_stderr(self):
        series = np.array([[1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 2.0, 2.0]])
        p = profile_over_days(series, "stderr")
        np.testing.assert_allclose(p.values, [2.5, 2.0])
        np.testing.assert_allclose(p.band, [np.std([1, 2, 3, 4]) / 2.0, 0.0])
        assert p.overnight_value is None

    def test_dispersion_band(self):
        series = np.array([[1.0, 3.0]])
        p = profile_over_days(series, "dispersion")
        assert p.band[0] == pytest.approx(1.0)

    def test_overnight_row_split_out(self):
        series = np.array([[5.0, 5.0], [1.0, 3.0]])
        p = profile_over_days(series, "stderr", bin_numbers=[0, 1])
        assert p.overnight_value == pytest.approx(5.0)
        assert list(p.bins) == [1]
        assert p.value_at(0) == 5.0
        assert p.value_at(1) == 2.0
        with pytest.raises(ValueError, match="not in profile"):
            p.value_at(9)

    def test_profile_over_stocks_axis(self):
        series = np.array([[1.0, 10.0], [3.0, 30.0]])  # (stock, bin)
        p = profile_over_stocks(series)
        np.testing.assert_allclose(p.values, [2.0, 20.0])

    def test_bad_band_kind(self):
        with pytest.raises(ValueError, match="band kind"):
            profile_over_days(np.ones((2, 2)), "sigma")

    def test_label_count_mismatch(self):
        # the (bin, day) series has 2 bins, so 3 labels cannot fit
        with pytest.raises(ValueError, match="bin labels"):
            profile_over_days(np.ones((2, 3)), bin_numbers=[1, 2, 3])

    def test_abs_index_profile(self):
        panel = gaussian_iid_panel(
            n_stocks=2000, n_days=100, bins_per_day=2, vol_profile=0.01, seed=3
        )
        # the fig1 abs_index_return column: |mu_d| averaged over days
        grid = dispersion_grid(panel)
        p = profile_over_days(np.abs(grid.index_return), "stderr", grid.bin_numbers)
        # |mean of N iid| is half-normal with scale 0.01/sqrt(N)
        expected = 0.01 / np.sqrt(2000) * np.sqrt(2 / np.pi)
        assert p.values == pytest.approx([expected, expected], rel=0.2)


class TestRatioProfile:
    def test_values_and_band(self):
        num = make_profile([4.0, 9.0], band=[0.4, 0.9])
        den = make_profile([2.0, 3.0], band=[0.2, 0.3])
        r = ratio_profile(num, den)
        np.testing.assert_allclose(r.values, [2.0, 3.0])
        expected = 2.0 * np.sqrt((0.4 / 4.0) ** 2 + (0.2 / 2.0) ** 2)
        assert r.band[0] == pytest.approx(expected)
        assert r.statistic_name == "x/x"

    def test_overnight_needs_both(self):
        num = make_profile([4.0], overnight=2.0)
        den = make_profile([2.0])
        r = ratio_profile(num, den)
        assert r.overnight_value is None
        both = ratio_profile(num, make_profile([2.0], overnight=4.0))
        assert both.overnight_value == pytest.approx(0.5)

    def test_zero_denominator_names_bin(self):
        num = make_profile([1.0, 1.0])
        den = make_profile([1.0, 0.0])
        with pytest.raises(ValueError, match="bin 2"):
            ratio_profile(num, den)

    def test_bin_mismatch(self):
        with pytest.raises(ValueError, match="different bins"):
            ratio_profile(make_profile([1.0]), make_profile([1.0, 2.0]))


class TestFitWindows:
    def test_presets(self):
        assert first_half_range(78) == (1, 39)
        assert first_half_range(3) == (1, 2)
        assert first_two_hours_range(78) == (1, 24)
        assert first_two_hours_range(13) == (1, 13)
        assert first_two_hours_range(78, bins_per_hour=6) == (1, 12)


class TestPowerLawFit:
    def test_noiseless_recovery_exact(self):
        bins = np.arange(1, 79)
        prof = make_profile(0.004 * bins**-0.3, bins=bins)
        fit = fit_power_law(prof, (1, 78))
        assert abs(fit.exponent - 0.3) < 1e-10
        assert fit.amplitude == pytest.approx(0.004, abs=1e-12)
        assert fit.residual_rms < 1e-12
        np.testing.assert_allclose(fit.predict([1, 8]), 0.004 * np.array([1.0, 8.0]) ** -0.3)

    def test_noisy_recovery_within_stderr(self):
        rng = np.random.default_rng(314)
        bins = np.arange(1, 79)
        values = 0.004 * bins**-0.3 * np.exp(0.02 * rng.standard_normal(78))
        fit = fit_power_law(make_profile(values, bins=bins), (1, 39))
        assert abs(fit.exponent - 0.3) < 3 * fit.exponent_stderr
        assert fit.exponent_stderr > 0

    def test_least_squares_matches_linregress(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(2718)
        bins = np.arange(1, 14)
        values = 0.003 * bins**-0.4 * np.exp(0.05 * rng.standard_normal(13))
        fit = fit_power_law(make_profile(values, bins=bins), (2, 11))
        ref = stats.linregress(np.log(bins[1:11]), np.log(values[1:11]))
        assert fit.exponent == pytest.approx(-ref.slope, rel=1e-12)
        assert fit.amplitude == pytest.approx(np.exp(ref.intercept), rel=1e-12)
        assert fit.exponent_stderr == pytest.approx(ref.stderr, rel=1e-10)

    def test_default_range_is_first_half(self):
        bins = np.arange(1, 21)
        prof = make_profile(0.01 * bins**-0.5, bins=bins)
        fit = fit_power_law(prof)
        assert fit.fit_range == (1, 10)

    def test_range_validation(self):
        prof = make_profile(np.ones(10))
        with pytest.raises(ValueError, match="bad fit range"):
            fit_power_law(prof, (0, 5))
        with pytest.raises(ValueError, match="bad fit range"):
            fit_power_law(prof, (5, 5))
        with pytest.raises(InsufficientDataError):
            fit_power_law(prof, (1, 2))

    def test_nonpositive_values_named(self):
        values = np.array([1.0, -1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="bin 2"):
            fit_power_law(make_profile(values), (1, 4))

    def test_overnight_never_in_fit(self):
        bins = np.arange(1, 11)
        prof = make_profile(0.01 * bins**-0.4, bins=bins, overnight=99.0)
        fit = fit_power_law(prof, (1, 10))
        assert abs(fit.exponent - 0.4) < 1e-10
