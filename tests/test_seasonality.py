"""Profiles, error bands, ratio propagation, and power-law fits."""

import re
import warnings
from collections import Counter

import numpy as np
import pytest

from intraday.cross_section import dispersion_grid
from intraday.errors import DegenerateSampleError, InsufficientDataError
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
        assert p.values.tolist() == [2.0]

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


def reference_ratio_profile(numerator, denominator, statistic_name=None):
    """ratio_profile as it stood with a scalar copy of the formulas for the
    overnight point, kept as the reference for the single array path."""
    if numerator.bins.shape != denominator.bins.shape or np.any(
        numerator.bins != denominator.bins
    ):
        raise ValueError("profiles cover different bins")
    zero = denominator.values == 0.0
    if zero.any():
        k = int(numerator.bins[np.nonzero(zero)[0][0]])
        raise DegenerateSampleError(f"zero denominator at bin {k}")
    values = numerator.values / denominator.values
    band = np.abs(values) * np.sqrt(
        (numerator.band / numerator.values) ** 2
        + (denominator.band / denominator.values) ** 2
    )
    overnight_value = overnight_band = None
    if numerator.overnight_value is not None and denominator.overnight_value is not None:
        if denominator.overnight_value == 0.0:
            raise DegenerateSampleError("zero denominator at overnight bin")
        overnight_value = numerator.overnight_value / denominator.overnight_value
        overnight_band = abs(overnight_value) * float(
            np.sqrt(
                (numerator.overnight_band / numerator.overnight_value) ** 2
                + (denominator.overnight_band / denominator.overnight_value) ** 2
            )
        )
    if statistic_name is None:
        statistic_name = f"{numerator.statistic_name}/{denominator.statistic_name}"
    return IntradayProfile(
        bins=numerator.bins.copy(),
        values=values,
        band=band,
        overnight_value=overnight_value,
        overnight_band=overnight_band,
        statistic_name=statistic_name,
        band_kind=numerator.band_kind,
    )


def random_profile(rng, bins, overnight, zero_rate=0.0):
    """Signed values over many binades (exactly zero at ``zero_rate``) and
    non-negative bands, with an overnight point as Python floats if asked."""
    size = bins.size + 1
    values = rng.choice([-1.0, 1.0], size) * np.exp(rng.uniform(-20.0, 20.0, size))
    values[rng.random(size) < zero_rate] = 0.0
    band = np.abs(values) * np.exp(rng.uniform(-8.0, 3.0, size))
    band[rng.random(size) < 0.1] = 0.0
    night = (float(values[-1]), float(band[-1])) if overnight else (None, None)
    return IntradayProfile(bins, values[:-1], band[:-1], *night, "x", "stderr")


def overnight_as_last_bin(profile):
    """The profile with its overnight point moved to one more intraday bin."""
    return IntradayProfile(
        np.r_[profile.bins, profile.bins.max(initial=0) + 1],
        np.r_[profile.values, profile.overnight_value],
        np.r_[profile.band, profile.overnight_band],
        None,
        None,
        profile.statistic_name,
        profile.band_kind,
    )


class TestRatioProfile:
    def test_matches_the_scalar_overnight_reference(self):
        rng = np.random.default_rng(19)
        seen = Counter()
        for _ in range(3000):
            bins = np.arange(1, rng.integers(1, 6) + 1)
            den_bins = bins if rng.random() < 0.9 else np.arange(2, rng.integers(2, 7) + 1)
            num = random_profile(rng, bins, rng.random() < 0.5)
            den = random_profile(rng, den_bins, rng.random() < 0.5, zero_rate=0.05)
            try:
                expected = reference_ratio_profile(num, den)
            except (ValueError, DegenerateSampleError) as exc:
                with pytest.raises(type(exc)) as raised:
                    ratio_profile(num, den)
                assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
                seen[re.sub(r"\d+", "k", str(exc))] += 1
                continue
            got = ratio_profile(num, den)
            assert got.values.tobytes() == expected.values.tobytes()
            assert got.band.tobytes() == expected.band.tobytes()
            assert got.overnight_value == expected.overnight_value
            if expected.overnight_value is None:
                assert got.overnight_band is None
                seen["no overnight"] += 1
                continue
            assert type(got.overnight_value) is float and type(got.overnight_band) is float
            # C pow, which Python's ** on floats calls, may round x**2 apart from x*x
            gap = abs(got.overnight_band - expected.overnight_band)
            assert gap <= np.spacing(expected.overnight_band)
            seen["overnight"] += 1
            as_bin = ratio_profile(overnight_as_last_bin(num), overnight_as_last_bin(den))
            assert as_bin.values[-1] == got.overnight_value
            assert as_bin.band[-1] == got.overnight_band
        drawn = [
            "profiles cover different bins",
            "zero denominator at bin k",
            "zero denominator at overnight bin",
            "no overnight",
            "overnight",
        ]
        assert [case for case in drawn if not seen[case]] == []

    def test_error_precedence_matches_the_reference(self):
        num = make_profile([1.0, 1.0], overnight=1.0)
        zero_both = make_profile([1.0, 0.0], overnight=0.0)
        zero_night = make_profile([1.0, 2.0], overnight=0.0)
        cases = [
            (num, make_profile([0.0], overnight=0.0), ValueError, "profiles cover different bins"),
            (num, zero_both, DegenerateSampleError, "zero denominator at bin 2"),
            (num, zero_night, DegenerateSampleError, "zero denominator at overnight bin"),
        ]
        for numerator, denominator, kind, message in cases:
            for ratio in (reference_ratio_profile, ratio_profile):
                with pytest.raises(kind) as raised:
                    ratio(numerator, denominator)
                assert type(raised.value) is kind and str(raised.value) == message

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

    def test_zero_numerator_takes_the_limit_band(self):
        num = make_profile([0.0, 1.0, 0.0], band=[0.0, 0.1, 0.3], overnight=0.0)
        den = make_profile([1.0, 1.0, -2.0], band=[0.1, 0.1, 0.2], overnight=4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = ratio_profile(num, den)
        # band_n / |d| where n = 0; the quadrature form elsewhere, as before
        assert r.band.tolist() == [0.0, np.sqrt(0.1**2 + 0.1**2), 0.15]
        day = [make_profile(p.values, band=p.band) for p in (num, den)]
        with np.errstate(divide="ignore", invalid="ignore"):  # the old NaN bins
            assert r.band[1] == reference_ratio_profile(*day).band[1]
        assert r.values.tolist() == [0.0, 1.0, -0.0]
        assert (r.overnight_value, r.overnight_band) == (0.0, 0.0)

    def test_zero_denominator_names_bin(self):
        num = make_profile([1.0, 1.0])
        den = make_profile([1.0, 0.0])
        with pytest.raises(DegenerateSampleError, match="bin 2"):
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


class TestPowerLawFit:
    def test_noiseless_recovery_exact(self):
        bins = np.arange(1, 79)
        prof = make_profile(0.004 * bins**-0.3, bins=bins)
        fit = fit_power_law(prof, (1, 78))
        assert abs(fit.exponent - 0.3) < 1e-10
        assert fit.amplitude == pytest.approx(0.004, abs=1e-12)
        assert fit.residual_rms < 1e-12
        k = np.array([1.0, 8.0])
        np.testing.assert_allclose(fit.amplitude * k**-fit.exponent, 0.004 * k**-0.3)

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
        with pytest.raises(DegenerateSampleError, match="bin 2"):
            fit_power_law(make_profile(values), (1, 4))

    def test_overnight_never_in_fit(self):
        bins = np.arange(1, 11)
        prof = make_profile(0.01 * bins**-0.4, bins=bins, overnight=99.0)
        fit = fit_power_law(prof, (1, 10))
        assert abs(fit.exponent - 0.4) < 1e-10
