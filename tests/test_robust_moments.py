"""Analytic-oracle tests for the low-moment shape estimators.

Expected values below are closed forms, frozen to their decimal
expansions:

* Laplace: mad/sigma = 1/sqrt(2), so kappa = 24 (1 - sqrt(pi)/2)
  = 2.7305537891...
* Exponential(1): mean 1, median ln 2, sigma 1, so
  zeta = 6 (1 - ln 2) = 1.8411169166...
* Two-point (+1/-1): mad = sigma = 1, so kappa = 24 (1 - sqrt(pi/2))
  = -6.0795392955...
* Sample [0, 0, 3]: mean 1, median 0, sigma sqrt(2), so
  zeta = 6/sqrt(2) = 4.2426406871...
"""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from intraday.errors import DegenerateSampleError, InsufficientDataError
from intraday.panel import ReturnPanel, load_panel
from intraday.robust_moments import (
    ROOT_HALF_PI,
    grid_moments,
    low_moment_kurtosis,
    low_moment_skewness,
    moment_set,
    stock_bin_moments,
)

from return_rows import read_rows

LAPLACE_KAPPA = 2.7305537891
EXPONENTIAL_ZETA = 1.8411169166
TWO_POINT_KAPPA = -6.0795392956
THREE_POINT_ZETA = 4.2426406871


class TestScalarKernels:
    def test_population_variance_normalization(self):
        ms = moment_set([1.0, 2.0, 3.0, 4.0])
        assert ms.mean == pytest.approx(2.5)
        assert ms.volatility**2 == pytest.approx(1.25)  # 1/T, not 1/(T-1)
        assert ms.median == pytest.approx(2.5)

    def test_mad_about_mean(self):
        mad = grid_moments(np.array([0.0, 0.0, 3.0]), axis=0)[5]
        assert mad == pytest.approx(4.0 / 3.0)

    def test_three_point_skewness_exact(self):
        assert low_moment_skewness([0.0, 0.0, 3.0]) == pytest.approx(
            THREE_POINT_ZETA, abs=1e-9
        )

    def test_two_point_kurtosis_exact(self):
        assert low_moment_kurtosis([1.0, -1.0]) == pytest.approx(
            TWO_POINT_KAPPA, abs=1e-9
        )

    def test_symmetric_sample_zero_skewness(self):
        assert low_moment_skewness([-2.0, -1.0, 0.0, 1.0, 2.0]) == 0.0

    def test_skew_correction_term(self):
        x = [0.0, 0.0, 3.0]
        base = low_moment_kurtosis(x)
        corrected = low_moment_kurtosis(x, include_skew_correction=True)
        assert corrected == pytest.approx(base + THREE_POINT_ZETA**2, abs=1e-9)

    def test_degenerate_sample_raises(self):
        with pytest.raises(DegenerateSampleError):
            low_moment_skewness([1.0, 1.0, 1.0])
        with pytest.raises(DegenerateSampleError):
            low_moment_kurtosis([1.0, 1.0])

    def test_too_few_observations(self):
        with pytest.raises(InsufficientDataError):
            low_moment_skewness([1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            low_moment_kurtosis([1.0, np.nan])


class TestLargeSampleOracles:
    """Monte-Carlo convergence to the closed forms, fixed seeds."""

    def test_gaussian_calibration(self):
        rng = np.random.default_rng(1234)
        x = rng.standard_normal(10**6)
        assert abs(low_moment_kurtosis(x)) < 0.05
        assert abs(low_moment_skewness(x)) < 0.02

    def test_laplace_kurtosis(self):
        rng = np.random.default_rng(1234)
        x = rng.laplace(0.0, 1.0, 10**6)
        assert low_moment_kurtosis(x) == pytest.approx(LAPLACE_KAPPA, abs=0.05)

    def test_exponential_skewness(self):
        rng = np.random.default_rng(1234)
        x = rng.exponential(1.0, 10**6)
        assert low_moment_skewness(x) == pytest.approx(EXPONENTIAL_ZETA, abs=0.02)

    def test_gaussian_mad_sigma_ratio(self):
        rng = np.random.default_rng(99)
        x = rng.standard_normal(10**6)
        _, sigma, _, _, _, mad, _ = grid_moments(x, axis=0)
        ratio = mad / sigma
        assert ratio == pytest.approx(np.sqrt(2.0 / np.pi), abs=1e-3)
        assert ROOT_HALF_PI == pytest.approx(np.sqrt(np.pi / 2.0))


class TestMomentSet:
    def test_bundle_matches_kernels(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(500)
        ms = moment_set(x)
        assert ms.mean == pytest.approx(float(x.mean()))
        assert ms.volatility == pytest.approx(float(x.std()))
        assert ms.skewness == pytest.approx(low_moment_skewness(x))
        assert ms.kurtosis == pytest.approx(low_moment_kurtosis(x))
        assert ms.median == pytest.approx(float(np.median(x)))
        assert ms.sample_count == 500
        assert not ms.degenerate

    def test_degenerate_bundle(self):
        ms = moment_set([2.0, 2.0, 2.0])
        assert ms.degenerate
        assert ms.skewness is None and ms.kurtosis is None
        assert ms.mean == 2.0 and ms.volatility == 0.0


class TestGridAgainstScalars:
    def make_panel(self, seed=0, n=4, t=40, k=3, overnight=True):
        rng = np.random.default_rng(seed)
        d0 = dt.date(2021, 3, 1)
        return ReturnPanel(
            returns=rng.standard_normal((n, t, k + overnight)) * 0.01,
            stock_ids=tuple(f"S{i}" for i in range(n)),
            dates=tuple(d0 + dt.timedelta(days=j) for j in range(t)),
            bins_per_day=k,
            overnight_present=overnight,
        )

    def test_grid_equals_scalar_kernels_cellwise(self):
        panel = self.make_panel()
        grid = stock_bin_moments(panel)
        for a in range(panel.n_stocks):
            for b in panel.bin_numbers:
                c = panel.column_of(b)
                series = panel.returns[a, :, c]
                assert grid.mean[a, c] == pytest.approx(float(series.mean()))
                assert grid.volatility[a, c] == pytest.approx(float(series.std()))
                assert grid.skewness[a, c] == pytest.approx(low_moment_skewness(series))
                assert grid.kurtosis[a, c] == pytest.approx(low_moment_kurtosis(series))

    def test_degenerate_cell_marked_not_fatal(self):
        recs = []
        for s in ("A", "B"):
            for j, d in enumerate(
                (dt.date(2021, 3, 1), dt.date(2021, 3, 2), dt.date(2021, 3, 3))
            ):
                for b in (1, 2):
                    flat = s == "A" and b == 1
                    recs.append((d, b, s, 0.005 if flat else 0.001 * (j + b)))
        panel, _ = load_panel(read_rows(recs))
        grid = stock_bin_moments(panel)
        assert grid.degenerate[0, 0]
        assert not grid.degenerate[1, 0]
        assert np.isnan(grid.skewness[0, 0])
        assert grid.degenerate[0, panel.column_of(1)]
        assert not np.isnan(grid.kurtosis[1, panel.column_of(2)])

    def test_grid_moments_rejects_short_axis(self):
        with pytest.raises(InsufficientDataError):
            grid_moments(np.zeros((3, 1)), axis=1)


# Samples that stress the order statistics and the centring: NaN, +-inf,
# signed zeros and repeated values next to arbitrary finite floats.
SPECIAL = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0, 1e-300, 2.5])
ELEMENTS = st.one_of(SPECIAL, st.floats(allow_nan=False, allow_infinity=False, width=64))


def numpy_moments(values, axis):
    """Mean, sigma, median and MAD as numpy's own reductions give them."""
    mean = values.mean(axis=axis)
    mad = np.abs(values - np.expand_dims(mean, axis)).mean(axis=axis)
    return mean, values.std(axis=axis), np.median(values, axis=axis), mad


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    values=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=3, min_side=2, max_side=7),
        elements=ELEMENTS,
    ),
    data=st.data(),
)
def test_grid_moments_has_the_bytes_of_numpys_reductions(values, data):
    axis = data.draw(st.integers(0, values.ndim - 1), label="axis")
    if data.draw(st.booleans(), label="transposed"):
        values = values.T
    with np.errstate(all="ignore"):
        mean, vol, _, _, median, mad, _ = grid_moments(values, axis)
        expected = numpy_moments(values, axis)
    for got, want in zip((mean, vol, median, mad), expected):
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
