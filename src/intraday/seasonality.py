"""Intraday profiles: per-bin averages, error bands, and power-law fits.

A profile reduces a per-bin statistic to one value per intraday bin plus an
optional overnight point.  Two band kinds are supported:

* ``stderr``: standard error of the mean, population std / sqrt(count);
* ``dispersion``: the 1-sigma spread itself (population std).

Seasonal volatility decay is summarized by fitting ``A * k**(-beta)`` in
log-log coordinates by ordinary least squares over a bin window, the first
half of the day or the first two hours of five-minute bars; the overnight
bin never enters a fit.  The least-squares line is one helper, shared with
the sub-linearity diagnostic in :mod:`conditioning`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, InsufficientDataError

BAND_KINDS = ("stderr", "dispersion")
BINS_PER_HOUR_DEFAULT = 12  # five-minute bars


@dataclass(frozen=True)
class IntradayProfile:
    """One value and band per intraday bin, plus an optional overnight point."""

    bins: np.ndarray
    values: np.ndarray
    band: np.ndarray
    overnight_value: float | None
    overnight_band: float | None
    statistic_name: str
    band_kind: str


def _reduce(samples: np.ndarray, band_kind: str, bin_numbers, statistic_name: str):
    """samples: (n_obs, n_cols) -> per-column value/band split on bin 0."""
    if band_kind not in BAND_KINDS:
        raise ValueError(f"unknown band kind {band_kind!r}, expected {BAND_KINDS}")
    samples = np.asarray(samples, dtype=np.float64)
    n_obs, n_cols = samples.shape
    if n_obs < 1:
        raise InsufficientDataError("no observations to profile")
    if bin_numbers is None:
        bin_numbers = np.arange(1, n_cols + 1)
    bin_numbers = np.asarray(list(bin_numbers), dtype=int)
    if bin_numbers.size != n_cols:
        raise ValueError(
            f"{bin_numbers.size} bin labels for {n_cols} columns"
        )
    values = samples.mean(axis=0)
    spread = samples.std(axis=0)
    band = spread if band_kind == "dispersion" else spread / np.sqrt(n_obs)

    overnight_value = overnight_band = None
    intraday = bin_numbers != 0
    if (~intraday).any():
        c = int(np.nonzero(~intraday)[0][0])
        overnight_value = float(values[c])
        overnight_band = float(band[c])
    return IntradayProfile(
        bins=bin_numbers[intraday].copy(),
        values=values[intraday].copy(),
        band=band[intraday].copy(),
        overnight_value=overnight_value,
        overnight_band=overnight_band,
        statistic_name=statistic_name,
        band_kind=band_kind,
    )


def profile_over_days(
    series: np.ndarray,
    band_kind: str = "stderr",
    bin_numbers=None,
    statistic_name: str = "",
) -> IntradayProfile:
    """Average a (bin, day) series over days.

    ``bin_numbers`` labels the rows; a row labeled 0 becomes the overnight
    point.  Without labels rows are taken as bins 1..K.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 2:
        raise ValueError("series must be 2-D (bin, day)")
    return _reduce(series.T, band_kind, bin_numbers, statistic_name)


def profile_over_stocks(
    series: np.ndarray,
    band_kind: str = "stderr",
    bin_numbers=None,
    statistic_name: str = "",
) -> IntradayProfile:
    """Average a (stock, bin) series over stocks."""
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 2:
        raise ValueError("series must be 2-D (stock, bin)")
    return _reduce(series, band_kind, bin_numbers, statistic_name)


def ratio_profile(
    numerator: IntradayProfile,
    denominator: IntradayProfile,
    statistic_name: str | None = None,
) -> IntradayProfile:
    """Pointwise ratio of two profiles with quadrature error propagation.

    band(r)/|r| = sqrt((band_n/n)^2 + (band_d/d)^2), and band_n/|d| where
    the numerator value is 0.  Bins must agree; a
    zero denominator value is an error naming the bin, intraday bins before
    the overnight one.  The overnight point carries through only when both
    profiles have one, and then goes through the same array arithmetic as
    the intraday bins.
    """
    if not np.array_equal(numerator.bins, denominator.bins):
        raise ValueError("profiles cover different bins")
    # the overnight point rides along as one more element when both have one
    both = numerator.overnight_value is not None and denominator.overnight_value is not None
    (n, n_band), (d, d_band) = (
        (np.r_[p.values, [p.overnight_value] * both], np.r_[p.band, [p.overnight_band] * both])
        for p in (numerator, denominator)
    )
    k = numerator.bins.size
    zero = np.nonzero(d == 0.0)[0]
    if zero.size:
        at = f"bin {int(numerator.bins[zero[0]])}" if zero[0] < k else "overnight bin"
        raise DegenerateSampleError(f"zero denominator at {at}")
    values = n / d
    # at n = 0 the quadrature form is 0 * inf; its limit is band_n / |d|
    n_safe = np.where(n == 0.0, 1.0, n)
    band = np.abs(values) * np.sqrt((n_band / n_safe) ** 2 + (d_band / d) ** 2)
    band = np.where(n == 0.0, n_band / np.abs(d), band)
    if statistic_name is None:
        statistic_name = f"{numerator.statistic_name}/{denominator.statistic_name}"
    return IntradayProfile(
        bins=numerator.bins.copy(),
        values=values[:k],
        band=band[:k],
        overnight_value=float(values[k]) if both else None,
        overnight_band=float(band[k]) if both else None,
        statistic_name=statistic_name,
        band_kind=numerator.band_kind,
    )


@dataclass(frozen=True)
class PowerLawFit:
    """Result of a log-log OLS fit of values ~ amplitude * bin**(-exponent)."""

    amplitude: float
    exponent: float
    fit_range: tuple[int, int]
    residual_rms: float
    exponent_stderr: float


def first_half_range(bins_per_day: int) -> tuple[int, int]:
    """Bins 1 .. K // 2, the default fit window."""
    return (1, max(2, bins_per_day // 2))


def first_two_hours_range(bins_per_day: int) -> tuple[int, int]:
    """Bins for the first two trading hours of five-minute bars, clipped to
    the day when K is small."""
    return (1, max(2, min(bins_per_day, 2 * BINS_PER_HOUR_DEFAULT)))


def _least_squares(x: np.ndarray, y: np.ndarray):
    """Plain OLS line y ~ intercept + slope * x.

    Returns (slope, intercept, mean of x, S_xx, residuals, s^2), where s^2
    is the residual variance on n - 2 degrees of freedom (0 without any).
    """
    x_bar = x.mean()
    y_bar = y.mean()
    s_xx = float(((x - x_bar) ** 2).sum())
    slope = float(((x - x_bar) * (y - y_bar)).sum()) / s_xx
    intercept = y_bar - slope * x_bar
    resid = y - (intercept + slope * x)
    dof = x.size - 2
    s2 = float((resid**2).sum()) / dof if dof > 0 else 0.0
    return slope, intercept, x_bar, s_xx, resid, s2


def fit_power_law(
    profile: IntradayProfile, fit_range: tuple[int, int] | None = None
) -> PowerLawFit:
    """OLS fit of log(value) against log(bin) over an inclusive bin window.

    Requires strictly positive values on the window and at least 3 bins.
    The overnight point never participates.  ``exponent`` is the decay rate
    beta in value ~ A * k**(-beta); ``exponent_stderr`` is the classical
    OLS slope standard error and ``residual_rms`` the root-mean-square
    log-residual.
    """
    if fit_range is None:
        fit_range = first_half_range(int(profile.bins.max()))
    lo, hi = int(fit_range[0]), int(fit_range[1])
    if lo < 1 or hi <= lo:
        raise ValueError(f"bad fit range ({lo}, {hi})")
    mask = (profile.bins >= lo) & (profile.bins <= hi)
    k = profile.bins[mask].astype(np.float64)
    v = profile.values[mask]
    if k.size < 3:
        raise InsufficientDataError(
            f"fit range ({lo}, {hi}) covers {k.size} bins, need at least 3"
        )
    if np.any(v <= 0.0):
        bad = int(k[np.nonzero(v <= 0.0)[0][0]])
        raise DegenerateSampleError(f"non-positive value at bin {bad}, log fit undefined")

    slope, intercept, _, s_xx, resid, s2 = _least_squares(np.log(k), np.log(v))
    return PowerLawFit(
        amplitude=float(np.exp(intercept)),
        exponent=-slope,
        fit_range=(lo, hi),
        residual_rms=float(np.sqrt((resid**2).mean())),
        exponent_stderr=float(np.sqrt(s2 / s_xx)),
    )
