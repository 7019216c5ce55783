"""Low-moment robust estimators of skewness and kurtosis.

Heavy-tailed return samples make third and fourth sample moments nearly
useless, so shape is measured here through low-order statistics instead:

* skewness from the mean-median gap,

      zeta = 6 (mean - median) / sigma,

  which vanishes for symmetric laws and matches the classical Pearson
  construction up to its conventional factor;
* kurtosis from the mean absolute deviation (taken about the mean),

      kappa = 24 (1 - sqrt(pi/2) * mad / sigma),

  calibrated so a Gaussian sample gives kappa -> 0 (Gaussian mad / sigma is
  sqrt(2/pi)).  Fatter tails shrink mad relative to sigma and push kappa
  up; kappa never exceeds 24.  An optional additive zeta^2 correction term
  compensates skewness leakage; it is off by default and numerically
  negligible for daily equity panels.

``sigma`` throughout is the population standard deviation (1/T
normalization).  :func:`grid_moments` is the one kernel, evaluated along
days for single stocks and along stocks for the dispersion; the scalar
functions wrap it for one sample, and it alone rejects a sample of fewer
than 2 values.  :class:`MomentGrid` takes its seven outputs in order for
every (stock, bin), as ``cross_section.DispersionGrid`` does for every
(bin, day).  One sort gives the median and one
centred copy the MAD and sigma, with the bytes of ``np.median``,
``np.abs(x - mean).mean()`` and ``np.std``.  A zero-dispersion sample has
no defined shape: the scalar functions raise :class:`DegenerateSampleError`,
and the grid marks the cell degenerate instead of inventing a value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import slab_map
from .errors import DegenerateSampleError, InsufficientDataError
from .panel import ReturnPanel

ROOT_HALF_PI = float(np.sqrt(np.pi / 2.0))


@dataclass(frozen=True)
class MomentSet:
    """Per-sample moment bundle; ``skewness``/``kurtosis`` are None when the
    sample is degenerate (zero dispersion)."""

    mean: float
    volatility: float
    skewness: float | None
    kurtosis: float | None
    median: float
    sample_count: int

    @property
    def degenerate(self) -> bool:
        return self.skewness is None


def grid_moments(values: np.ndarray, axis: int):
    """Vectorized kernel evaluation along ``axis`` of an array.

    Returns (mean, volatility, skewness, kurtosis, median, mad, degenerate);
    degenerate slots hold NaN in the shape statistics and True in the mask.
    The same kernel backs both time-series and cross-sectional use.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[axis]
    if n < 2:
        raise InsufficientDataError(
            f"need at least 2 observations along axis {axis}"
        )
    # An overflow ends as an infinite statistic, which a stage names before
    # it writes any table, so it is not warned of as well.
    with np.errstate(over="ignore"):
        # np.median's formula: mean of the middle one or two, NaN from the top
        ordered = np.sort(np.moveaxis(values, axis, -1), axis=-1)
        median = ordered[..., (n - 1) // 2 : n // 2 + 1].mean(axis=-1)
        last = ordered[..., -1]
        median = np.where(np.isnan(last), last, median)[()]
        del ordered, last
        # np.std's own sequence, its centred copy shared with the MAD
        mean = values.mean(axis=axis)
        centered = values - np.expand_dims(mean, axis)
        mad = np.abs(centered).mean(axis=axis)
        vol = np.sqrt(np.square(centered, out=centered).sum(axis=axis) / n)
    degenerate = vol == 0.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        skew = 6.0 * (mean - median) / vol
        kurt = 24.0 * (1.0 - ROOT_HALF_PI * mad / vol)
    skew = np.where(degenerate, np.nan, skew)
    kurt = np.where(degenerate, np.nan, kurt)
    return mean, vol, skew, kurt, median, mad, degenerate


def moment_set(x, include_skew_correction: bool = False) -> MomentSet:
    """All low-moment statistics of one sample, from :func:`grid_moments`."""
    arr = np.asarray(x, dtype=np.float64).ravel()
    if not np.all(np.isfinite(arr)):
        raise ValueError("sample contains non-finite values")
    mean, vol, skew, kurt, median, _, degenerate = grid_moments(arr, axis=0)
    if degenerate:
        return MomentSet(float(mean), 0.0, None, None, float(median), arr.size)
    if include_skew_correction:
        kurt = kurt + skew * skew
    return MomentSet(
        float(mean), float(vol), float(skew), float(kurt), float(median), arr.size
    )


def low_moment_skewness(x) -> float:
    """Mean-median skewness, 6 (mean - median) / sigma."""
    moments = moment_set(x)
    if moments.degenerate:
        raise DegenerateSampleError("zero dispersion, skewness undefined")
    return moments.skewness


def low_moment_kurtosis(x, include_skew_correction: bool = False) -> float:
    """MAD-based kurtosis, 24 (1 - sqrt(pi/2) mad / sigma) [+ zeta^2]."""
    moments = moment_set(x, include_skew_correction)
    if moments.degenerate:
        raise DegenerateSampleError("zero dispersion, kurtosis undefined")
    return moments.kurtosis


@dataclass(frozen=True)
class MomentGrid:
    """Per (stock, bin) moment arrays over days; NaN marks degenerate cells,
    mirrored by the ``degenerate`` mask."""

    # field order is load-bearing: the first seven are grid_moments' outputs
    # in its order
    mean: np.ndarray
    volatility: np.ndarray
    skewness: np.ndarray
    kurtosis: np.ndarray
    median: np.ndarray
    mad: np.ndarray
    degenerate: np.ndarray
    bin_numbers: np.ndarray
    stock_ids: tuple[str, ...]
    sample_count: int


def stock_bin_moments(panel: ReturnPanel) -> MomentGrid:
    """Evaluate the kernels over days for every (stock, bin) cell.

    Includes the overnight bin when the panel carries one.  Degenerate
    cells (a stock flat across all days in a bin) propagate as markers
    without aborting the rest of the grid.  Stock slabs run on the kernel
    threads (:func:`~intraday.config.slab_map`).
    """
    returns = panel.returns
    slabs = slab_map(
        lambda stocks: grid_moments(returns[stocks], axis=1), returns.shape[0], returns.nbytes
    )
    return MomentGrid(
        *(np.concatenate(moment) for moment in zip(*slabs)),
        bin_numbers=panel.bin_numbers,
        stock_ids=panel.stock_ids,
        sample_count=panel.n_days,
    )
