"""Index-conditioned statistics over pooled (bin, day) cells.

Conditioning works on (x, y) pairs bucketed by x: each bucket reports the
mean of y, its standard error, and the pair count.  Buckets below a
minimum count are omitted and tallied.  The defaults are ``RunConfig``'s:
the grid spans index returns of -3% to +3% in 0.10% steps, pooling all
intraday (bin, day) cells; the overnight bin stays out unless asked for.
The four curves of the dispersion grid (dispersion, skewness and kurtosis
against the index return, kurtosis against the dispersion) each pool the
grid and bucket its own pair of columns; the bucketing counts every bucket
in one pass and takes means and spreads over the kept buckets only.

Helpers split a curve into odd and even parts about x = 0 and diagnose
sub-linear growth: a straight line is fitted to the buckets nearest the
origin on each sign branch and extrapolated outward; observed means
falling below the line (beyond one combined standard error everywhere)
mean the statistic grows sub-linearly with |x|.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import RunConfig
from .cross_section import DispersionGrid
from .errors import InsufficientDataError
from .seasonality import _least_squares

DISPERSION_KINDS = ("std", "mad")
MAX_BUCKETS = 10**6  # the most buckets of a fixed-width grid


@dataclass(frozen=True)
class BucketSpec:
    """Contiguous bucket edges over the conditioning variable."""

    edges: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.float64)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("need at least 2 bucket edges")
        if not np.all(np.diff(edges) > 0):
            raise ValueError("bucket edges must be strictly increasing")
        object.__setattr__(self, "edges", edges)

    @classmethod
    def fixed_width(
        cls,
        width: float = RunConfig.bucket_width,
        lo: float = RunConfig.bucket_lo,
        hi: float = RunConfig.bucket_hi,
    ) -> "BucketSpec":
        if width <= 0:
            raise ValueError("bucket width must be positive")
        if hi <= lo:
            raise ValueError("bucket range must have hi > lo")
        span = (hi - lo) / width  # inf when hi - lo overflows; "not" rejects NaN too
        if not span <= MAX_BUCKETS + 0.5:
            raise ValueError(f"bucket range must span at most {MAX_BUCKETS} widths")
        n = int(round(span))
        if not np.isclose(lo + n * width, hi, rtol=0, atol=1e-12 * max(1.0, abs(hi))):
            raise ValueError("bucket range is not a whole number of widths")
        return cls(edges=lo + width * np.arange(n + 1))

    @property
    def centers(self) -> np.ndarray:
        return (self.edges[:-1] + self.edges[1:]) / 2.0

    @property
    def n_buckets(self) -> int:
        return self.edges.size - 1


@dataclass(frozen=True)
class ConditionalCurve:
    """Bucketed conditional means of y given x."""

    bucket_centers: np.ndarray
    means: np.ndarray
    stderr: np.ndarray
    counts: np.ndarray
    conditioning_name: str
    statistic_name: str
    omitted_buckets: int


def conditional_statistic(
    x,
    y,
    buckets: BucketSpec | None = None,
    min_count: int = RunConfig.min_count,
    conditioning_name: str = "x",
    statistic_name: str = "y",
) -> ConditionalCurve:
    """Bucket y by x and report per-bucket mean, stderr and count.

    Pairs outside the edge span are ignored.  Buckets with fewer than
    ``min_count`` pairs are omitted from the curve and counted in
    ``omitted_buckets`` (empty buckets included).  stderr is the population
    std over the bucket divided by sqrt(count).
    """
    if buckets is None:
        buckets = BucketSpec.fixed_width()
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.size != y.size:
        raise ValueError(f"x and y sizes differ ({x.size} vs {y.size})")
    if x.size == 0:
        raise InsufficientDataError("no pairs to condition")

    idx = np.searchsorted(buckets.edges, x, side="right") - 1
    # fold the closing edge into the last bucket
    idx[x == buckets.edges[-1]] = buckets.n_buckets - 1
    in_span = (idx >= 0) & (idx < buckets.n_buckets)
    counts = np.bincount(idx[in_span], minlength=buckets.n_buckets)
    kept = np.flatnonzero(counts >= min_count)
    samples = [y[idx == b] for b in kept]
    return ConditionalCurve(
        bucket_centers=buckets.centers[kept],
        means=np.array([sample.mean() for sample in samples]),
        stderr=np.array([sample.std() for sample in samples]) / np.sqrt(counts[kept]),
        counts=counts[kept],
        conditioning_name=conditioning_name,
        statistic_name=statistic_name,
        omitted_buckets=buckets.n_buckets - kept.size,
    )


def dispersion_vs_index(
    grid: DispersionGrid,
    buckets: BucketSpec | None = None,
    min_count: int = RunConfig.min_count,
    include_overnight: bool = RunConfig.include_overnight_conditioning,
    bins=RunConfig.condition_bins,
) -> ConditionalCurve:
    """sigma_d conditioned on the index return mu_d, pooled over (bin, day)."""
    pool = grid.pooled(include_overnight, bins)
    x, y = pool["index_return"], pool["dispersion"]
    return conditional_statistic(x, y, buckets, min_count, "index_return", "dispersion")


def skew_vs_index(
    grid: DispersionGrid,
    buckets: BucketSpec | None = None,
    min_count: int = RunConfig.min_count,
    include_overnight: bool = RunConfig.include_overnight_conditioning,
    bins=RunConfig.condition_bins,
) -> ConditionalCurve:
    """zeta_d conditioned on the index return mu_d."""
    pool = grid.pooled(include_overnight, bins)
    x, y = pool["index_return"], pool["skewness"]
    return conditional_statistic(x, y, buckets, min_count, "index_return", "skewness")


def kurtosis_vs_index(
    grid: DispersionGrid,
    buckets: BucketSpec | None = None,
    min_count: int = RunConfig.min_count,
    include_overnight: bool = RunConfig.include_overnight_conditioning,
    bins=RunConfig.condition_bins,
    absolute_index: bool = False,
) -> ConditionalCurve:
    """kappa_d conditioned on mu_d, or on |mu_d| with ``absolute_index``."""
    pool = grid.pooled(include_overnight, bins)
    x = np.abs(pool["index_return"]) if absolute_index else pool["index_return"]
    name = "abs_index_return" if absolute_index else "index_return"
    return conditional_statistic(x, pool["kurtosis"], buckets, min_count, name, "kurtosis")


def kurtosis_vs_dispersion(
    grid: DispersionGrid,
    buckets: BucketSpec | None = None,
    min_count: int = RunConfig.min_count,
    include_overnight: bool = RunConfig.include_overnight_conditioning,
    bins=RunConfig.condition_bins,
    dispersion_kind: str = "std",
) -> ConditionalCurve:
    """kappa_d conditioned on the dispersion, measured as std or MAD."""
    if dispersion_kind not in DISPERSION_KINDS:
        raise ValueError(
            f"unknown dispersion kind {dispersion_kind!r}, expected {DISPERSION_KINDS}"
        )
    pool = grid.pooled(include_overnight, bins)
    x = pool["dispersion" if dispersion_kind == "std" else "mad"]
    name = f"dispersion_{dispersion_kind}"
    return conditional_statistic(x, pool["kurtosis"], buckets, min_count, name, "kurtosis")


def odd_even_decompose(
    curve: ConditionalCurve, center_tol: float = 1e-9
) -> tuple[ConditionalCurve, ConditionalCurve]:
    """Split a curve into odd and even parts about x = 0.

    Buckets at +c and -c pair up (|c| within ``center_tol``); both parts
    live on the non-negative centers.  odd = (f(c) - f(-c)) / 2,
    even = (f(c) + f(-c)) / 2, with errors combined in quadrature.  A
    bucket whose mirror is missing is an error listing the offenders.
    """
    c = curve.bucket_centers
    pos = np.nonzero(c > center_tol)[0]
    neg = np.nonzero(c < -center_tol)[0]
    zero = np.nonzero(np.abs(c) <= center_tol)[0]
    near = np.abs(c[pos, None] + c[neg]) <= center_tol
    near &= near.cumsum(axis=1) == 1  # each positive bucket pairs with its first hit
    unpaired = sorted(c[pos[~near.any(axis=1)]].tolist() + c[neg[~near.any(axis=0)]].tolist())
    unpaired += c[np.isnan(c)].tolist()  # a NaN center is on neither side of 0
    if unpaired:
        shown = ", ".join(f"{u:+.6g}" for u in unpaired[:8])
        raise ValueError(f"buckets without a mirror partner at {shown}")
    # every row of near now holds one hit: its column is the row's partner
    order = np.argsort(c[pos], kind="stable")
    i, j = pos[order], neg[np.nonzero(near)[1]][order]
    m, s, n = curve.means, curve.stderr, curve.counts
    combined = np.hypot(s[i], s[j]) / 2.0
    origin = np.zeros(zero.size)  # center, odd mean and odd error of a zero bucket

    def build(means, errs, tag):
        return replace(
            curve,
            bucket_centers=np.concatenate([origin, c[i]]),
            means=np.concatenate(means),
            stderr=np.concatenate(errs),
            counts=np.concatenate([n[zero], n[i] + n[j]]).astype(int),
            statistic_name=f"{tag}[{curve.statistic_name}]",
        )

    return (
        build([origin, (m[i] - m[j]) / 2.0], [origin, combined], "odd"),
        build([m[zero], (m[i] + m[j]) / 2.0], [s[zero], combined], "even"),
    )


@dataclass(frozen=True)
class BranchDiagnostic:
    """Origin-line extrapolation on one sign branch of a curve."""

    sign: int
    slope: float
    intercept: float
    centers: np.ndarray
    deviations: np.ndarray
    stderr: np.ndarray
    sub_linear: bool


@dataclass(frozen=True)
class SublinearityReport:
    origin_window: int
    branches: tuple[BranchDiagnostic, ...]
    sub_linear: bool


def sublinearity_diagnostic(
    curve: ConditionalCurve, origin_window: int = 3
) -> SublinearityReport:
    """Test whether a curve grows sub-linearly in |x| on both branches.

    On each sign branch the ``origin_window`` buckets nearest x = 0 fix a
    straight line (plain OLS); the remaining buckets are compared against
    its extrapolation.  A branch is sub-linear when every outer deviation
    (observed - line) is negative by more than one combined standard error;
    the overall verdict requires both branches.  The combined error adds the
    bucket stderr and the line's prediction error in quadrature.
    """
    if origin_window < 2:
        raise ValueError("origin_window must be >= 2")
    c = curve.bucket_centers
    branches = []
    for sign in (+1, -1):
        on_branch = np.nonzero(np.sign(c) == sign)[0]
        if on_branch.size < origin_window + 1:
            raise InsufficientDataError(
                f"branch {sign:+d} has {on_branch.size} buckets, "
                f"need at least {origin_window + 1}"
            )
        order = on_branch[np.argsort(np.abs(c[on_branch]))]
        window = order[:origin_window]
        outer = order[origin_window:]

        xw = c[window]
        slope, intercept, x_bar, s_xx, _, s2 = _least_squares(xw, curve.means[window])

        xo = c[outer]
        predicted = intercept + slope * xo
        deviations = curve.means[outer] - predicted
        pred_var = s2 * (1.0 / xw.size + (xo - x_bar) ** 2 / s_xx)
        combined = np.sqrt(curve.stderr[outer] ** 2 + pred_var)
        ok = bool(np.all(deviations < -combined))
        branches.append(
            BranchDiagnostic(
                sign=sign,
                slope=slope,
                intercept=intercept,
                centers=xo.copy(),
                deviations=deviations,
                stderr=combined,
                sub_linear=ok,
            )
        )
    return SublinearityReport(
        origin_window=origin_window,
        branches=tuple(branches),
        sub_linear=all(b.sub_linear for b in branches),
    )
