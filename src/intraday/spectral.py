"""Per-bin correlation spectra and eigen-subspace overlaps.

For a normalized panel (or a raw one that :func:`bin_spectra` divides by
its dispersion bin by bin), each bin k gets an equal-time correlation
matrix across stocks, estimated over days with per-stock centering
(connected moments) and population normalization.  Its eigen-decomposition
is reported with eigenvalues descending and a deterministic eigenvector
sign convention so repeated runs agree bit for bit.

With fewer days T than stocks N the matrix has rank at most T - 1, and
:func:`bin_spectra` decomposes the T x T dual Gram matrix Z'Z/T of the
standardized data Z instead of the N x N correlation matrix: the nonzero
eigenvalues are shared, and each eigenvector maps back as Z u / sqrt(T g).
Such a spectrum keeps all N eigenvalues (zeros past rank T - 1).  Of the
T - 1 eigenvectors that the data determine it keeps only those that the
analysis reads, ranks 1..``eigen_hi`` (the market mode and the overlap
window), and so does the N x N path.

The stability of eigenvectors across bins is measured by overlap matrices

    W_ij = v_i(reference bin) . v_j(k)

over a chosen eigenvector rank window (2..7 by default, the leading modes
below the market mode); singular values of W near one mean the subspace
persists through the day.  A Monte-Carlo baseline for unrelated random
subspaces calibrates how large those singular values would be by chance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import RunConfig, single_threaded_blas, thread_map
from .errors import DegenerateSampleError, InsufficientDataError
from .panel import ReturnPanel

SYMMETRY_TOL = 1e-12
NULL_BLOCK = 16  # trials per stacked QR and SVD in random_overlap_baseline


@dataclass(frozen=True)
class CorrelationMatrix:
    """Equal-time correlation across stocks for one bin."""

    entries: np.ndarray
    bin: int
    sample_count: int

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"correlation matrix must be square, got {arr.shape}")
        object.__setattr__(self, "entries", arr)


@dataclass(frozen=True)
class BinSpectrum:
    """Eigenvalues (descending) and sign-fixed eigenvectors for one bin.

    ``eigenvalues`` holds all N.  ``eigenvectors`` is N x N from
    :func:`eigen_decompose`; :func:`bin_spectra` keeps the leading
    ``eigen_hi`` columns, and at most T - 1 when the bin has fewer days T
    than stocks N: past rank T - 1 the eigenvalues are exactly zero and
    their eigenvectors are an arbitrary basis of the null space.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column j pairs with eigenvalues[j]
    bin: int

    @property
    def n(self) -> int:
        return self.eigenvalues.size


@dataclass(frozen=True)
class MarketMode:
    lambda1_over_n: float
    v1_dot_e: float


@dataclass(frozen=True)
class OverlapResult:
    """Overlap of one bin's eigenvector window against the reference bin."""

    w: np.ndarray
    singular_values: np.ndarray  # descending
    bin: int
    reference_bin: int
    index_range: tuple[int, int]


def _check_days(npanel: ReturnPanel, k: int) -> None:
    """The day-count checks :func:`correlation_matrix` documents for bin
    ``k``: fewer than 2 days raise, fewer days than stocks warn."""
    n_stocks, n_days = npanel.returns.shape[:2]
    if n_days < 2:
        raise InsufficientDataError("need at least 2 days for correlations")
    if n_days < n_stocks:
        warnings.warn(
            f"bin {k}: {n_days} days < {n_stocks} stocks, correlation matrix "
            "is rank-deficient",
            stacklevel=3,
        )


def _standardized(npanel: ReturnPanel, k: int, dispersion) -> tuple[np.ndarray, np.ndarray]:
    """Bin ``k``'s stocks x days data, divided by ``dispersion`` unless None,
    centered per stock, and each stock's population std; a stock flat over
    the days is an error naming it."""
    col = npanel.column_of(k)
    column = npanel.returns[:, :, col]
    # one contiguous copy of the bin's strided column, read three times below;
    # the quotient is normalize_panel's, element for element
    data = np.ascontiguousarray(column) if dispersion is None else column / dispersion[:, col]
    centered = data - data.mean(axis=1, keepdims=True)
    scale = np.sqrt((centered**2).mean(axis=1))
    # constant rows must be caught exactly; mean subtraction can leave an
    # ulp-sized residue, so test the raw values, not the rounded scale
    flat = np.nonzero(np.all(data == data[:, :1], axis=1) | (scale == 0.0))[0]
    if flat.size:
        names = ", ".join(npanel.stock_ids[i] for i in flat[:5])
        raise DegenerateSampleError(
            f"zero variance at bin {k} for stock(s): {names}"
        )
    return centered, scale


def _correlation(centered: np.ndarray, scale: np.ndarray, k: int) -> CorrelationMatrix:
    n_days = centered.shape[1]
    c = (centered @ centered.T) / n_days
    c /= np.outer(scale, scale)
    c = (c + c.T) / 2.0
    np.clip(c, -1.0, 1.0, out=c)
    np.fill_diagonal(c, 1.0)
    return CorrelationMatrix(entries=c, bin=int(k), sample_count=n_days)


def correlation_matrix(npanel: ReturnPanel, k: int) -> CorrelationMatrix:
    """Correlation across stocks at bin ``k`` estimated over days.

    Per-stock means over days are removed and each row is scaled by its
    population std, so the diagonal is exactly one.  A stock with zero
    variance at this bin is an error naming the stock; fewer days than
    stocks only warns (the matrix is then rank-deficient but well defined).
    """
    _check_days(npanel, k)
    return _correlation(*_standardized(npanel, k, None), k)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so each sums positive; an exactly zero sum
    falls back to the first nonzero entry being positive."""
    # contiguous rows give each column's sum the bytes of summing it alone
    sums = np.ascontiguousarray(vectors.T).sum(axis=1)
    first = vectors[np.argmax(vectors != 0, axis=0), np.arange(vectors.shape[1])]
    out = vectors.copy()
    out[:, (sums < 0.0) | (sums == 0.0) & (first < 0.0)] *= -1.0
    return out


def eigen_decompose(matrix: CorrelationMatrix) -> BinSpectrum:
    """Full eigen-decomposition, eigenvalues descending, signs fixed."""
    c = matrix.entries
    if np.max(np.abs(c - c.T)) > SYMMETRY_TOL:
        raise ValueError("matrix is not symmetric within tolerance")
    eigenvalues, eigenvectors = np.linalg.eigh(c)
    order = np.argsort(eigenvalues)[::-1]
    return BinSpectrum(
        eigenvalues=eigenvalues[order].copy(),
        eigenvectors=_fix_signs(eigenvectors[:, order]),
        bin=matrix.bin,
    )


def market_mode_stats(spectrum: BinSpectrum) -> MarketMode:
    """Top-eigenvalue share lambda_1/N and alignment of v_1 with the
    equal-weight direction e = (1, ..., 1)/sqrt(N)."""
    n = spectrum.n
    # a strided e: OpenBLAS's ddot sums in one order whatever the stride of
    # rank 1, which is contiguous in an N x 1 or Fortran-ordered array
    e = np.full((n, 2), 1.0 / np.sqrt(n))[:, 0]
    return MarketMode(
        lambda1_over_n=float(spectrum.eigenvalues[0] / n),
        v1_dot_e=float(spectrum.eigenvectors[:, 0] @ e),
    )


def _bin_spectrum(npanel: ReturnPanel, k: int, keep: int, dispersion) -> BinSpectrum:
    centered, scale = _standardized(npanel, k, dispersion)
    n_stocks, n_days = centered.shape
    if n_days < n_stocks:
        # Centering leaves at most T - 1 nonzero eigenvalues; a bin with
        # fewer (a repeated day, say) takes the N x N path below.
        z = centered / scale[:, None]
        g, u = np.linalg.eigh((z.T @ z) / n_days)
        rank = n_days - 1
        g, u = g[::-1][:rank], u[:, ::-1][:, :rank]
        if g[-1] > n_days * np.finfo(np.float64).eps * g[0]:
            eigenvalues = np.zeros(n_stocks)
            eigenvalues[:rank] = g
            # every column is mapped back: a narrower product can differ in
            # its last bits; _fix_signs copies only the kept ones
            vectors = z @ (u / np.sqrt(n_days * g))
            return BinSpectrum(eigenvalues, _fix_signs(vectors[:, :keep]), bin=int(k))
    full = eigen_decompose(_correlation(centered, scale, k))
    # a copy, so that the N x N array is freed
    return BinSpectrum(full.eigenvalues, full.eigenvectors[:, :keep].copy(), full.bin)


def bin_spectra(
    npanel: ReturnPanel, eigen_hi: int = RunConfig.eigen_hi, dispersion: np.ndarray | None = None
) -> list[BinSpectrum]:
    """Eigen-decompose every bin of the normalized panel:
    ``eigen_decompose(correlation_matrix(npanel, k))`` run under
    :func:`~intraday.config.single_threaded_blas` (outside it they use the
    multi-threaded BLAS, whose last bits can differ), or the dual Gram matrix
    when the bin has fewer days than stocks (see the module docstring).  The
    bins run through :func:`~intraday.config.thread_map`, after every bin's
    day-count check and warning on the calling thread.

    Each spectrum holds all N eigenvalues but only the eigenvectors of ranks
    1..``eigen_hi``, as many of them as the path holds (N, or T - 1 on the
    dual path); pass ``eigen_hi=n_stocks`` for every one.  The kept columns
    are the leading columns of the full set bit for bit.

    Given ``dispersion``, the (day, bin) array of
    :func:`~intraday.cross_section.dispersion_scale`, ``npanel`` is the raw
    panel and each bin is divided by its dispersion as it is copied:
    ``bin_spectra(panel, dispersion=dispersion_scale(panel))`` is
    ``bin_spectra(normalize_panel(panel))`` bit for bit, with no normalized
    copy of the panel."""
    if eigen_hi < 1:
        raise ValueError(f"eigen_hi must be >= 1, got {eigen_hi}")
    if dispersion is not None and dispersion.shape != npanel.returns.shape[1:]:
        raise ValueError(f"dispersion {dispersion.shape} is not (day, bin) of the panel")
    bins = [int(k) for k in npanel.bin_numbers]
    for k in bins:
        _check_days(npanel, k)
    return thread_map(lambda k: _bin_spectrum(npanel, k, eigen_hi, dispersion), bins)


def overlap_singular_values(
    spectra: Sequence[BinSpectrum],
    reference_bin: int = RunConfig.reference_bin,
    index_range: tuple[int, int] = (RunConfig.eigen_lo, RunConfig.eigen_hi),
) -> list[OverlapResult]:
    """Overlap matrices of each bin's eigenvector window with the reference.

    ``index_range`` selects eigenvector ranks (1-based, rank 1 is the top
    mode) inclusively; the default, ``RunConfig``'s (2, 7), tracks the six
    leading modes below the market mode.  Singular values come back
    descending in [0, 1] up to roundoff.
    """
    lo, hi = int(index_range[0]), int(index_range[1])
    if lo < 1 or hi < lo:
        raise ValueError(f"bad index range ({lo}, {hi})")
    by_bin = {s.bin: s for s in spectra}
    if reference_bin not in by_bin:
        raise ValueError(f"reference bin {reference_bin} not among spectra")
    ref = by_bin[reference_bin]
    if hi > ref.n:
        raise ValueError(f"index range ({lo}, {hi}) exceeds dimension {ref.n}")
    held = min(s.eigenvectors.shape[1] for s in spectra)
    if hi > held:
        raise ValueError(
            f"index range ({lo}, {hi}) exceeds the {held} eigenvectors held "
            "(bin_spectra keeps ranks 1..eigen_hi, and rank is at most days - 1)"
        )
    cols = slice(lo - 1, hi)
    ref_block = ref.eigenvectors[:, cols]
    out = []
    for spectrum in spectra:
        if spectrum.n != ref.n:
            raise ValueError("spectra have mismatched dimensions")
        w = ref_block.T @ spectrum.eigenvectors[:, cols]
        singular = np.linalg.svd(w, compute_uv=False)
        out.append(
            OverlapResult(
                w=w,
                singular_values=singular,
                bin=spectrum.bin,
                reference_bin=reference_bin,
                index_range=(lo, hi),
            )
        )
    return out


def random_overlap_baseline(
    dim: int,
    subspace_dim: int,
    trials: int = RunConfig.null_trials,
    quantile: float = RunConfig.null_quantile,
    seed: int = RunConfig.null_seed,
) -> float:
    """Upper quantile of the largest overlap singular value between two
    independent random orthonormal frames in ``dim`` dimensions.

    Each trial draws two Gaussian ``dim x subspace_dim`` frames,
    orthonormalizes them, and records the largest singular value of their
    overlap.  Trials use independent substreams spawned from ``seed``, so
    the result does not depend on evaluation order: blocks of
    ``NULL_BLOCK`` trials share one stacked QR, product and SVD, bit for
    bit as one trial at a time, on a single-threaded BLAS.  At least 1000
    trials are required for a stable tail estimate.
    """
    if subspace_dim >= dim:
        raise ValueError(f"subspace dimension {subspace_dim} must be < {dim}")
    if subspace_dim < 1:
        raise ValueError("subspace dimension must be >= 1")
    if trials < 1000:
        raise ValueError(f"need at least 1000 trials, got {trials}")
    if not 0.0 < quantile < 1.0:
        raise ValueError("quantile must be inside (0, 1)")
    root = np.random.SeedSequence(seed)
    largest = np.empty(trials)
    frames = np.empty((NULL_BLOCK, 2, dim, subspace_dim))
    with single_threaded_blas():
        for start in range(0, trials, NULL_BLOCK):
            block = frames[: trials - start]
            # successive spawns give the children of one spawn(trials)
            for pair, ss in zip(block, root.spawn(len(block))):
                rng = np.random.default_rng(ss)
                for frame in pair:
                    rng.standard_normal(out=frame)
            q, _ = np.linalg.qr(block)
            overlap = np.swapaxes(q[:, 0], 1, 2) @ q[:, 1]
            largest[start : start + len(block)] = np.linalg.svd(overlap, compute_uv=False)[:, 0]
    return float(np.quantile(largest, quantile))
