"""Cross-sectional dispersion statistics and panel normalization.

For each (bin k, day t) the cross-section of returns over stocks yields

    mu_d    = equiweighted index return (cross-sectional mean),
    sigma_d = cross-sectional population std (dispersion),
    zeta_d  = 6 (mu_d - m_d) / sigma_d          (m_d the cross-sectional median),
    kappa_d = 24 (1 - sqrt(pi/2) <|r - mu_d|> / sigma_d),

i.e. :func:`robust_moments.grid_moments`, the kernel of the single-stock
statistics, evaluated across stocks instead of across days.  kappa_d
carries no zeta^2 term.  :class:`DispersionGrid` holds every (bin, day)
cell at once, its first seven fields the kernel's outputs in order.
:meth:`DispersionGrid.pooled` flattens the bins that conditioning pools;
its selection rule, which the run config's ``condition_bins`` follows,
is written once, in ``_pooled_rows``.

:func:`dispersion_scale` computes sigma_d alone, as ``np.std`` across
stocks, the bytes ``grid_moments`` gives.  :func:`normalize_panel` divides
each cell by it and returns another :class:`~intraday.panel.ReturnPanel`,
whose cross-sectional variance is exactly one at every (bin, day): the
input the correlation-spectrum machinery expects.  Given sigma_d,
:func:`~intraday.spectral.bin_spectra` divides each bin of the raw panel
as it copies it instead, with the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .config import slab_map
from .errors import DegenerateCrossSectionError, InsufficientDataError
from .panel import ReturnPanel
from .robust_moments import grid_moments


@dataclass(frozen=True)
class DispersionGrid:
    """Dispersion moments for every (bin, day); arrays are (n_bins, n_days)
    with rows aligned to ``bin_numbers``."""

    # field order is load-bearing: the first seven are grid_moments' outputs
    # in its order, and pooled() returns the first six
    index_return: np.ndarray
    dispersion: np.ndarray
    skewness: np.ndarray
    kurtosis: np.ndarray
    median: np.ndarray
    mad: np.ndarray
    degenerate: np.ndarray
    bin_numbers: np.ndarray
    n_stocks: int
    dates: tuple

    def pooled(
        self, include_overnight: bool = False, bins=None
    ) -> dict[str, np.ndarray]:
        """Flatten selected bins into 1-D arrays for conditioning, dropping
        degenerate cells.

        ``bins`` restricts to specific bin numbers; by default all intraday
        bins pool together and the overnight row stays out.
        """
        keep = _pooled_rows(self.bin_numbers, include_overnight, bins)
        mask = ~self.degenerate[keep]
        return {f.name: getattr(self, f.name)[keep][mask] for f in fields(self)[:6]}


def _pooled_rows(bin_numbers, include_overnight: bool, bins) -> np.ndarray:
    """Mask of the bins that conditioning pools: ``bins``, by default all of
    ``bin_numbers``, less the overnight bin 0 unless ``include_overnight``.
    A selection that pools no row is an error, and then one that names a
    bin outside ``bin_numbers``; this is the one check of ``condition_bins``."""
    labels = np.asarray(bin_numbers)
    keep = np.ones(labels.size, dtype=bool) if include_overnight else labels != 0
    wanted = labels.tolist() if bins is None else [int(b) for b in bins]
    keep &= np.isin(labels, wanted)
    if not keep.any():
        raise ValueError(
            f"{wanted} select no rows of the bins {labels.tolist()} "
            f"(overnight in: {include_overnight})"
        )
    unknown = sorted(set(wanted) - set(labels.tolist()))
    if unknown:
        raise ValueError(f"{unknown} are not bins of the panel {labels.tolist()}")
    return keep


def dispersion_grid(panel: ReturnPanel) -> DispersionGrid:
    """Cross-sectional moments for every (bin, day) cell of a panel; slabs
    of days run on the kernel threads; fewer than 2 stocks raise
    :class:`~intraday.errors.InsufficientDataError` from
    :func:`~intraday.robust_moments.grid_moments`."""
    returns = panel.returns
    slabs = slab_map(
        lambda days: grid_moments(returns[:, days], axis=0), returns.shape[1], returns.nbytes
    )
    # each slab's axes arrive as (day, bin); present them bin-major.
    return DispersionGrid(
        *(np.concatenate([m.T for m in moment], axis=1) for moment in zip(*slabs)),
        bin_numbers=panel.bin_numbers,
        n_stocks=panel.n_stocks,
        dates=tuple(panel.dates),
    )


def dispersion_scale(panel: ReturnPanel) -> np.ndarray:
    """The cross-sectional dispersion sigma_d of every (bin, day), as a
    (day, bin) array aligned with a stock's ``panel.returns[i]``; slabs of
    days run on the kernel threads.

    Raises :class:`InsufficientDataError` below 2 stocks and
    :class:`DegenerateCrossSectionError` listing every zero-dispersion
    (bin, day) pair, bin-major; nothing is silently passed through.
    """
    if panel.n_stocks < 2:
        raise InsufficientDataError("cross-sections need at least 2 stocks")
    returns = panel.returns
    # std's centred copy is one slab's, never the panel's
    scale = np.concatenate(
        slab_map(lambda days: returns[:, days].std(axis=0), returns.shape[1], returns.nbytes)
    )
    degenerate = (scale == 0.0).T
    if degenerate.any():
        rows, cols = np.nonzero(degenerate)
        pairs = [(int(panel.bin_numbers[r]), int(t)) for r, t in zip(rows, cols)]
        raise DegenerateCrossSectionError(pairs)
    return scale


def normalize_panel(panel: ReturnPanel) -> ReturnPanel:
    """The panel with each (bin, day) cell divided by its
    :func:`dispersion_scale`, in one call that holds no temporary.  Every
    (bin, day) cross-section of the result has population variance one."""
    return replace(panel, returns=panel.returns / dispersion_scale(panel), _fresh=True)
