"""Cross-sectional dispersion moments and panel normalization."""

import datetime as dt

import numpy as np
import pytest

from intraday.cross_section import dispersion_grid, normalize_panel
from intraday.errors import DegenerateCrossSectionError, InsufficientDataError
from intraday.panel import ReturnPanel
from intraday.robust_moments import (
    low_moment_kurtosis,
    grid_moments,
    low_moment_skewness,
    moment_set,
)
from intraday.synth import gaussian_iid_panel


def panel_from_array(arr, overnight=False):
    """A panel holding a (stock, day, bin) array, from 2021-03-01."""
    n, t, k = arr.shape
    d0 = dt.date(2021, 3, 1)
    return ReturnPanel(
        returns=arr,
        stock_ids=tuple(f"S{i:03d}" for i in range(n)),
        dates=tuple(d0 + dt.timedelta(days=j) for j in range(t)),
        bins_per_day=k - overnight,
        overnight_present=overnight,
    )


class TestDispersionMoments:
    def test_single_cell_against_scalar_kernels(self):
        rng = np.random.default_rng(3)
        arr = rng.standard_normal((8, 4, 3)) * 0.01
        grid = dispersion_grid(panel_from_array(arr))
        r, t = 1, 1  # bin 2, day 1
        column = arr[:, 1, 1]
        assert grid.index_return[r, t] == pytest.approx(float(column.mean()))
        assert grid.dispersion[r, t] == pytest.approx(float(column.std()))
        assert grid.skewness[r, t] == pytest.approx(low_moment_skewness(column))
        assert grid.kurtosis[r, t] == pytest.approx(low_moment_kurtosis(column))
        assert grid.median[r, t] == pytest.approx(float(np.median(column)))
        assert (grid.bin_numbers[r], grid.dates[t]) == (2, dt.date(2021, 3, 2))

    def test_fields_are_the_kernel_outputs_in_order(self):
        arr = np.random.default_rng(13).standard_normal((7, 5, 3)) * 0.01
        arr[:, 2, 0] = 2.0**-9  # one degenerate cell, so the mask is not all False
        grid = dispersion_grid(panel_from_array(arr, overnight=True))
        names = ["index_return", "dispersion", "skewness", "kurtosis", "median", "mad"]
        names.append("degenerate")
        for name, moment in zip(names, grid_moments(arr, axis=0), strict=True):
            assert getattr(grid, name).tobytes() == moment.T.copy().tobytes(), name
        assert grid.degenerate.sum() == 1

    def test_grid_matches_cells(self):
        rng = np.random.default_rng(4)
        arr = rng.standard_normal((6, 5, 2)) * 0.01
        panel = panel_from_array(arr, overnight=True)
        grid = dispersion_grid(panel)
        assert list(grid.bin_numbers) == [0, 1]
        for r, b in enumerate((0, 1)):
            for t in range(5):
                cell = moment_set(panel.returns[:, t, panel.column_of(b)])
                assert grid.index_return[r, t] == pytest.approx(cell.mean)
                assert grid.dispersion[r, t] == pytest.approx(cell.volatility)
                assert grid.kurtosis[r, t] == pytest.approx(cell.kurtosis)

    def test_mad_never_exceeds_dispersion(self):
        rng = np.random.default_rng(5)
        arr = rng.standard_normal((30, 10, 2)) * 0.01
        panel = panel_from_array(arr)
        grid = dispersion_grid(panel)
        assert np.all(grid.mad <= grid.dispersion + 1e-15)
        column = arr[:, 0, 0]
        assert grid.mad[0, 0] == pytest.approx(np.abs(column - column.mean()).mean())

    def test_degenerate_cell(self):
        arr = np.full((3, 2, 2), 0.01)
        arr[:, 1, :] = np.random.default_rng(0).standard_normal((3, 2))
        grid = dispersion_grid(panel_from_array(arr))
        assert grid.degenerate[0, 0]
        assert np.isnan(grid.skewness[0, 0]) and np.isnan(grid.kurtosis[0, 0])
        assert grid.dispersion[0, 0] == 0.0
        assert not grid.degenerate[0, 1]

    def test_needs_two_stocks(self):
        panel = panel_from_array(np.zeros((1, 3, 2)))
        with pytest.raises(InsufficientDataError):
            dispersion_grid(panel)

    def test_gaussian_cross_section_kurtosis_near_zero(self):
        # Eq-2d style calibration at N = 1e5: kappa_d within 0.05 of 0
        panel = gaussian_iid_panel(
            n_stocks=10**5, n_days=2, bins_per_day=1, vol_profile=0.01, seed=7
        )
        grid = dispersion_grid(panel)
        assert abs(grid.kurtosis[0, 0]) < 0.05
        assert abs(grid.skewness[0, 0]) < 0.05


class TestPooled:
    def make_grid(self):
        rng = np.random.default_rng(11)
        arr = rng.standard_normal((10, 7, 3)) * 0.01
        return dispersion_grid(panel_from_array(arr, overnight=True))

    def test_excludes_overnight_by_default(self):
        grid = self.make_grid()
        pooled = grid.pooled()
        assert pooled["index_return"].size == 2 * 7  # bins 1..2 only
        with_on = grid.pooled(include_overnight=True)
        assert with_on["index_return"].size == 3 * 7

    def test_bin_selection(self):
        grid = self.make_grid()
        only2 = grid.pooled(bins=[2])
        row = list(grid.bin_numbers).index(2)
        np.testing.assert_allclose(only2["dispersion"], grid.dispersion[row])

    def test_pools_the_six_moments_without_degenerate_cells(self):
        arr = np.random.default_rng(12).standard_normal((10, 7, 3)) * 0.01
        arr[:, 4, 1] = 2.0**-9  # exact mean: one degenerate cell, in bin 1
        grid = dispersion_grid(panel_from_array(arr, overnight=True))
        pooled = grid.pooled()
        names = ["index_return", "dispersion", "skewness", "kurtosis", "median", "mad"]
        assert list(pooled) == names
        keep = ~grid.degenerate[1:]
        assert keep.sum() == 2 * 7 - 1
        for name in names:
            assert pooled[name].tobytes() == getattr(grid, name)[1:][keep].tobytes()

    def test_empty_selection_rejected(self):
        grid = self.make_grid()
        with pytest.raises(ValueError, match="no rows"):
            grid.pooled(bins=[17])


class TestNormalization:
    def test_unit_cross_sectional_variance(self):
        rng = np.random.default_rng(21)
        arr = rng.standard_normal((40, 30, 4)) * 0.01
        panel = panel_from_array(arr, overnight=True)
        npanel = normalize_panel(panel)
        flat = npanel.returns
        disp = flat.std(axis=0)
        np.testing.assert_allclose(disp, 1.0, atol=1e-12)

    def test_scale_invariance_per_cell(self):
        rng = np.random.default_rng(22)
        arr = rng.standard_normal((12, 6, 2)) * 0.01
        scaled = arr.copy()
        scaled[:, 2, 1] *= 7.5
        a = normalize_panel(panel_from_array(arr)).returns
        b = normalize_panel(panel_from_array(scaled)).returns
        np.testing.assert_allclose(a[:, 2, 1], b[:, 2, 1], atol=1e-12)

    def test_degenerate_cell_listed(self):
        arr = np.random.default_rng(23).standard_normal((5, 4, 2)) * 0.01
        arr[:, 3, 0] = 0.02
        panel = panel_from_array(arr)
        with pytest.raises(DegenerateCrossSectionError) as exc:
            normalize_panel(panel)
        assert (1, 3) in exc.value.bin_days

    def test_metadata_preserved(self):
        rng = np.random.default_rng(24)
        arr = rng.standard_normal((4, 3, 2)) * 0.01
        panel = panel_from_array(arr, overnight=True)
        npanel = normalize_panel(panel)
        assert npanel.stock_ids == panel.stock_ids
        assert npanel.bins_per_day == panel.bins_per_day
        assert npanel.overnight_present
        assert isinstance(npanel, ReturnPanel)
        with pytest.raises(ValueError):
            npanel.returns[0, 0, 0] = 1.0

    def test_sigma_matches_the_grid_bytes_and_pair_order(self):
        # N > T, with zero-dispersion cells set in no particular order
        arr = np.random.default_rng(26).standard_normal((40, 6, 4)) * 0.01
        panel = panel_from_array(arr, overnight=True)
        assert normalize_panel(panel).returns.tobytes() == (
            (panel.returns / dispersion_grid(panel).dispersion.T).tobytes()
        )
        for day, col in ((5, 0), (1, 3), (1, 0), (4, 2), (0, 3)):
            arr[:, day, col] = 2.0**-9  # exact mean, so exactly zero dispersion
        panel = panel_from_array(arr, overnight=True)
        with pytest.raises(DegenerateCrossSectionError) as exc:
            normalize_panel(panel)
        rows, days = np.nonzero(dispersion_grid(panel).degenerate)
        from_grid = [(int(panel.bin_numbers[r]), int(t)) for r, t in zip(rows, days)]
        assert exc.value.bin_days == from_grid == [(0, 1), (0, 5), (2, 4), (3, 0), (3, 1)]

    def test_one_stock_panel_is_insufficient(self):
        panel = panel_from_array(np.full((1, 3, 2), 0.01))
        with pytest.raises(InsufficientDataError):
            normalize_panel(panel)
