"""Peak memory of the staged data path's reads.

A table read holds one copy of the columns it returns (20 bytes a row from
prices: 32-bit codes and labels and a float64 return; 24 from returns,
whose bins are int64) plus one parse chunk of ``CHUNK_BYTES``, and the
price conversion and the panel load about half a copy more, so on a table
many chunks long the tracemalloc peak of each stays within a bound in
bytes per row.  A stage's read of the canonical table holds its returns
twice at most, as parts and as the panel, and ``normalize_panel`` one panel
beside its input.  A Gaussian null panel is its draw, scaled in place.  The
spectra divide each bin by its dispersion as they copy it, so given the raw
panel and its dispersion they hold under half a panel beside it, and
``run``'s spectra stage holds no normalized copy.  The
moment kernels hold their outputs twice, as slab parts and joined, and a
sorted and a centred copy of one slab per kernel thread, a slab being about
``SLAB_BYTES`` of a panel at any thread count, so their peak on a large
panel does not grow with it.  The canonical write holds the returns it
reads back and one block of rows, and the synth and ingest stages keep that
read-back as their panel without a copy.  Validation holds boolean masks,
an eighth of the panel each.  The null baseline holds its trials' values
and one block of draws and seeds.
"""

import dataclasses
import datetime as dt
import os
import tracemalloc

import numpy as np
import pytest

from intraday import cli, config
from intraday.config import SLAB_BYTES, RunConfig
from intraday.cross_section import dispersion_grid, dispersion_scale, normalize_panel
from intraday.panel import (
    ReturnPanel,
    load_panel,
    read_return_records,
    returns_from_prices,
    validate_panel,
    write_return_records,
)
from intraday.robust_moments import stock_bin_moments
from intraday.spectral import bin_spectra, random_overlap_baseline
from intraday.synth import gaussian_iid_panel
from intraday.tableio import CHUNK_BYTES, VERSION_LINE

# 100 symbols x 52 days x 78 five-minute bars: 405,600 rows, about 14 MB
SYMBOLS = [f"S{i:04d}" for i in range(100)]
DATES = [(dt.date(2020, 1, 6) + dt.timedelta(days=d)).isoformat() for d in range(52)]
STAMPS = [f"{9 + (30 + 5 * k) // 60:02d}:{(30 + 5 * k) % 60:02d}" for k in range(78)]


def _write_table(path, header, keys, values):
    """A table of (date, key, symbol, value) rows, dates outermost."""
    cells = ((d, k, s) for d in DATES for k in keys for s in SYMBOLS)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(header + "\n")
        handle.writelines(f"{d},{k},{s},{v:.10g}\n" for (d, k, s), v in zip(cells, values))
    assert os.path.getsize(path) > 10 * CHUNK_BYTES


def _traced(call):
    """``call()`` and the tracemalloc peak while it ran."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


N_ROWS = len(DATES) * len(STAMPS) * len(SYMBOLS)


def _prices(tmp_path):
    path = tmp_path / "prices.csv"
    values = np.random.default_rng(0).uniform(10, 20, N_ROWS).tolist()
    _write_table(path, "date,time,symbol,price", STAMPS, values)
    return path


def test_return_read_holds_one_copy_of_its_columns_and_a_chunk(tmp_path):
    path = tmp_path / "returns.csv"
    values = np.random.default_rng(0).normal(0, 0.01, N_ROWS).tolist()
    _write_table(path, "date,bin,symbol,return", range(1, len(STAMPS) + 1), values)
    columns, peak = _traced(lambda: read_return_records(path))
    assert len(columns) == N_ROWS
    # 29.7 with columns grown in place by 256 KiB chunks and 32-bit key
    # codes; 51.0 with 1 MiB chunks joined column by column and 64-bit codes
    assert peak / N_ROWS < 36


def test_price_conversion_holds_one_copy_of_its_columns_and_a_chunk(tmp_path):
    path = _prices(tmp_path)
    columns, peak = _traced(lambda: returns_from_prices(path))
    assert len(columns) == N_ROWS - len(SYMBOLS)  # each symbol's first stamp has no return
    # 28.2 with a boolean occupancy array and 32-bit codes and cells; 55.1
    # with one bincount over the cells, 64-bit codes and 1 MiB chunks
    assert peak / N_ROWS < 36


def test_price_conversion_and_pruning_load_hold_one_and_a_half_copies(tmp_path):
    path = _prices(tmp_path)
    (panel, report), peak = _traced(lambda: load_panel(returns_from_prices(path), "drop-incomplete"))
    # the first day has no bin 1, so it goes, and its cells move in place
    assert report.days_dropped and panel.returns.shape == (len(SYMBOLS), len(DATES) - 1, 78)
    # 30.5 with the panel scattered a block of rows at a time and pruned in
    # place; 55.1 with a count cube and a pruned copy of the panel
    assert peak / N_ROWS < 34


def test_canonical_read_holds_at_most_twice_its_panel_and_a_chunk(tmp_path):
    n_rows = len(DATES) * len(STAMPS) * len(SYMBOLS)
    values = np.random.default_rng(0).normal(0, 0.01, n_rows).tolist()
    header = VERSION_LINE + "date,bin,symbol,return"
    _write_table(tmp_path / "returns_canonical.csv", header, range(1, 79), values)
    config = RunConfig(output_dir=str(tmp_path))
    panel, peak = _traced(lambda: cli._read_canonical(config))
    assert panel.returns.shape == (len(SYMBOLS), len(DATES), len(STAMPS))
    # 2.6 through the canonical layout check; 6.4 through the general reader
    assert peak <= 4 * panel.returns.nbytes


def test_gaussian_null_panel_holds_its_draw_once():
    panel, peak = _traced(lambda: gaussian_iid_panel(100, 120, 78, 0.01, seed=0))
    # 1.0-1.1: the draw, scaled in place, becomes the panel's returns; 2.0-2.1
    # with a scaled copy of the draw, which the panel copied again
    assert peak < 1.5 * panel.returns.nbytes


def test_normalize_panel_holds_one_panel_beside_its_input():
    panel = gaussian_iid_panel(len(SYMBOLS), len(DATES), len(STAMPS), 0.01, seed=0)
    normalized, peak = _traced(lambda: normalize_panel(panel))
    assert normalized.returns.flags.c_contiguous and not normalized.returns.flags.writeable
    # 1.0: the quotient becomes the panel's returns without a copy (2.0 with one)
    assert peak < 1.25 * panel.returns.nbytes


@pytest.mark.filterwarnings("ignore:bin .* rank-deficient")
@pytest.mark.parametrize("given", ["dispersion", "normalized panel"])
def test_spectra_hold_under_half_a_panel_beside_their_input(given):
    panel = gaussian_iid_panel(len(SYMBOLS), len(DATES), len(STAMPS), 0.01, seed=0)
    if given == "dispersion":
        spectra = lambda: bin_spectra(panel, dispersion=dispersion_scale(panel))  # noqa: E731
    else:
        npanel = normalize_panel(panel)
        spectra = lambda: bin_spectra(npanel)  # noqa: E731
    _, peak = _traced(spectra)
    # 0.26 given the dispersion: each bin divided as it is copied, beside
    # sigma's slabs and the spectra; 1.26 through bin_spectra(normalize_panel(
    # panel)), which holds a normalized copy.  0.25 given a normalized panel,
    # as before the dispersion keyword.
    assert peak < 0.5 * panel.returns.nbytes


@pytest.mark.parametrize("kernel", [stock_bin_moments, dispersion_grid])
def test_moment_kernels_hold_slabs_not_panels(kernel):
    panel = gaussian_iid_panel(len(SYMBOLS), len(DATES), len(STAMPS), 0.01, seed=0)
    _, peak = _traced(lambda: kernel(panel))
    # 0.4-0.6: two copies of a slab on each of W threads, the 3.2 MB panel cut
    # into 7 slabs of at most SLAB_BYTES at any W; 2.0 unslabbed
    assert peak < panel.returns.nbytes


@pytest.fixture
def blas():
    """numpy's bundled OpenBLAS, its thread count restored after the test."""
    lib = config._bundled_openblas()
    if lib is None:
        pytest.skip("numpy does not bundle OpenBLAS here")
    before = lib.scipy_openblas_get_num_threads64_()
    yield lib
    lib.scipy_openblas_set_num_threads64_(before)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kernel", [stock_bin_moments, dispersion_grid])
def test_moment_kernels_hold_a_few_slab_bytes_per_thread(blas, kernel, threads):
    blas.scipy_openblas_set_num_threads64_(threads)
    assert config.kernel_threads() == threads
    panel = gaussian_iid_panel(100, 200, 78, 0.01, seed=0)  # 12.5 MB, 23.8 SLAB_BYTES
    grid, peak = _traced(lambda: kernel(panel))
    outputs = sum(a.nbytes for a in vars(grid).values() if isinstance(a, np.ndarray))
    # the outputs, as slab parts and joined, and 0.7-1.7 SLAB_BYTES a thread
    assert peak <= 2 * outputs + 3 * threads * SLAB_BYTES


def test_null_holds_its_trials_not_a_seed_per_trial():
    random_overlap_baseline(20, 3, trials=1000, seed=1)  # numpy's first-call state
    trials = 20_000
    _, peak = _traced(lambda: random_overlap_baseline(20, 3, trials=trials, seed=0))
    # 0.36 MB: the trials' values, their sorted copy and one block's frames
    # and seeds; 7.67 MB with a seed spawned for every trial up front
    assert peak <= 16 * trials + (1 << 20)


def test_return_write_holds_its_read_back_and_a_block(tmp_path):
    panel = gaussian_iid_panel(100, 120, 79, 0.001, seed=0)
    _, peak = _traced(lambda: write_return_records(panel, tmp_path / "returns.csv"))
    # 2.1 with key codes per block; 7.0 with full-length key columns
    assert peak <= 3 * panel.returns.nbytes


def _synth_config(tmp_path, n_stocks, n_days, bins_per_day):
    manifest = tmp_path / "synth.cfg"
    manifest.write_text(
        f"n_stocks = {n_stocks}\nn_days = {n_days}\nbins_per_day = {bins_per_day}\n"
        "factor_vol = ushape(0.003, 0.001)\ntarget_correlation = 0.3\n"
        "overnight_vol_multiplier = 2.5\nseed = 20240101\n"
    )
    return RunConfig(
        mode="synth", synth_manifest=str(manifest), output_dir=str(tmp_path / "out"),
        min_count=30, null_trials=1000,
    )


def test_synth_and_ingest_keep_the_table_read_back_as_their_panel(tmp_path, monkeypatch):
    read_backs = []

    def recording(panel, destination, write=cli.write_return_records):
        read_backs.append(write(panel, destination))
        return read_backs[-1]

    monkeypatch.setattr(cli, "write_return_records", recording)
    config = _synth_config(tmp_path, 12, 20, 8)
    synth = cli.stage_synth(config)
    returns = os.path.join(config.output_dir, "returns.csv")
    ingest = cli.stage_ingest(dataclasses.replace(config, mode="returns", input=returns))
    # a C-contiguous view of the read-back, which the panel takes without a
    # copy; a strided transpose before, which ReturnPanel copied
    for read_back, panel in zip(read_backs, (synth, ingest), strict=True):
        assert read_back.flags.c_contiguous
        assert np.shares_memory(panel.returns, read_back)


def test_run_holds_no_normalized_panel(tmp_path, monkeypatch):
    peaks = []

    def spectra(*args, stage=cli.stage_spectra):
        peaks.append(tracemalloc.get_traced_memory()[1])  # the run's peak so far
        tracemalloc.reset_peak()
        stage(*args)
        peaks.append(tracemalloc.get_traced_memory()[1])

    monkeypatch.setattr(cli, "stage_spectra", spectra)
    _, last = _traced(lambda: cli.run_pipeline(_synth_config(tmp_path, 100, 120, 78)))
    before, during = peaks
    panel_bytes = 100 * 120 * 79 * 8
    # 3.16 panels, in synth's draw, with or without a normalized panel
    assert max(before, last) < 3.5 * panel_bytes
    # 1.46-1.47: the run's panel, sigma's slabs and the spectra; 2.26-2.37
    # with a normalized copy of the panel beside it
    assert during < 1.75 * panel_bytes


def test_validation_holds_masks_not_a_float_copy():
    drawn = gaussian_iid_panel(100, 120, 78, 0.01, seed=0)
    returns = drawn.returns.copy()
    planted = {(3, 5, 10): 0.9, (40, 0, 77): -0.8, (99, 119, 0): 0.6,
               (3, 5, 11): np.nan, (50, 60, 20): np.inf, (7, 8, 9): -np.inf}
    for cell, value in planted.items():
        returns[cell] = value
    panel = ReturnPanel(returns, drawn.stock_ids, drawn.dates, 78, overnight_present=False)
    report, peak = _traced(lambda: validate_panel(panel))
    # 0.375: the non-finite and extreme masks and one comparison; 1.25 with |returns|
    assert peak < 0.5 * panel.returns.nbytes
    assert report.lines() == [
        "ok = false",
        "violation: 3 non-finite cell(s): (S0003, 2000-01-08, bin 12), "
        "(S0007, 2000-01-11, bin 10), (S0050, 2000-03-03, bin 21)",
        "warning: 3 cell(s) with |return| > 0.5: (S0003, 2000-01-08, bin 11), "
        "(S0040, 2000-01-03, bin 78), (S0099, 2000-05-01, bin 1)",
    ]
