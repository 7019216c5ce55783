"""Command-line interface: staged pipeline over bar-return panels.

Each subcommand but ``run`` is its ``stage_*`` function: it takes its
inputs as arguments, reads from the output directory each one it is not
handed, computes all of its tables, writes them there in one call (column
dicts through ``tableio.write_table``), so a failed computation leaves none
of them, and returns what later stages need.  ``WRITES`` lists each
subcommand's files in stage order, as the README's table does.  Just before
a stage writes, it removes its own files and those of every later stage,
``run_manifest.txt`` among them, so no table is left that was computed
from a file since replaced; ``run`` removes them all before it starts.

``run`` runs every stage in one process and hands each stage's results to
the next in memory: the canonical panel, the columns ``write_table``
returns for ``stock_moments.csv`` and ``fig1.csv`` (floats as they read
back, at 10 significant digits with -0 read as 0) and the dispersion grid,
which ``spectra`` does not need.  A stage subcommand is handed none of
them, so it reads those tables' columns from the output directory, and
``condition`` builds the grid from the canonical panel, so ``run`` and a
manual stage sequence produce byte-identical tables.  In synth mode ``run`` hands synth's panel, as
returns.csv holds it, straight to ingest: it is dense and in canonical
order, so ingest loads nothing and copies returns.csv to
returns_canonical.csv, which would hold the same bytes.

Every subcommand takes ``-c/--config`` plus one ``--<key>`` flag per
``RunConfig`` field; flag values override the file and parse the same way.
Settings that need the panel (eigen window, reference bin, fit window,
conditioning bins) are checked by ``ingest`` before it writes, and again
by the stage subcommands that use them.  ``SEASONALITY_THREADS`` caps the
package's kernel threads (at most 2) and numpy's bundled OpenBLAS; each BLAS
call inside a kernel is single-threaded, so the outputs do not depend on it.

Exit codes: 0 success, 2 input error, 3 schema error, 4 numeric error,
5 internal error.  Failures print one machine-parsable line to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import shutil
import sys
from collections import Counter
from dataclasses import fields, replace

import numpy as np

from . import __version__
from .conditioning import (
    dispersion_vs_index,
    kurtosis_vs_dispersion,
    kurtosis_vs_index,
    skew_vs_index,
)
from .config import (
    RunConfig,
    apply_thread_cap,
    config_echo_pairs,
    parse_kv_lines,
    run_config_from,
    thread_cap_from_env,
    write_kv_lines,
)
from .cross_section import DispersionGrid, dispersion_grid, normalize_panel
from .errors import (
    DegenerateSampleError,
    FeasibilityError,
    InsufficientDataError,
    IntradayError,
    PanelFormatError,
    SchemaError,
)
from .panel import (
    LoadReport,
    ReturnColumns,
    ReturnPanel,
    load_panel,
    read_canonical_panel,
    read_return_records,
    returns_from_prices,
    validate_panel,
    write_return_records,
)
from .robust_moments import stock_bin_moments
from .seasonality import (
    IntradayProfile,
    fit_power_law,
    profile_over_days,
    profile_over_stocks,
    ratio_profile,
)
from .spectral import (
    bin_spectra,
    market_mode_stats,
    overlap_singular_values,
    random_overlap_baseline,
)
from .synth import generate_market, read_manifest, write_manifest
from .tableio import SCHEMA_VERSION, finite, open_output, read_columns, write_table

# The files each subcommand writes, in stage order, as the README's table lists them.
WRITES = {
    "synth": ("returns.csv", "manifest_echo.txt"),
    "ingest": ("returns_canonical.csv", "load_report.txt", "validation.txt"),
    "moments": ("stock_moments.csv",),
    "cross-section": ("dispersion.csv", "fig1.csv", "fig2.csv"),
    "fit": ("fig1_fit.csv",),
    "spectra": ("fig6.csv", "fig7.csv", "fig7_null.csv"),
    "condition": ("fig3.csv", "fig4.csv", "fig5_index.csv", "fig5_dispersion.csv"),
    "run": ("run_manifest.txt",),
}
RETURNS_FILE, CANONICAL_FILE = WRITES["synth"][0], WRITES["ingest"][0]
# Each stage table a later stage reads back: its file name and the kinds of
# the columns read.  A finite column is one its writer never leaves
# non-finite; kurtosis is NaN in a degenerate cell.
MOMENTS = WRITES["moments"][0], {
    "symbol": str, "bin": int, "volatility": finite("volatility"), "kurtosis": float
}
FIG1 = WRITES["cross-section"][1], {
    "bin": int, "overnight": int, "stock_vol": finite("stock_vol"),
    "stock_vol_band": finite("stock_vol_band"),
}


def _out(config: RunConfig, name: str) -> str:
    return os.path.join(config.output_dir, name)


def _paths(config: RunConfig, *stages: str) -> list[str]:
    """The paths of the files ``stages`` write, in order."""
    return [_out(config, name) for stage in stages for name in WRITES[stage]]


def _clear(config: RunConfig, stage: str) -> None:
    """Remove the files of ``stage`` and of every later stage, which were
    computed from what ``stage`` is about to replace; never the configured
    input."""
    stages = list(WRITES)
    keep = config.input and os.path.realpath(config.input)
    for path in _paths(config, *stages[stages.index(stage) :]):
        if os.path.realpath(path) != keep:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)


def stage_synth(config: RunConfig) -> ReturnPanel:
    """Draw the synthetic panel; return it as returns.csv holds it."""
    manifest = read_manifest(config.synth_manifest)
    panel, echoed = generate_market(manifest)
    _clear(config, "synth")
    os.makedirs(config.output_dir, exist_ok=True)
    returns_path, echo_path = _paths(config, "synth")
    panel = replace(panel, returns=write_return_records(panel, returns_path))
    write_manifest(echoed, echo_path)
    return panel


def stage_ingest(
    config: RunConfig, source: ReturnPanel | ReturnColumns | None = None
) -> ReturnPanel:
    """Check and validate synth's panel or load the input's columns under
    the policy; return the canonical panel as returns_canonical.csv holds it.

    Synth's panel is dense, in canonical order and holds the values
    returns.csv reads back as, so returns.csv is copied for it instead of
    formatted again.
    """
    source = _read_input(config) if source is None else source
    os.makedirs(config.output_dir, exist_ok=True)
    synthetic = isinstance(source, ReturnPanel)
    if synthetic:
        panel, report = source, LoadReport(rows_read=source.returns.size)
    else:
        panel, report = load_panel(source, policy=config.policy)
    del source
    config.check_panel(panel)
    validation = validate_panel(panel, sanity_bound=config.sanity_bound)
    _clear(config, "ingest")
    canonical_path, *report_paths = _paths(config, "ingest")
    if synthetic:
        with open(_out(config, RETURNS_FILE), newline="", encoding="utf-8") as table:
            with open_output(canonical_path) as handle:
                shutil.copyfileobj(table, handle)
    else:
        panel = replace(panel, returns=write_return_records(panel, canonical_path))
    for path, summary in zip(report_paths, (report, validation)):
        with open_output(path) as handle:
            handle.write("\n".join(summary.lines()) + "\n")
    return panel


def _write_tables(config: RunConfig, stage: str, *tables: dict) -> list[dict[str, np.ndarray]]:
    """Write ``stage``'s tables, the columns of each of its files in order,
    all of them computed before the call; return ``write_table``'s columns
    of each.  A float column that holds an infinite value raises
    FloatingPointError naming its file, column and first such data row
    before any file is removed or written."""
    paths = _paths(config, stage)
    for path, columns in zip(paths, tables, strict=True):
        for column, values in columns.items():
            values = np.asarray(values)
            if values.dtype.kind == "f" and np.isinf(values).any():
                row = np.flatnonzero(np.isinf(values))[0] + 1
                raise FloatingPointError(f"{path}: {column} is infinite in data row {row}")
    _clear(config, stage)
    return [write_table(path, columns) for path, columns in zip(paths, tables)]


def stage_moments(config: RunConfig, panel: ReturnPanel | None = None) -> dict[str, np.ndarray]:
    """Per (stock, bin) moments; return stock_moments.csv's columns."""
    grid = stock_bin_moments(_read_canonical(config) if panel is None else panel)
    bins = np.tile(grid.bin_numbers, len(grid.stock_ids))
    symbols = np.repeat(np.array(grid.stock_ids, dtype=object), len(grid.bin_numbers))
    stats = ("mean", "volatility", "skewness", "kurtosis", "median", "degenerate")
    columns = {"symbol": symbols, "bin": bins, "overnight": bins == 0}
    columns.update({name: getattr(grid, name).ravel() for name in stats})
    return _write_tables(config, "moments", columns)[0]


def _profile_columns(profiles: list[IntradayProfile]) -> dict[str, np.ndarray]:
    """A fig table's columns, (bin, overnight, value, band, value, band, ...)
    with the overnight point first if present."""
    lead = [0] if profiles[0].overnight_value is not None else []
    bins = np.array(lead + profiles[0].bins.tolist())
    columns = {"bin": bins, "overnight": bins == 0}
    for p in profiles:
        columns[p.statistic_name] = np.r_[[p.overnight_value] * len(lead), p.values]
        columns[f"{p.statistic_name}_band"] = np.r_[[p.overnight_band] * len(lead), p.band]
    return columns


def _check_once(config: RunConfig, name: str, label: str, cells, rows) -> None:
    """Raise unless the stage table ``name``'s ``rows`` hold each of
    ``cells`` once and nothing else, naming the first cell that fails."""
    path = _out(config, name)
    counts = Counter(rows)
    for cell in cells:
        count = counts.pop(cell, 0)
        if count != 1:
            problem = "no row" if count == 0 else "repeated rows"
            raise PanelFormatError(f"{path}: {problem} for {label.format(*cell)}")
    if counts:
        extra = label.format(*next(iter(counts)))
        raise PanelFormatError(f"{path}: unexpected row for {extra}")


def stage_cross_section(
    config: RunConfig,
    panel: ReturnPanel | None = None,
    moments: dict[str, np.ndarray] | None = None,
) -> tuple[dict[str, np.ndarray], DispersionGrid]:
    """Dispersion grid and the fig1/fig2 profiles, from the panel and
    stock_moments.csv's columns; return fig1.csv's columns and the grid."""
    panel = _read_canonical(config) if panel is None else panel
    moments = _read_table(config, *MOMENTS) if moments is None else moments
    cells = itertools.product(panel.stock_ids, panel.bin_numbers.tolist())
    rows = zip(moments["symbol"].tolist(), moments["bin"].tolist())
    _check_once(config, MOMENTS[0], "symbol {}, bin {}", cells, rows)
    symbols, stock = np.unique(moments["symbol"], return_inverse=True)
    moment_bins, col = np.unique(moments["bin"], return_inverse=True)
    volatility, kurtosis = np.empty((2, len(symbols), len(moment_bins)))
    volatility[stock, col], kurtosis[stock, col] = moments["volatility"], moments["kurtosis"]

    grid = dispersion_grid(panel)
    stock_vol = profile_over_stocks(volatility, "stderr", moment_bins, "stock_vol")
    dispersion_profile = profile_over_days(
        grid.dispersion, "stderr", grid.bin_numbers, "dispersion"
    )
    abs_index = profile_over_days(
        np.abs(grid.index_return), "stderr", grid.bin_numbers, "abs_index_return"
    )
    ratio = ratio_profile(stock_vol, dispersion_profile, "vol_dispersion_ratio")
    stock_kurt = profile_over_stocks(kurtosis, "dispersion", moment_bins, "stock_kurtosis")
    dispersion_kurt = profile_over_days(
        grid.kurtosis, "dispersion", grid.bin_numbers, "dispersion_kurtosis"
    )

    n_bins, n_days = grid.dispersion.shape
    bins = np.tile(grid.bin_numbers, n_days)
    dates = np.repeat(np.array(grid.dates, dtype=object), n_bins)
    stats = "index_return", "dispersion", "skewness", "kurtosis", "median", "mad", "degenerate"
    dispersion = {"date": dates, "bin": bins, "overnight": bins == 0}
    dispersion.update({name: getattr(grid, name).T.ravel() for name in stats})
    fig1 = _profile_columns([stock_vol, dispersion_profile, abs_index, ratio])
    fig2 = _profile_columns([stock_kurt, dispersion_kurt])
    _, fig1, _ = _write_tables(config, "cross-section", dispersion, fig1, fig2)
    return fig1, grid


def stage_fit(
    config: RunConfig, fig1: dict[str, np.ndarray] | None = None, bins_per_day: int | None = None
) -> None:
    """Fit the power law to fig1.csv's intraday stock_vol rows, whose bins
    must be 1..``bins_per_day`` once each: by default the K of
    stock_moments.csv, whence fig1's stock_vol comes."""
    fig1 = _read_table(config, *FIG1) if fig1 is None else fig1
    if bins_per_day is None:
        bins_per_day = int(_read_table(config, *MOMENTS)["bin"].max(initial=0))
    keep = fig1["overnight"] == 0
    bins = fig1["bin"][keep]
    if bins.max(initial=0) > bins_per_day:
        raise PanelFormatError(
            f"{_out(config, FIG1[0])}: intraday bin {bins.max()} is past the last bin, "
            f"{bins_per_day}, of {_out(config, MOMENTS[0])}"
        )
    cells = ((k,) for k in range(1, bins_per_day + 1))
    _check_once(config, FIG1[0], "intraday bin {}", cells, zip(bins.tolist()))
    config.check_fit_window(bins_per_day)
    values, band = fig1["stock_vol"][keep], fig1["stock_vol_band"][keep]
    profile = IntradayProfile(bins, values, band, None, None, "stock_vol", "stderr")
    fit = fit_power_law(profile, config.fit_range_for(bins_per_day))
    columns = {
        "amplitude": [fit.amplitude],
        "exponent": [fit.exponent],
        "fit_lo": [fit.fit_range[0]],
        "fit_hi": [fit.fit_range[1]],
        "residual_rms": [fit.residual_rms],
        "exponent_stderr": [fit.exponent_stderr],
    }
    _write_tables(config, "fit", columns)


def stage_spectra(config: RunConfig, panel: ReturnPanel | None = None) -> None:
    # Neither a panel read here nor the normalized one outlives its use, so the
    # stage holds only the spectra through the overlaps and the null.
    spectra = bin_spectra(
        normalize_panel(_read_canonical(config, check=True) if panel is None else panel),
        eigen_hi=config.eigen_hi,
    )

    modes = [market_mode_stats(spectrum) for spectrum in spectra]
    bins = np.array([spectrum.bin for spectrum in spectra])
    fig6 = {
        "bin": bins,
        "overnight": bins == 0,
        "lambda1_over_n": [mm.lambda1_over_n for mm in modes],
        "v1_dot_e": [mm.v1_dot_e for mm in modes],
    }

    lo, hi = config.eigen_lo, config.eigen_hi
    # one result per spectrum, in the same order, so fig6's bins label fig7's rows
    overlaps = overlap_singular_values(
        spectra, reference_bin=config.reference_bin, index_range=(lo, hi)
    )
    eigenvalues = np.array([spectrum.eigenvalues[lo - 1 : hi] for spectrum in spectra])
    singular = np.array([result.singular_values for result in overlaps])
    fig7 = {"bin": bins, "overnight": bins == 0}
    fig7.update({f"lambda_{i}": eigenvalues[:, i - lo] for i in range(lo, hi + 1)})
    fig7.update({f"s_{i}": singular[:, i - lo] for i in range(lo, hi + 1)})

    # random_overlap_baseline's arguments, and fig7_null's columns before the threshold
    null = {
        "dim": spectra[0].n,
        "subspace_dim": hi - lo + 1,
        "trials": config.null_trials,
        "quantile": config.null_quantile,
        "seed": config.null_seed,
    }
    fig7_null = {name: [value] for name, value in null.items()}
    fig7_null["threshold"] = [random_overlap_baseline(**null)]
    _write_tables(config, "spectra", fig6, fig7, fig7_null)


def stage_condition(config: RunConfig, grid: DispersionGrid | None = None) -> None:
    """Figs. 3-5: dispersion, skewness and kurtosis against the index return
    and kurtosis against the (std) dispersion, written once all four exist."""
    if grid is None:
        grid = dispersion_grid(_read_canonical(config, check=True))
    signed, positive = config.bucket_specs()
    common = dict(
        min_count=config.min_count,
        include_overnight=config.include_overnight_conditioning,
        bins=config.condition_bins,
    )
    curves = (
        dispersion_vs_index(grid, signed, **common),
        skew_vs_index(grid, signed, **common),
        kurtosis_vs_index(grid, signed, **common),
        kurtosis_vs_dispersion(grid, positive, **common),
    )
    tables = (
        dict(bucket_center=c.bucket_centers, mean=c.means, stderr=c.stderr, count=c.counts)
        for c in curves
    )
    _write_tables(config, "condition", *tables)


def run_pipeline(config: RunConfig) -> None:
    """Remove every file the stages write, then run every stage in order,
    handing each stage's results to the next in memory, and write the run
    manifest."""
    _clear(config, "synth")
    panel = stage_ingest(config, stage_synth(config) if config.mode == "synth" else None)
    fig1, grid = stage_cross_section(config, panel, stage_moments(config, panel))
    stage_fit(config, fig1, panel.bins_per_day)
    stage_spectra(config, panel)
    stage_condition(config, grid)
    pairs = [("package_version", __version__), ("table_schema_version", str(SCHEMA_VERSION))]
    write_kv_lines(pairs + config_echo_pairs(config), _paths(config, "run")[0])


# A stage not handed an input reads it from the file an earlier stage wrote.


def _read_input(config: RunConfig) -> ReturnColumns:
    """``ingest``'s columns: the configured input, or returns.csv in synth mode."""
    if config.mode == "prices":
        return returns_from_prices(config.input, config.price_convention)
    if config.mode == "synth":
        return read_return_records(_out(config, RETURNS_FILE), versioned=True)
    return read_return_records(config.input)


def _read_canonical(config: RunConfig, check: bool = False) -> ReturnPanel:
    path = _out(config, CANONICAL_FILE)
    panel = read_canonical_panel(path) or load_panel(read_return_records(path, versioned=True))[0]
    if check:
        config.check_panel(panel)
    return panel


def _read_table(config: RunConfig, name: str, kinds: dict) -> dict[str, np.ndarray]:
    """The ``kinds`` columns of the stage table ``name``, as its stage returns them."""
    return dict(zip(kinds, read_columns(_out(config, name), kinds, versioned=True)[1]))


_STAGES = {
    "run": run_pipeline,
    "synth": stage_synth,
    "ingest": stage_ingest,
    "moments": stage_moments,
    "cross-section": stage_cross_section,
    "fit": stage_fit,
    "spectra": stage_spectra,
    "condition": stage_condition,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intraday",
        description="Intraday seasonality statistics over bar-return panels",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _STAGES:
        p = sub.add_parser(name)
        p.add_argument("--config", "-c", help="run config file (key = value)")
        for f in fields(RunConfig):
            p.add_argument(f"--{f.name.replace('_', '-')}", metavar="VALUE")
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """File values overridden by flags, parsed and validated as one set."""
    pairs = parse_kv_lines(args.config) if args.config else {}
    for f in fields(RunConfig):
        if getattr(args, f.name) is not None:
            pairs[f.name] = getattr(args, f.name)
    return run_config_from(pairs)


# (exception classes, category, exit code) of a failure: the first row it matches
_FAILURES = (
    (SchemaError, "schema-error", 3),
    ((DegenerateSampleError, InsufficientDataError, FeasibilityError), "numeric-error", 4),
    ((np.linalg.LinAlgError, FloatingPointError), "numeric-error", 4),
    ((IntradayError, OSError), "input-error", 2),
    (Exception, "internal-error", 5),
)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        apply_thread_cap(thread_cap_from_env())
        _STAGES[args.command](_resolve_config(args))
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        category, code = next((c, n) for kinds, c, n in _FAILURES if isinstance(exc, kinds))
        print(f"error: {category}: {exc}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
