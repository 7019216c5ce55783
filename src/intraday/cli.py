"""Command-line interface: staged pipeline over bar-return panels.

Each pipeline stage is one ``stage_*`` function: it takes its inputs as
arguments, writes its tables to the output directory and returns what
later stages need.

    synth          manifest -> returns.csv, manifest_echo.txt
    ingest         input -> returns_canonical.csv, load_report.txt, validation.txt
    moments        -> stock_moments.csv
    cross-section  -> dispersion.csv, fig1.csv, fig2.csv
    fit            -> fig1_fit.csv
    spectra        -> fig6.csv, fig7.csv, fig7_null.csv
    condition      -> fig3.csv, fig4.csv, fig5_index.csv, fig5_dispersion.csv
    run            all of the above in order, plus run_manifest.txt

``run`` hands each stage's results to the next in memory: the canonical
panel, the volatility and kurtosis columns of ``stock_moments.csv``, and
fig1's ``stock_vol`` profile.  Each is what the next stage would read back
from the file (floats at 10 significant digits, -0 read as 0).  A stage
subcommand reads those files from the output directory instead, so
``run`` and a manual stage sequence produce byte-identical tables.

Every subcommand takes ``-c/--config`` plus one ``--<key>`` flag per
``RunConfig`` field; flag values override the file and parse the same way.
Settings that need the panel (eigen window, reference bin, fit window,
conditioning bins) are checked by ``ingest`` before it writes, and again
by the stage subcommands that use them.  ``SEASONALITY_THREADS`` caps the
threads of numpy's bundled OpenBLAS.

Exit codes: 0 success, 2 input error, 3 schema error, 4 numeric error,
5 internal error.  Failures print one machine-parsable line to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from dataclasses import fields

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
from .cross_section import dispersion_grid, normalize_panel
from .errors import (
    DegenerateSampleError,
    FeasibilityError,
    InsufficientDataError,
    IntradayError,
    SchemaError,
)
from .panel import (
    ReturnColumns,
    ReturnPanel,
    load_panel,
    panel_to_records,
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
from .tableio import column, format_floats, open_output, read_table, write_table

RETURNS_FILE = "returns.csv"
CANONICAL_FILE = "returns_canonical.csv"


def _out(config: RunConfig, name: str) -> str:
    return os.path.join(config.output_dir, name)


def _write_returns(records: ReturnColumns, path: str) -> ReturnColumns:
    """Write a return table; return the records as the table reads back."""
    return dataclasses.replace(records, values=write_return_records(records, path))


def stage_synth(config: RunConfig) -> ReturnColumns:
    """Draw the synthetic panel; return its records as returns.csv holds them."""
    manifest = read_manifest(config.synth_manifest)
    panel, echoed = generate_market(manifest)
    os.makedirs(config.output_dir, exist_ok=True)
    records = _write_returns(panel_to_records(panel), _out(config, RETURNS_FILE))
    write_manifest(echoed, _out(config, "manifest_echo.txt"))
    return records


def stage_ingest(config: RunConfig, records) -> ReturnPanel:
    """Load, check and validate the input records; return the canonical
    panel as returns_canonical.csv holds it."""
    os.makedirs(config.output_dir, exist_ok=True)
    panel, report = load_panel(records, policy=config.policy)
    del records
    config.check_panel(panel)
    validation = validate_panel(panel, sanity_bound=config.sanity_bound)
    canonical = _write_returns(panel_to_records(panel), _out(config, CANONICAL_FILE))
    del panel  # the canonical copy replaces it
    for name, summary in (("load_report.txt", report), ("validation.txt", validation)):
        with open_output(_out(config, name)) as handle:
            handle.write("\n".join(summary.lines()) + "\n")
    return load_panel(canonical, policy="strict")[0]


def stage_moments(config: RunConfig, panel: ReturnPanel) -> tuple[np.ndarray, ...]:
    """Per (stock, bin) moments; return the bins and the (stock, bin)
    volatility and kurtosis tables, as stock_moments.csv holds them."""
    grid = stock_bin_moments(panel)
    rows = []
    for a, symbol in enumerate(grid.stock_ids):
        for c, bin_number in enumerate(grid.bin_numbers):
            rows.append(
                [
                    symbol,
                    int(bin_number),
                    1 if bin_number == 0 else 0,
                    float(grid.mean[a, c]),
                    float(grid.volatility[a, c]),
                    float(grid.skewness[a, c]),
                    float(grid.kurtosis[a, c]),
                    float(grid.median[a, c]),
                    1 if grid.degenerate[a, c] else 0,
                ]
            )
    write_table(
        _out(config, "stock_moments.csv"),
        [
            "symbol",
            "bin",
            "overnight",
            "mean",
            "volatility",
            "skewness",
            "kurtosis",
            "median",
            "degenerate",
        ],
        rows,
    )
    volatility, kurtosis = format_floats([grid.volatility, grid.kurtosis])[1]
    return grid.bin_numbers, volatility, kurtosis


def _profile_rows(profiles: list[IntradayProfile]) -> list[list]:
    """Rows (bin, overnight, value, band, value, band, ...) for fig tables."""
    rows = []
    if profiles[0].overnight_value is not None:
        row: list = [0, 1]
        for p in profiles:
            row.extend([p.overnight_value, p.overnight_band])
        rows.append(row)
    for i, bin_number in enumerate(profiles[0].bins):
        row = [int(bin_number), 0]
        for p in profiles:
            row.extend([float(p.values[i]), float(p.band[i])])
        rows.append(row)
    return rows


def _vol_profile(bins, values, bands) -> IntradayProfile:
    """fig1's intraday ``stock_vol`` profile, the input of ``fit``."""
    return IntradayProfile(
        bins=bins,
        values=values,
        band=bands,
        overnight_value=None,
        overnight_band=None,
        statistic_name="stock_vol",
        band_kind="stderr",
    )


def stage_cross_section(
    config: RunConfig, panel: ReturnPanel, moment_bins, volatility, kurtosis
) -> IntradayProfile:
    """Dispersion grid and the fig1/fig2 profiles; return fig1's stock_vol
    profile as fig1.csv holds it."""
    grid = dispersion_grid(panel)

    rows = []
    for t, date in enumerate(grid.dates):
        for r, bin_number in enumerate(grid.bin_numbers):
            rows.append(
                [
                    date.isoformat(),
                    int(bin_number),
                    1 if bin_number == 0 else 0,
                    float(grid.index_return[r, t]),
                    float(grid.dispersion[r, t]),
                    float(grid.skewness[r, t]),
                    float(grid.kurtosis[r, t]),
                    float(grid.median[r, t]),
                    float(grid.mad[r, t]),
                    1 if grid.degenerate[r, t] else 0,
                ]
            )
    write_table(
        _out(config, "dispersion.csv"),
        [
            "date",
            "bin",
            "overnight",
            "index_return",
            "dispersion",
            "skewness",
            "kurtosis",
            "median",
            "mad",
            "degenerate",
        ],
        rows,
    )

    stock_vol = profile_over_stocks(volatility, "stderr", moment_bins, "volatility")
    dispersion_profile = profile_over_days(
        grid.dispersion, "stderr", grid.bin_numbers, "dispersion"
    )
    abs_index = profile_over_days(
        np.abs(grid.index_return), "stderr", grid.bin_numbers, "abs_index_return"
    )
    ratio = ratio_profile(stock_vol, dispersion_profile, "vol_dispersion_ratio")
    write_table(
        _out(config, "fig1.csv"),
        [
            "bin",
            "overnight",
            "stock_vol",
            "stock_vol_band",
            "dispersion",
            "dispersion_band",
            "abs_index_return",
            "abs_index_return_band",
            "vol_dispersion_ratio",
            "vol_dispersion_ratio_band",
        ],
        _profile_rows([stock_vol, dispersion_profile, abs_index, ratio]),
    )

    stock_kurt = profile_over_stocks(kurtosis, "dispersion", moment_bins, "kurtosis")
    dispersion_kurt = profile_over_days(
        grid.kurtosis, "dispersion", grid.bin_numbers, "dispersion_kurtosis"
    )
    write_table(
        _out(config, "fig2.csv"),
        [
            "bin",
            "overnight",
            "stock_kurtosis",
            "stock_kurtosis_band",
            "dispersion_kurtosis",
            "dispersion_kurtosis_band",
        ],
        _profile_rows([stock_kurt, dispersion_kurt]),
    )
    values, bands = format_floats([stock_vol.values, stock_vol.band])[1]
    return _vol_profile(stock_vol.bins, values, bands)


def stage_fit(config: RunConfig, profile: IntradayProfile) -> None:
    fit = fit_power_law(profile, config.fit_range_for(int(profile.bins.max())))
    write_table(
        _out(config, "fig1_fit.csv"),
        [
            "amplitude",
            "exponent",
            "fit_lo",
            "fit_hi",
            "residual_rms",
            "exponent_stderr",
        ],
        [
            [
                fit.amplitude,
                fit.exponent,
                fit.fit_range[0],
                fit.fit_range[1],
                fit.residual_rms,
                fit.exponent_stderr,
            ]
        ],
    )


def stage_spectra(config: RunConfig, panel: ReturnPanel) -> None:
    npanel = normalize_panel(panel)
    spectra = bin_spectra(npanel)

    fig6_rows = []
    for spectrum in spectra:
        mm = market_mode_stats(spectrum)
        fig6_rows.append(
            [
                spectrum.bin,
                1 if spectrum.bin == 0 else 0,
                mm.lambda1_over_n,
                mm.v1_dot_e,
            ]
        )
    write_table(
        _out(config, "fig6.csv"),
        ["bin", "overnight", "lambda1_over_n", "v1_dot_e"],
        fig6_rows,
    )

    lo, hi = config.eigen_lo, config.eigen_hi
    overlaps = overlap_singular_values(
        spectra, reference_bin=config.reference_bin, index_range=(lo, hi)
    )
    by_bin = {s.bin: s for s in spectra}
    header = ["bin", "overnight"]
    header += [f"lambda_{i}" for i in range(lo, hi + 1)]
    header += [f"s_{i}" for i in range(lo, hi + 1)]
    fig7_rows = []
    for result in overlaps:
        spectrum = by_bin[result.bin]
        row = [result.bin, 1 if result.bin == 0 else 0]
        row += [float(v) for v in spectrum.eigenvalues[lo - 1 : hi]]
        row += [float(v) for v in result.singular_values]
        fig7_rows.append(row)
    write_table(_out(config, "fig7.csv"), header, fig7_rows)

    threshold = random_overlap_baseline(
        dim=panel.n_stocks,
        subspace_dim=hi - lo + 1,
        trials=config.null_trials,
        quantile=config.null_quantile,
        seed=config.null_seed,
    )
    write_table(
        _out(config, "fig7_null.csv"),
        ["dim", "subspace_dim", "trials", "quantile", "seed", "threshold"],
        [
            [
                panel.n_stocks,
                hi - lo + 1,
                config.null_trials,
                config.null_quantile,
                config.null_seed,
                threshold,
            ]
        ],
    )


def _write_curve(config: RunConfig, name: str, curve) -> None:
    write_table(
        _out(config, name),
        ["bucket_center", "mean", "stderr", "count"],
        [
            [float(c), float(m), float(s), int(n)]
            for c, m, s, n in zip(
                curve.bucket_centers, curve.means, curve.stderr, curve.counts
            )
        ],
    )


def stage_condition(config: RunConfig, panel: ReturnPanel) -> None:
    grid = dispersion_grid(panel)
    signed, positive = config.bucket_specs()
    common = dict(
        min_count=config.min_count,
        include_overnight=config.include_overnight_conditioning,
        bins=config.condition_bins,
    )
    _write_curve(
        config, "fig3.csv", dispersion_vs_index(grid, signed, **common)
    )
    _write_curve(config, "fig4.csv", skew_vs_index(grid, signed, **common))
    _write_curve(
        config, "fig5_index.csv", kurtosis_vs_index(grid, signed, **common)
    )
    _write_curve(
        config,
        "fig5_dispersion.csv",
        kurtosis_vs_dispersion(grid, positive, dispersion_kind="std", **common),
    )


def run_pipeline(config: RunConfig) -> None:
    """Run every stage in order, handing each stage's results to the next in
    memory, and write the run manifest."""
    # Passed straight in, the input records die inside ingest once loaded.
    panel = stage_ingest(
        config, stage_synth(config) if config.mode == "synth" else _read_input(config)
    )
    vol_profile = stage_cross_section(config, panel, *stage_moments(config, panel))
    stage_fit(config, vol_profile)
    stage_spectra(config, panel)
    stage_condition(config, panel)
    pairs = [
        ("package_version", __version__),
        ("table_schema_version", "1"),
    ]
    pairs.extend(config_echo_pairs(config))
    write_kv_lines(pairs, _out(config, "run_manifest.txt"))


# Stage subcommands read their inputs from the files earlier stages wrote.


def _read_input(config: RunConfig):
    """``ingest``'s records: the configured input, or returns.csv in synth mode."""
    if config.mode == "prices":
        return returns_from_prices(config.input, config.price_convention)
    if config.mode == "synth":
        return read_return_records(_out(config, RETURNS_FILE))
    return read_return_records(config.input)


def _read_canonical(config: RunConfig, check: bool = False) -> ReturnPanel:
    panel, _ = load_panel(_out(config, CANONICAL_FILE), policy="strict")
    if check:
        config.check_panel(panel)
    return panel


def _read_moments(config: RunConfig):
    """stock_moments.csv as ``stage_moments`` returns it."""
    header, raw = read_table(
        _out(config, "stock_moments.csv"),
        expect_columns=["symbol", "bin", "volatility", "kurtosis"],
    )
    symbols = column(header, raw, "symbol", str)
    bins = column(header, raw, "bin", int)
    order_syms = sorted(set(symbols))
    order_bins = sorted(set(bins))
    s_index = {s: i for i, s in enumerate(order_syms)}
    b_index = {b: i for i, b in enumerate(order_bins)}
    cell = ([s_index[s] for s in symbols], [b_index[b] for b in bins])
    tables = np.full((2, len(order_syms), len(order_bins)), np.nan)
    for table, name in zip(tables, ("volatility", "kurtosis")):
        table[cell] = column(header, raw, name, float)
    return order_bins, *tables


def _read_vol_profile(config: RunConfig) -> IntradayProfile:
    """fig1.csv's stock_vol columns as ``stage_cross_section`` returns them."""
    header, raw = read_table(
        _out(config, "fig1.csv"), expect_columns=["bin", "overnight", "stock_vol"]
    )
    bins = np.asarray(column(header, raw, "bin", int))
    overnight = np.asarray(column(header, raw, "overnight", int))
    values = np.asarray(column(header, raw, "stock_vol", float))
    bands = np.asarray(column(header, raw, "stock_vol_band", float))
    keep = overnight == 0
    config.check_fit_window(int(bins[keep].max()))
    return _vol_profile(bins[keep], values[keep], bands[keep])


_STAGES = {
    "run": run_pipeline,
    "synth": stage_synth,
    "ingest": lambda config: stage_ingest(config, _read_input(config)),
    "moments": lambda config: stage_moments(config, _read_canonical(config)),
    "cross-section": lambda config: stage_cross_section(
        config, _read_canonical(config), *_read_moments(config)
    ),
    "fit": lambda config: stage_fit(config, _read_vol_profile(config)),
    "spectra": lambda config: stage_spectra(config, _read_canonical(config, check=True)),
    "condition": lambda config: stage_condition(
        config, _read_canonical(config, check=True)
    ),
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


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        apply_thread_cap(thread_cap_from_env())
        config = _resolve_config(args)
    except (IntradayError, ValueError, OSError) as exc:
        print(f"error: input-error: {exc}", file=sys.stderr)
        return 2
    try:
        _STAGES[args.command](config)
    except SchemaError as exc:
        print(f"error: schema-error: {exc}", file=sys.stderr)
        return 3
    except (
        DegenerateSampleError,
        InsufficientDataError,
        FeasibilityError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"error: numeric-error: {exc}", file=sys.stderr)
        return 4
    except (IntradayError, FileNotFoundError) as exc:
        print(f"error: input-error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: internal-error: {exc}", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
