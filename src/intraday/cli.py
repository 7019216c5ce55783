"""Command-line interface: staged pipeline over bar-return panels.

Each pipeline stage is one ``stage_*`` function: it takes its inputs as
arguments, writes its tables to the output directory as column dicts
through ``tableio.write_table`` and returns what later stages need.

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
fig1's ``stock_vol`` profile.  Each is a float column that ``write_table``
returns, what the next stage would read back from the file (floats at 10
significant digits, -0 read as 0).  A stage subcommand reads those files
from the output directory instead, so ``run`` and a manual stage sequence
produce byte-identical tables.  In synth mode, when ingest's load keeps
every record, ``run`` copies returns.csv to returns_canonical.csv: the
canonical table would hold the same bytes.

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
import os
import shutil
import sys
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
from .tableio import open_output, read_columns, write_table

RETURNS_FILE = "returns.csv"
CANONICAL_FILE = "returns_canonical.csv"


def _out(config: RunConfig, name: str) -> str:
    return os.path.join(config.output_dir, name)


def stage_synth(config: RunConfig) -> ReturnColumns:
    """Draw the synthetic panel; return its records as returns.csv holds them."""
    manifest = read_manifest(config.synth_manifest)
    panel, echoed = generate_market(manifest)
    os.makedirs(config.output_dir, exist_ok=True)
    written = write_return_records(panel, _out(config, RETURNS_FILE))
    write_manifest(echoed, _out(config, "manifest_echo.txt"))
    return panel_to_records(replace(panel, returns=written))


def stage_ingest(config: RunConfig, records, written: str | None = None) -> ReturnPanel:
    """Load, check and validate the input records; return the canonical
    panel as returns_canonical.csv holds it.

    ``written`` may name the return table that ``records`` were read back
    from.  When the load keeps every record, returns_canonical.csv would
    hold that file's bytes, so it is copied instead of formatted again.
    """
    os.makedirs(config.output_dir, exist_ok=True)
    panel, report = load_panel(records, policy=config.policy)
    del records
    config.check_panel(panel)
    validation = validate_panel(panel, sanity_bound=config.sanity_bound)
    canonical_path = _out(config, CANONICAL_FILE)
    if written is not None and report.is_clean:
        # Each value already reads back as itself, and both tables hold the
        # same rows in canonical order, so the panel is already canonical.
        with open(written, newline="", encoding="utf-8") as source:
            with open_output(canonical_path) as handle:
                shutil.copyfileobj(source, handle)
    else:
        panel = replace(panel, returns=write_return_records(panel, canonical_path))
    for name, summary in (("load_report.txt", report), ("validation.txt", validation)):
        with open_output(_out(config, name)) as handle:
            handle.write("\n".join(summary.lines()) + "\n")
    return panel


def stage_moments(config: RunConfig, panel: ReturnPanel) -> tuple[np.ndarray, ...]:
    """Per (stock, bin) moments; return the bins and the (stock, bin)
    volatility and kurtosis tables, as stock_moments.csv holds them."""
    grid = stock_bin_moments(panel)
    n_stocks, n_bins = grid.volatility.shape
    bins = np.tile(grid.bin_numbers, n_stocks)
    written = write_table(
        _out(config, "stock_moments.csv"),
        {
            "symbol": np.repeat(np.array(grid.stock_ids, dtype=object), n_bins),
            "bin": bins,
            "overnight": bins == 0,
            "mean": grid.mean.ravel(),
            "volatility": grid.volatility.ravel(),
            "skewness": grid.skewness.ravel(),
            "kurtosis": grid.kurtosis.ravel(),
            "median": grid.median.ravel(),
            "degenerate": grid.degenerate.ravel(),
        },
    )
    tables = (written[name].reshape(n_stocks, n_bins) for name in ("volatility", "kurtosis"))
    return grid.bin_numbers, *tables


def _write_profiles(path: str, profiles: list[IntradayProfile]) -> dict[str, np.ndarray]:
    """Write a fig table, (bin, overnight, value, band, value, band, ...)
    with the overnight point first if present; return ``write_table``'s."""
    lead = [0] if profiles[0].overnight_value is not None else []
    bins = np.array(lead + profiles[0].bins.tolist())
    columns = {"bin": bins, "overnight": bins == 0}
    for p in profiles:
        columns[p.statistic_name] = np.r_[[p.overnight_value] * len(lead), p.values]
        columns[f"{p.statistic_name}_band"] = np.r_[[p.overnight_band] * len(lead), p.band]
    return write_table(path, columns)


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
    n_bins, n_days = grid.dispersion.shape
    bins = np.tile(grid.bin_numbers, n_days)
    write_table(
        _out(config, "dispersion.csv"),
        {
            "date": np.repeat(np.array(grid.dates, dtype=object), n_bins),
            "bin": bins,
            "overnight": bins == 0,
            "index_return": grid.index_return.T.ravel(),
            "dispersion": grid.dispersion.T.ravel(),
            "skewness": grid.skewness.T.ravel(),
            "kurtosis": grid.kurtosis.T.ravel(),
            "median": grid.median.T.ravel(),
            "mad": grid.mad.T.ravel(),
            "degenerate": grid.degenerate.T.ravel(),
        },
    )

    stock_vol = profile_over_stocks(volatility, "stderr", moment_bins, "stock_vol")
    dispersion_profile = profile_over_days(
        grid.dispersion, "stderr", grid.bin_numbers, "dispersion"
    )
    abs_index = profile_over_days(
        np.abs(grid.index_return), "stderr", grid.bin_numbers, "abs_index_return"
    )
    ratio = ratio_profile(stock_vol, dispersion_profile, "vol_dispersion_ratio")
    fig1 = _write_profiles(
        _out(config, "fig1.csv"), [stock_vol, dispersion_profile, abs_index, ratio]
    )

    stock_kurt = profile_over_stocks(kurtosis, "dispersion", moment_bins, "stock_kurtosis")
    dispersion_kurt = profile_over_days(
        grid.kurtosis, "dispersion", grid.bin_numbers, "dispersion_kurtosis"
    )
    _write_profiles(_out(config, "fig2.csv"), [stock_kurt, dispersion_kurt])
    n = len(stock_vol.bins)  # fig1's intraday rows are its last
    return _vol_profile(stock_vol.bins, fig1["stock_vol"][-n:], fig1["stock_vol_band"][-n:])


def stage_fit(config: RunConfig, profile: IntradayProfile) -> None:
    fit = fit_power_law(profile, config.fit_range_for(int(profile.bins.max())))
    write_table(
        _out(config, "fig1_fit.csv"),
        {
            "amplitude": [fit.amplitude],
            "exponent": [fit.exponent],
            "fit_lo": [fit.fit_range[0]],
            "fit_hi": [fit.fit_range[1]],
            "residual_rms": [fit.residual_rms],
            "exponent_stderr": [fit.exponent_stderr],
        },
    )


def stage_spectra(config: RunConfig, panel: ReturnPanel) -> None:
    npanel = normalize_panel(panel)
    spectra = bin_spectra(npanel)

    modes = [market_mode_stats(spectrum) for spectrum in spectra]
    bins = np.array([spectrum.bin for spectrum in spectra])
    write_table(
        _out(config, "fig6.csv"),
        {
            "bin": bins,
            "overnight": bins == 0,
            "lambda1_over_n": [mm.lambda1_over_n for mm in modes],
            "v1_dot_e": [mm.v1_dot_e for mm in modes],
        },
    )

    lo, hi = config.eigen_lo, config.eigen_hi
    overlaps = overlap_singular_values(
        spectra, reference_bin=config.reference_bin, index_range=(lo, hi)
    )
    by_bin = {s.bin: s for s in spectra}
    bins = np.array([result.bin for result in overlaps])
    eigenvalues = np.array([by_bin[r.bin].eigenvalues[lo - 1 : hi] for r in overlaps])
    singular = np.array([result.singular_values for result in overlaps])
    columns = {"bin": bins, "overnight": bins == 0}
    columns.update({f"lambda_{i}": eigenvalues[:, i - lo] for i in range(lo, hi + 1)})
    columns.update({f"s_{i}": singular[:, i - lo] for i in range(lo, hi + 1)})
    write_table(_out(config, "fig7.csv"), columns)

    threshold = random_overlap_baseline(
        dim=panel.n_stocks,
        subspace_dim=hi - lo + 1,
        trials=config.null_trials,
        quantile=config.null_quantile,
        seed=config.null_seed,
    )
    write_table(
        _out(config, "fig7_null.csv"),
        {
            "dim": [panel.n_stocks],
            "subspace_dim": [hi - lo + 1],
            "trials": [config.null_trials],
            "quantile": [config.null_quantile],
            "seed": [config.null_seed],
            "threshold": [threshold],
        },
    )


def _write_curve(config: RunConfig, name: str, curve) -> None:
    write_table(
        _out(config, name),
        {
            "bucket_center": curve.bucket_centers,
            "mean": curve.means,
            "stderr": curve.stderr,
            "count": curve.counts,
        },
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
    if config.mode == "synth":
        panel = stage_ingest(config, stage_synth(config), _out(config, RETURNS_FILE))
    else:
        panel = stage_ingest(config, _read_input(config))
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
        return read_return_records(_out(config, RETURNS_FILE), versioned=True)
    return read_return_records(config.input)


def _read_canonical(config: RunConfig, check: bool = False) -> ReturnPanel:
    records = read_return_records(_out(config, CANONICAL_FILE), versioned=True)
    panel, _ = load_panel(records, policy="strict")
    if check:
        config.check_panel(panel)
    return panel


def _read_moments(config: RunConfig):
    """stock_moments.csv as ``stage_moments`` returns it."""
    _, (symbols, bins, *values) = read_columns(
        _out(config, "stock_moments.csv"),
        {"symbol": str, "bin": int, "volatility": float, "kurtosis": float},
        versioned=True,
    )
    order_syms, stock = np.unique(symbols, return_inverse=True)
    order_bins, col = np.unique(bins, return_inverse=True)
    tables = np.full((2, len(order_syms), len(order_bins)), np.nan)
    tables[:, stock, col] = values
    return order_bins.tolist(), *tables


def _read_vol_profile(config: RunConfig) -> IntradayProfile:
    """fig1.csv's stock_vol columns as ``stage_cross_section`` returns them."""
    _, (bins, overnight, values, bands) = read_columns(
        _out(config, "fig1.csv"),
        {"bin": int, "overnight": int, "stock_vol": float, "stock_vol_band": float},
        versioned=True,
    )
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
    except (IntradayError, OSError) as exc:
        print(f"error: input-error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: internal-error: {exc}", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
