"""Code that runs inside the measured program process.

    child.py setup   --workload W --seed N --dir D [--spans F] [--env F]
    child.py cli     --spans F --pass-id N -- <intraday arguments>
    child.py kernels --seed N --seconds S --trace 0|1 --dir D

``setup`` starts from a cold interpreter, imports ``intraday.cli`` and
builds the workload's inputs.  ``cli`` is ``intraday`` with the span
recorder installed, for the traced run.  ``kernels`` is the in-process
library workload: set-up, then passes until the time is up.  The caller
puts ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import sys
import time

# Analysis keys of demo/run.cfg.
ANALYSIS = {
    "fit_window": "first_half",
    "bucket_width": "0.001",
    "bucket_lo": "-0.012",
    "bucket_hi": "0.012",
    "min_count": "30",
    "eigen_lo": "2",
    "eigen_hi": "7",
    "reference_bin": "1",
    "null_trials": "2000",
    "null_quantile": "0.99",
    "null_seed": "7",
}

# demo/synth.cfg with the shape scaled; the seed comes from the workload.
MANIFEST = {
    "factor_vol": "ushape(0.0030, 0.0010)",
    "target_correlation": "0.3",
    "beta_mean": "1.0",
    "beta_std": "0.25",
    "residual_tail": "student",
    "student_nu": "5",
    "residual_vol_coupling": "0.6",
    "jump_day_rate": "0.01",
    "jump_scale": "8",
    "overnight_vol_multiplier": "2.5",
}

SHAPES = {
    "pipeline_synth": (100, 120, 78),
    "staged_prices": (100, 120, 78),
    "kernels_wide": (500, 120, 78),
}
REMOVED_SYMBOL_DAYS = 3


def manifest_pairs(workload: str, seed: int) -> dict[str, str]:
    n, t, k = SHAPES[workload]
    return {
        "n_stocks": str(n),
        "n_days": str(t),
        "bins_per_day": str(k),
        **MANIFEST,
        "seed": str(seed),
    }


def _write_kv(path: str, pairs: dict[str, str]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(f"{key} = {value}\n" for key, value in pairs.items())


def _generate(workload: str, seed: int):
    import io

    from intraday import synth

    text = "".join(f"{k} = {v}\n" for k, v in manifest_pairs(workload, seed).items())
    panel, _ = synth.generate_market(synth.read_manifest(io.StringIO(text)))
    return panel


def write_prices(panel, seed: int, path: str) -> None:
    """Bar-price CSV with ``close_to_close`` 5-minute stamps.

    Each stamp is the close of its bin; the first bin of a day also carries
    the overnight gap.  Rows are shuffled, and the whole of one day is
    removed for each of ``REMOVED_SYMBOL_DAYS`` distinct stocks, never on the
    first day: ``drop-incomplete`` then drops exactly those stocks, plus the
    first day, which has no bin 1.
    """
    import numpy as np

    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    r = panel.returns  # (stock, day, 0..K), column 0 overnight
    n, t_days, cols = r.shape
    k_bins = cols - 1
    growth = 1.0 + r[:, :, 1:]
    growth[:, :, 0] *= 1.0 + r[:, :, 0]
    start = rng.uniform(20.0, 200.0, size=n)
    prices = start[:, None] * np.cumprod(growth.reshape(n, -1), axis=1)
    prices = prices.reshape(n, t_days, k_bins)

    keep = np.ones((n, t_days), dtype=bool)
    stocks = rng.choice(n, size=REMOVED_SYMBOL_DAYS, replace=False)
    keep[stocks, rng.integers(1, t_days, size=REMOVED_SYMBOL_DAYS)] = False

    minutes = 9 * 60 + 30 + 5 * np.arange(1, k_bins + 1)
    times = [f"{m // 60:02d}:{m % 60:02d}" for m in minutes]
    dates = [d.isoformat() for d in panel.dates]
    values = prices.tolist()
    rows = [
        f"{dates[d]},{times[k]},{panel.stock_ids[a]},{values[a][d][k]:.10g}\n"
        for a in range(n)
        for d in range(t_days)
        if keep[a, d]
        for k in range(k_bins)
    ]
    order = rng.permutation(len(rows))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("date,time,symbol,price\n")
        handle.writelines(rows[i] for i in order)


def environment() -> dict:
    """Software, machine and BLAS facts of this process."""
    import os
    import platform

    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {key: deps["blas"].get(key) for key in ("name", "version")}
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_env": {
            k: v
            for k, v in os.environ.items()
            if k.endswith("_NUM_THREADS") or k == "SEASONALITY_THREADS"
        },
        "threads": threads_of("self"),
    }


def threads_of(pid) -> int | None:
    """Thread count of a process from /proc/<pid>/status (BLAS pool + main)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def setup(args) -> int:
    import json

    import_start = time.perf_counter()
    import intraday.cli  # noqa: F401  (part of the set-up being timed)

    import_s = time.perf_counter() - import_start
    if args.spans:
        import spans

        recorder = spans.SpanRecorder(pass_id=0)
        spans.install(recorder)
        with recorder.span("setup") as counts:
            counts["cli.import_s"] = import_s
            build_inputs(args)
        recorder.dump(args.spans)
    else:
        build_inputs(args)
    if args.env:
        with open(args.env, "w", encoding="utf-8") as handle:
            json.dump(environment(), handle)
    return 0


def build_inputs(args) -> None:
    import os

    os.makedirs(args.dir, exist_ok=True)
    if args.workload == "pipeline_synth":
        _write_kv(os.path.join(args.dir, "synth.cfg"), manifest_pairs(args.workload, args.seed))
        _write_kv(
            os.path.join(args.dir, "run.cfg"),
            {"mode": "synth", "synth_manifest": "synth.cfg", "output_dir": "out",
             "policy": "strict", **ANALYSIS},
        )
    elif args.workload == "staged_prices":
        panel = _generate(args.workload, args.seed)
        write_prices(panel, args.seed, os.path.join(args.dir, "prices.csv"))
        _write_kv(
            os.path.join(args.dir, "run.cfg"),
            {"mode": "prices", "input": "prices.csv", "output_dir": "out",
             "policy": "drop-incomplete", "price_convention": "close_to_close",
             **ANALYSIS},
        )
    else:
        _generate(args.workload, args.seed)


def traced_cli(args) -> int:
    import warnings

    import_start = time.perf_counter()
    import intraday.cli as cli

    import_s = time.perf_counter() - import_start
    import spans

    recorder = spans.SpanRecorder(pass_id=args.pass_id)
    spans.install(recorder, cli)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with recorder.span("cli.main") as counts:
            code = cli.main(args.argv)
    counts["cli.import_s"] = import_s
    counts["spectral.rank_deficient_bins"] = _rank_warnings(caught)
    for w in caught:
        sys.stderr.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
    recorder.dump(args.spans, threads=threads_of("self"))
    return code


def _rank_warnings(caught) -> int:
    return sum("rank-deficient" in str(w.message) for w in caught)


def kernel_pass(panel, modules) -> dict:
    """One pass of the wide-panel kernel sequence; returns check values."""
    import numpy as np

    robust_moments, cross_section, spectral, conditioning = modules
    cfg = {k: float(v) for k, v in ANALYSIS.items() if k != "fit_window"}
    moments = robust_moments.stock_bin_moments(panel)
    grid = cross_section.dispersion_grid(panel)
    npanel = cross_section.normalize_panel(panel)
    spectra = spectral.bin_spectra(npanel)
    modes = [spectral.market_mode_stats(s) for s in spectra]
    lo, hi = int(cfg["eigen_lo"]), int(cfg["eigen_hi"])
    overlaps = spectral.overlap_singular_values(
        spectra, reference_bin=int(cfg["reference_bin"]), index_range=(lo, hi)
    )
    threshold = spectral.random_overlap_baseline(
        dim=panel.n_stocks,
        subspace_dim=hi - lo + 1,
        trials=int(cfg["null_trials"]),
        quantile=cfg["null_quantile"],
        seed=int(cfg["null_seed"]),
    )
    signed = conditioning.BucketSpec.fixed_width(
        cfg["bucket_width"], cfg["bucket_lo"], cfg["bucket_hi"]
    )
    positive = conditioning.BucketSpec.fixed_width(cfg["bucket_width"], 0.0, cfg["bucket_hi"])
    common = {"min_count": int(cfg["min_count"])}
    curves = {
        "dispersion_vs_index": conditioning.dispersion_vs_index(grid, signed, **common),
        "skew_vs_index": conditioning.skew_vs_index(grid, signed, **common),
        "kurtosis_vs_index": conditioning.kurtosis_vs_index(grid, signed, **common),
        "kurtosis_vs_dispersion": conditioning.kurtosis_vs_dispersion(
            grid, positive, dispersion_kind="std", **common
        ),
    }

    n = panel.n_stocks
    eigenvalues = np.array([s.eigenvalues for s in spectra])
    singular = np.concatenate([o.singular_values for o in overlaps])
    # Invariants: trace N, eigenvalues >= 0 and singular values in [0, 1],
    # each up to roundoff.
    roundoff = 1e-9
    invariants = {
        "trace_is_n": bool(np.all(np.abs(eigenvalues.sum(axis=1) - n) <= roundoff * n)),
        "eigenvalues_nonnegative": bool(eigenvalues.min() >= -roundoff * n),
        "overlaps_in_unit_interval": bool(
            singular.min() >= -roundoff and singular.max() <= 1.0 + roundoff
        ),
    }
    values = {
        "moments.volatility_sum": float(np.sum(moments.volatility)),
        "moments.kurtosis_sum": float(np.sum(moments.kurtosis)),
        "dispersion.sum": float(np.sum(grid.dispersion)),
        "dispersion.kurtosis_sum": float(np.sum(grid.kurtosis)),
        "normalized.sum_of_squares": float(np.sum(np.square(npanel.returns))),
        "spectra.lambda1_sum": float(eigenvalues[:, 0].sum()),
        "spectra.lambda2_7_sum": float(eigenvalues[:, lo - 1 : hi].sum()),
        "market_mode.v1_dot_e_sum": float(sum(m.v1_dot_e for m in modes)),
        "overlaps.singular_sum": float(singular.sum()),
        "null.threshold": threshold,
    }
    for name, curve in curves.items():
        values[f"{name}.mean_sum"] = float(np.sum(curve.means))
        values[f"{name}.count_sum"] = int(np.sum(curve.counts))
        values[f"{name}.omitted_buckets"] = int(curve.omitted_buckets)
    return {"values": values, "invariants": invariants}


def kernels(args) -> int:
    import json
    import os
    import resource
    import warnings

    import intraday.cli  # noqa: F401  (the set-up covers the CLI import)
    from intraday import conditioning, cross_section, robust_moments, spectral

    modules = (robust_moments, cross_section, spectral, conditioning)
    panel = _generate("kernels_wide", args.seed)
    shape = list(panel.returns.shape)
    recorder = None

    def one_pass(pass_id):
        usage = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                if recorder is None:
                    result = kernel_pass(panel, modules)
                else:
                    recorder.pass_id = pass_id
                    with recorder.span("kernels.pass") as counts:
                        result = kernel_pass(panel, modules)
                    counts["spectral.rank_deficient_bins"] = _rank_warnings(caught)
                error = None
            except Exception as exc:  # noqa: BLE001 - a failed pass is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        cpu = (after.ru_utime - usage.ru_utime) + (after.ru_stime - usage.ru_stime)
        record = {"wall_s": wall, "cpu_s": cpu, "traced": recorder is not None,
                  "error": error, "rank_warnings": _rank_warnings(caught)}
        if result is not None:
            record.update(result)
        return record

    passes = []
    threads = None
    phases = [(False, args.seconds / 2), (True, args.seconds / 2)] if args.trace else [
        (False, args.seconds)
    ]
    for traced, seconds in phases:
        if traced:
            import spans

            recorder = spans.SpanRecorder()
            spans.install(recorder)
        phase_start = time.perf_counter()
        while True:
            passes.append(one_pass(len(passes) + 1))
            if threads is None:
                threads = threads_of("self")
            if time.perf_counter() - phase_start >= seconds:
                break
    if recorder is not None:
        recorder.dump(os.path.join(args.dir, "spans-kernels.json"))
    with open(os.path.join(args.dir, "kernels.json"), "w", encoding="utf-8") as handle:
        json.dump(
            {"passes": passes, "threads": threads,
             "shape": shape, "panel_bytes": panel.returns.nbytes},
            handle,
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True, choices=sorted(SHAPES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--spans")
    p.add_argument("--env")
    p = sub.add_parser("cli")
    p.add_argument("--spans", required=True)
    p.add_argument("--pass-id", type=int, required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("kernels")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--dir", required=True)
    args = parser.parse_args(argv)
    if args.mode == "cli":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return traced_cli(args)
    return {"setup": setup, "kernels": kernels}[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
