"""``intraday run`` hands artifacts between stages in memory.

Each artifact must equal what the next stage reads back from the file the
previous stage wrote, so ``run`` and the staged subcommands write the same
bytes; these tests hold that for every input mode, count the file reads
``run`` makes, and compare each in-memory artifact with its file.
"""

import datetime as dt
import hashlib
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import intraday
from intraday import cli, panel as panel_module, tableio
from intraday.config import read_run_config
from intraday.panel import load_panel

ANALYSIS = {
    "bucket_width": "0.002",
    "bucket_lo": "-0.02",
    "bucket_hi": "0.02",
    "min_count": "5",
    "eigen_lo": "2",
    "eigen_hi": "3",
    "null_trials": "1000",
    "null_seed": "3",
}

MANIFEST = """\
n_stocks = 7
n_days = 40
bins_per_day = 6
factor_vol = ushape(0.004, 0.002)
target_correlation = 0.3
overnight_vol_multiplier = 2
seed = 5
"""

# Needs CSV quoting in every table that carries symbols.
QUOTED_SYMBOL = "B,C"
BINS_PER_DAY = 6


def _dates(n_days):
    start = dt.date(2021, 3, 1)
    return [start + dt.timedelta(days=i) for i in range(n_days)]


def write_returns_input(path):
    """Bar returns with 17 significant digits, a few -0.0 cells and a quoted
    symbol, rows in no particular order."""
    rng = np.random.default_rng(11)
    symbols = ["AAA", QUOTED_SYMBOL, "DDD", "EEE", "FFF", "GGG"]
    rows = []
    for date in _dates(40):
        for b in range(BINS_PER_DAY + 1):
            for symbol in symbols:
                value = f"{rng.normal(0.0, 0.004):.17g}"
                rows.append(f'{date.isoformat()},{b},"{symbol}",{value}\n')
    for i in (3, 50, 400):
        head = rows[i].rsplit(",", 1)[0]
        rows[i] = f"{head},-0.0\n"
    order = rng.permutation(len(rows))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("date,bin,symbol,return\n")
        handle.writelines(rows[i] for i in order)


def write_prices_input(path):
    """close_to_close bar prices; one stock misses a whole day, and the
    first day has no bin 1, so drop-incomplete drops that stock and day."""
    rng = np.random.default_rng(12)
    symbols = ["AAA", "BBB", QUOTED_SYMBOL, "DDD", "EEE", "FFF", "GGG"]
    minutes = [9 * 60 + 35 + 5 * k for k in range(BINS_PER_DAY)]
    times = [f"{m // 60:02d}:{m % 60:02d}" for m in minutes]
    rows = []
    for symbol in symbols:
        price = rng.uniform(20.0, 80.0)
        for d, date in enumerate(_dates(30)):
            for time_s in times:
                price *= 1.0 + rng.normal(0.0, 0.004)
                if not (symbol == "DDD" and d == 7):
                    rows.append(f'{date.isoformat()},{time_s},"{symbol}",{price!r}\n')
    order = rng.permutation(len(rows))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("date,time,symbol,price\n")
        handle.writelines(rows[i] for i in order)


def write_config(tmp_path, mode, out_name):
    pairs = {"mode": mode, "output_dir": str(tmp_path / out_name), **ANALYSIS}
    if mode == "synth":
        manifest = tmp_path / "synth.cfg"
        manifest.write_text(MANIFEST)
        pairs["synth_manifest"] = str(manifest)
    elif mode == "returns":
        pairs["input"] = str(tmp_path / "returns_in.csv")
        if not os.path.exists(pairs["input"]):
            write_returns_input(pairs["input"])
    else:
        pairs["input"] = str(tmp_path / "prices_in.csv")
        pairs["policy"] = "drop-incomplete"
        if not os.path.exists(pairs["input"]):
            write_prices_input(pairs["input"])
    cfg = tmp_path / f"{out_name}.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()))
    return cfg


def digests(out_dir):
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in sorted(os.listdir(out_dir))
        if name != "run_manifest.txt"
    }


STAGES = ["ingest", "moments", "cross-section", "fit", "spectra", "condition"]


@pytest.mark.parametrize("mode", ["returns", "prices", "synth"])
def test_run_matches_the_staged_subcommands(tmp_path, mode):
    assert cli.main(["run", "-c", str(write_config(tmp_path, mode, "run"))]) == 0
    staged_cfg = str(write_config(tmp_path, mode, "staged"))
    for stage in (["synth"] if mode == "synth" else []) + STAGES:
        assert cli.main([stage, "-c", staged_cfg]) == 0, stage
    ran, staged = digests(tmp_path / "run"), digests(tmp_path / "staged")
    assert len(ran) >= 15
    assert ran == staged
    if mode == "prices":
        report = (tmp_path / "run" / "load_report.txt").read_text()
        assert "stocks_dropped = 1\n  DDD:" in report
        assert "days_dropped = 1\n" in report


def count_calls(monkeypatch, name, modules):
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("mode, parses", [("synth", 0), ("returns", 1)])
def test_run_reads_no_intermediate_file(tmp_path, monkeypatch, mode, parses):
    cfg = write_config(tmp_path, mode, "out")
    parsed = count_calls(monkeypatch, "read_return_records", [panel_module, cli])
    tables = count_calls(monkeypatch, "read_table", [tableio, cli])
    assert cli.main(["run", "-c", str(cfg)]) == 0
    assert len(parsed) == parses
    assert len(tables) == 0


def assert_same_panel(got, want):
    assert got.returns.dtype == want.returns.dtype
    assert got.returns.shape == want.returns.shape
    assert got.returns.tobytes() == want.returns.tobytes()
    assert got.stock_ids == want.stock_ids
    assert got.dates == want.dates
    assert got.bins_per_day == want.bins_per_day
    assert got.overnight_present == want.overnight_present


@pytest.mark.parametrize("mode", ["returns", "prices", "synth"])
def test_each_artifact_equals_its_file(tmp_path, mode):
    config = read_run_config(write_config(tmp_path, mode, "out"))
    records = cli.stage_synth(config) if mode == "synth" else cli._read_input(config)
    if mode == "synth":
        from_file = panel_module.read_return_records(tmp_path / "out" / "returns.csv")
        assert_same_panel(load_panel(records)[0], load_panel(from_file)[0])
    loaded = load_panel(records, policy=config.policy)[0].returns

    canonical = cli.stage_ingest(config, records)
    assert_same_panel(canonical, cli._read_canonical(config))
    if mode != "synth":
        # the input carries digits past the tenth, so the hand-off is rounded
        assert loaded.tobytes() != canonical.returns.tobytes()
    if mode == "returns":
        assert (np.signbit(loaded) & (loaded == 0)).sum() == 3
    assert not (np.signbit(canonical.returns) & (canonical.returns == 0)).any()

    bins, *moments = cli.stage_moments(config, canonical)
    file_bins, *file_moments = cli._read_moments(config)
    assert list(bins) == file_bins
    assert len(moments) == len(file_moments) == 2
    for got, want in zip(moments, file_moments):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    profile = cli.stage_cross_section(config, canonical, bins, *moments)
    from_fig1 = cli._read_vol_profile(config)
    assert profile.bins.tolist() == from_fig1.bins.tolist()
    assert profile.values.tobytes() == from_fig1.values.tobytes()
    assert profile.band.tobytes() == from_fig1.band.tobytes()
    assert profile.overnight_value is from_fig1.overnight_value is None


@pytest.mark.parametrize("cap", [None, "1", "64"])
def test_thread_cap_reaches_the_blas(tmp_path, cap):
    """Unset leaves the BLAS default; a cap lowers it but never raises it."""
    cfg = write_config(tmp_path, "synth", "out")
    script = textwrap.dedent(
        """
        import sys
        from intraday import cli, config

        def blas_threads():
            lib = config._bundled_openblas()
            return None if lib is None else lib.scipy_openblas_get_num_threads64_()

        before = blas_threads()
        code = cli.main(["run", "-c", sys.argv[1]])
        print(code, before, blas_threads())
        """
    )
    env = {k: v for k, v in os.environ.items() if k != "SEASONALITY_THREADS"}
    if cap is not None:
        env["SEASONALITY_THREADS"] = cap
    src = os.path.dirname(os.path.dirname(intraday.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, str(cfg)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    code, before, after = done.stdout.split()
    if before == "None":
        pytest.skip("numpy does not bundle OpenBLAS here")
    assert code == "0"
    assert after == ("1" if cap == "1" else before)


def test_return_that_rounds_past_the_float_range_stops_ingest(tmp_path):
    rows = ["date,bin,symbol,return"]
    # 4 days, so eigen_hi = 3 passes the panel checks and the write is reached
    for date in _dates(4):
        for b in (1, 2, 3):
            for symbol in ("AAA", "BBB", "CCC"):
                rows.append(f"{date.isoformat()},{b},{symbol},0.001")
    # finite, but its 10-digit text 1.797693135e+308 reads back as inf
    rows[5] = rows[5].rsplit(",", 1)[0] + ",1.7976931348e308"
    (tmp_path / "returns_in.csv").write_text("\n".join(rows) + "\n")
    assert cli.main(["run", "-c", str(write_config(tmp_path, "returns", "run"))]) == 2
    staged_cfg = str(write_config(tmp_path, "returns", "staged"))
    assert cli.main(["ingest", "-c", staged_cfg]) == 2
    # the canonical write is abandoned, so no half-valid table is left
    assert os.listdir(tmp_path / "run") == []
    assert os.listdir(tmp_path / "staged") == []
