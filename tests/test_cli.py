"""End-to-end CLI checks: stages, composability, determinism, exit codes."""

import argparse
import contextlib
import dataclasses
import datetime as dt
import io
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intraday import cli
from intraday.config import (
    RunConfig,
    config_echo_pairs,
    parse_kv_lines,
    run_config_from,
    write_kv_lines,
)
from intraday.tableio import read_columns

MANIFEST = """\
n_stocks = 8
n_days = 80
bins_per_day = 6
factor_vol = ushape(0.004, 0.002)
target_correlation = 0.3
overnight_vol_multiplier = 2
seed = 42
"""

STAGE_FILES = [
    "returns.csv",
    "manifest_echo.txt",
    "returns_canonical.csv",
    "load_report.txt",
    "validation.txt",
    "stock_moments.csv",
    "dispersion.csv",
    "fig1.csv",
    "fig2.csv",
    "fig1_fit.csv",
    "fig6.csv",
    "fig7.csv",
    "fig7_null.csv",
    "fig3.csv",
    "fig4.csv",
    "fig5_index.csv",
    "fig5_dispersion.csv",
]

STAGE_ORDER = ["synth", "ingest", "moments", "cross-section", "fit", "spectra", "condition"]


def write_config(tmp_path, name="run.cfg", out_name="out", **overrides):
    manifest = tmp_path / "synth.cfg"
    if not manifest.exists():
        manifest.write_text(MANIFEST)
    pairs = {
        "mode": "synth",
        "synth_manifest": str(manifest),
        "output_dir": str(tmp_path / out_name),
        "bucket_width": "0.002",
        "bucket_lo": "-0.02",
        "bucket_hi": "0.02",
        "min_count": "5",
        "eigen_lo": "2",
        "eigen_hi": "4",
        "null_trials": "1000",
        "null_seed": "3",
    }
    pairs.update({k: str(v) for k, v in overrides.items()})
    cfg = tmp_path / name
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()))
    return cfg


def read_stage_table(path, **kinds):
    """A stage table's header and its ``kinds`` columns, each as a list."""
    header, columns = read_columns(path, kinds, versioned=True)
    return header, {name: column.tolist() for name, column in zip(kinds, columns)}


def read_all(out_dir, names=STAGE_FILES):
    return {name: (out_dir / name).read_bytes() for name in names}


class TestPipeline:
    def test_run_writes_every_table(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "-c", str(cfg)]) == 0
        out = tmp_path / "out"
        for name in STAGE_FILES + ["run_manifest.txt"]:
            assert (out / name).exists(), name

    def test_staged_sequence_matches_run(self, tmp_path):
        cfg_a = write_config(tmp_path, name="a.cfg", out_name="a")
        cfg_b = write_config(tmp_path, name="b.cfg", out_name="b")
        assert cli.main(["run", "-c", str(cfg_a)]) == 0
        for stage in STAGE_ORDER:
            assert cli.main([stage, "-c", str(cfg_b)]) == 0, stage
        run_files = read_all(tmp_path / "a")
        staged_files = read_all(tmp_path / "b")
        for name in STAGE_FILES:
            assert run_files[name] == staged_files[name], name

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "-c", str(cfg)]) == 0
        names = STAGE_FILES + ["run_manifest.txt"]
        first = read_all(tmp_path / "out", names)
        assert cli.main(["run", "-c", str(cfg)]) == 0
        second = read_all(tmp_path / "out", names)
        assert first == second

    def test_run_manifest_echoes_config(self, tmp_path):
        cfg = write_config(tmp_path, min_count="7")
        assert cli.main(["run", "-c", str(cfg)]) == 0
        pairs = parse_kv_lines(tmp_path / "out" / "run_manifest.txt")
        assert pairs["table_schema_version"] == "1"
        assert pairs["mode"] == "synth"
        assert pairs["min_count"] == "7"
        assert "package_version" in pairs
        # nothing time-dependent may leak into the manifest
        assert not any("time" in k or "date" in k for k in pairs)

    def test_fig7_covers_every_bin_with_requested_indices(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "-c", str(cfg)]) == 0
        header, table = read_stage_table(
            tmp_path / "out" / "fig7.csv", bin=int, overnight=int, s_2=float
        )
        assert header == [
            "bin", "overnight",
            "lambda_2", "lambda_3", "lambda_4",
            "s_2", "s_3", "s_4",
        ]
        bins = table["bin"]
        assert bins == [0, 1, 2, 3, 4, 5, 6]
        flags = table["overnight"]
        assert flags == [1, 0, 0, 0, 0, 0, 0]
        # the reference bin overlaps itself perfectly
        s_ref = table["s_2"][1]
        assert s_ref == pytest.approx(1.0, abs=1e-9)

    def test_null_threshold_row(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "-c", str(cfg)]) == 0
        _, table = read_stage_table(
            tmp_path / "out" / "fig7_null.csv",
            dim=int,
            subspace_dim=int,
            seed=int,
            threshold=float,
        )
        assert table["dim"] == [8]
        assert table["subspace_dim"] == [3]
        assert table["seed"] == [3]
        threshold = table["threshold"][0]
        assert 0.0 < threshold < 1.0

    def test_returns_mode_reuses_synth_output(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "-c", str(cfg)]) == 0
        cfg2 = write_config(
            tmp_path,
            name="run2.cfg",
            out_name="reingested",
            mode="returns",
            input=str(tmp_path / "out" / "returns.csv"),
        )
        assert cli.main(["run", "-c", str(cfg2)]) == 0
        original = (tmp_path / "out" / "returns_canonical.csv").read_bytes()
        reloaded = (tmp_path / "reingested" / "returns_canonical.csv").read_bytes()
        assert original == reloaded

    def test_flag_overrides_win_over_the_file(self, tmp_path):
        cfg = write_config(tmp_path)
        other = tmp_path / "elsewhere"
        code = cli.main(
            ["run", "-c", str(cfg), "--output-dir", str(other), "--null-seed", "9"]
        )
        assert code == 0
        _, table = read_stage_table(other / "fig7_null.csv", seed=int)
        assert table["seed"] == [9]

    def test_condition_stage_accepts_bin_subset(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "-c", str(cfg)]) == 0
        full = (tmp_path / "out" / "fig3.csv").read_bytes()
        code = cli.main(["condition", "-c", str(cfg), "--condition-bins", "1,2"])
        assert code == 0
        subset = (tmp_path / "out" / "fig3.csv").read_bytes()
        assert subset != full

    def test_overnight_conditioning_toggle(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "-c", str(cfg)]) == 0
        code = cli.main(
            ["condition", "-c", str(cfg), "--include-overnight-conditioning", "true"]
        )
        assert code == 0


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_stage_table():
    """Each subcommand in README's stage table, and the files its row names."""
    rows = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("| `"):
            _, name, writes, _ = line.split("|")
            rows[name.strip().strip("`")] = re.findall(r"`([^`]+)`", writes)
    return rows


def test_readme_table_lists_what_each_subcommand_writes(tmp_path):
    table = readme_stage_table()
    assert sorted(table) == sorted(cli._STAGES)
    assert table == {stage: list(files) for stage, files in cli.WRITES.items()}
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    seen = set()
    for stage in [name for name in cli._STAGES if name != "run"]:
        assert cli.main([stage, "-c", str(cfg)]) == 0, stage
        files = {p.name for p in out.iterdir()}
        assert files - seen == set(table[stage]), stage
        seen = files
    run_cfg = write_config(tmp_path, name="ran.cfg", out_name="ran")
    assert cli.main(["run", "-c", str(run_cfg)]) == 0
    assert {p.name for p in (tmp_path / "ran").iterdir()} == seen | set(table["run"])


def write_bars(path, bin3, days=range(1, 13)):
    """12 stocks x 12 days x bins 1-8 of Gaussian returns, bin 3's return
    ``bin3(stock)`` on ``days`` if given."""
    rng = np.random.default_rng(5)
    rows = ["date,bin,symbol,return"]
    for day in range(1, 13):
        for k in range(1, 9):
            for s in range(12):
                value = bin3(s) if bin3 and k == 3 and day in days else rng.normal(0, 0.01)
                rows.append(f"2024-01-{day:02d},{k},S{s:02d},{value:.6f}")
    path.write_text("\n".join(rows) + "\n")
    return path


class TestStaleTables:
    """No table outlives a rewrite of a file it was computed from."""

    def test_a_failed_run_leaves_no_table_of_an_earlier_run(self, tmp_path, capsys):
        # the first run's fit, spectra and condition tables and its
        # run_manifest.txt once outlived a second run that stopped at
        # cross-section, and a staged fit then fitted the first run's fig1.csv
        good = write_bars(tmp_path / "good.csv", None)
        zero = write_bars(tmp_path / "zero.csv", lambda s: 0.0)
        cfg = write_config(tmp_path, mode="returns", input=str(good), min_count=1)
        assert cli.main(["run", "-c", str(cfg)]) == 0
        assert cli.main(["run", "-c", str(cfg), "--input", str(zero)]) == 4
        out = tmp_path / "out"
        left = sorted(p.name for p in out.iterdir())
        assert left == sorted(cli.WRITES["ingest"] + cli.WRITES["moments"])
        capsys.readouterr()
        assert cli.main(["fit", "-c", str(cfg), "--input", str(zero)]) == 2
        assert str(out / "fig1.csv") in capsys.readouterr().err

    def test_run_removes_an_earlier_synth_runs_files_but_not_its_input(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "-c", str(cfg)]) == 0
        out = tmp_path / "out"
        returns = out / "returns.csv"
        before = returns.read_bytes()
        assert cli.main(["run", "-c", str(cfg), "--mode", "returns", "--input", str(returns)]) == 0
        assert returns.read_bytes() == before
        assert not (out / "manifest_echo.txt").exists()

    @pytest.mark.parametrize("stage", STAGE_ORDER)
    def test_a_stage_removes_every_later_stages_files(self, tmp_path, stage):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "-c", str(cfg)]) == 0
        assert cli.main([stage, "-c", str(cfg)]) == 0
        stages = list(cli.WRITES)
        kept = [name for s in stages[: stages.index(stage) + 1] for name in cli.WRITES[s]]
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(kept)


def test_each_subcommand_but_run_is_its_stage_function():
    for name in set(cli._STAGES) - {"run"}:
        assert cli._STAGES[name] is getattr(cli, "stage_" + name.replace("-", "_")), name


def test_a_stage_not_handed_its_panel_reads_the_canonical_table(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    for stage in ["synth", "ingest", "moments"]:
        assert cli.main([stage, "-c", str(cfg)]) == 0, stage
    out = tmp_path / "out"
    from_subcommand = (out / "stock_moments.csv").read_bytes()
    (out / "stock_moments.csv").unlink()
    reads, read = [], cli.read_canonical_panel
    monkeypatch.setattr(cli, "read_canonical_panel", lambda path: reads.append(path) or read(path))
    cli.stage_moments(run_config_from(parse_kv_lines(cfg)))
    assert reads == [str(out / "returns_canonical.csv")]
    assert (out / "stock_moments.csv").read_bytes() == from_subcommand


def test_readme_library_example_runs():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = library.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    top = namespace["top"]
    assert len(top) == len(namespace["panel"].bin_numbers)
    assert all(0.0 < value <= 1.0 for value in top)
    for spectrum, same in zip(namespace["spectra"], namespace["same"], strict=True):
        assert spectrum.eigenvalues.tobytes() == same.eigenvalues.tobytes()
        assert spectrum.eigenvectors.tobytes() == same.eigenvectors.tobytes()


# Damage to a stage table's rows (its lines after the version line and the
# header), and what the message says about it.
DAMAGE = {
    "drop": (lambda rows: rows[:2] + rows[3:], "no row for"),
    "repeat": (lambda rows: rows + rows[2:3], "repeated rows for"),
}


def drop_where(lost):
    return lambda rows: [row for row in rows if not lost(row)]


# stock_moments.csv damaged as a whole: bin 3 of every symbol lost, every
# row of S0003 lost, and a row for a symbol the panel does not hold.
MOMENTS_DAMAGE = [
    (*DAMAGE["drop"], "symbol S0000, bin 2"),
    (*DAMAGE["repeat"], "symbol S0000, bin 2"),
    (drop_where(lambda row: row.split(",")[1] == "3"), "no row for", "symbol S0000, bin 3"),
    (drop_where(lambda row: row.startswith("S0003,")), "no row for", "symbol S0003, bin 0"),
    (lambda rows: rows + ["S0099" + rows[2][5:]], "unexpected row for", "symbol S0099, bin 2"),
]


def damage_rows(path, edit):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:2] + edit(lines[2:])))


class TestExitCodes:
    def assert_single_error_line(self, capsys, tag):
        err = capsys.readouterr().err
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {tag}:")

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["run", "-c", str(tmp_path / "nope.cfg")])
        assert code == 2
        self.assert_single_error_line(capsys, "input-error")

    def test_invalid_config_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path, min_count="0")
        assert cli.main(["run", "-c", str(cfg)]) == 2
        self.assert_single_error_line(capsys, "input-error")

    def test_invalid_flag_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "-c", str(cfg), "--min-count", "0"]) == 2
        self.assert_single_error_line(capsys, "input-error")

    def test_missing_manifest(self, tmp_path, capsys):
        cfg = write_config(tmp_path, synth_manifest=str(tmp_path / "ghost.cfg"))
        assert cli.main(["run", "-c", str(cfg)]) == 2
        self.assert_single_error_line(capsys, "input-error")

    def test_a_nan_manifest_value_is_named_and_leaves_the_earlier_files(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "-c", str(cfg)]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        (tmp_path / "synth.cfg").write_text(MANIFEST.replace("ushape(0.004, 0.002)", "nan"))
        assert cli.main(["synth", "-c", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: input-error: factor_vol must be finite\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_a_nan_sanity_bound_is_named_and_leaves_the_earlier_files(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "-c", str(cfg)]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert cli.main(["run", "-c", str(cfg), "--sanity-bound", "nan"]) == 2
        assert capsys.readouterr().err == "error: input-error: sanity_bound must be finite\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--null-trials", str(10**12)], "null_trials must lie in [1000, 1000000]"),
            (["--bucket-lo=-1e308", "--bucket-hi", "1e308"],
             "bucket_width/bucket_lo/bucket_hi: bucket range must span at most 1000000 widths"),
        ],
        ids=["null_trials", "bucket span"],
    )
    def test_an_unbounded_size_exits_2_before_any_write(self, tmp_path, capsys, flags, message):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "-c", str(cfg), *flags]) == 2
        assert capsys.readouterr().err == f"error: input-error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_missing_upstream_stage_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["moments", "-c", str(cfg)]) == 2
        self.assert_single_error_line(capsys, "input-error")

    def test_malformed_returns_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,bin,symbol,return\n2024-01-02,1,AAA,not-a-number\n")
        cfg = write_config(tmp_path, mode="returns", input=str(bad))
        assert cli.main(["ingest", "-c", str(cfg)]) == 2
        self.assert_single_error_line(capsys, "input-error")

    @pytest.mark.parametrize("policy", ["strict", "zero-fill"])
    def test_bin_whose_grid_cannot_be_allocated_is_an_input_error(
        self, tmp_path, capsys, policy
    ):
        # a 2 x 2 x 2**62 grid: numpy refuses its size before allocating anything
        bad = tmp_path / "huge_bin.csv"
        rows = ["2020-01-06,1,A", "2020-01-06,1,B", "2020-01-07,1,A", f"2020-01-07,{2**62},B"]
        bad.write_text("date,bin,symbol,return\n" + "".join(f"{row},0.001\n" for row in rows))
        cfg = write_config(tmp_path, mode="returns", input=str(bad), policy=policy)
        assert cli.main(["ingest", "-c", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: input-error: bin {2**62} makes the 2 x 2 x {2**62} ")
        assert list((tmp_path / "out").iterdir()) == []

    def test_price_grid_that_cannot_be_allocated_is_an_input_error(self, tmp_path, capsys):
        # each row its own symbol, date and stamp: a 60000**3 grid, 196 TiB of
        # occupancy alone, past the user address space, so never allocated
        n = 60_000
        first = dt.date(1900, 1, 1).toordinal()
        rows = (
            f"{dt.date.fromordinal(first + i).isoformat()},"
            f"{i // 3600:02d}:{i // 60 % 60:02d}:{i % 60:02d},S{i},10.0\n"
            for i in range(n)
        )
        bad = tmp_path / "sparse_prices.csv"
        bad.write_text("date,time,symbol,price\n" + "".join(rows))
        cfg = write_config(tmp_path, mode="prices", input=str(bad), policy="drop-incomplete")
        assert cli.main(["ingest", "-c", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: input-error: the price table makes the {n} x {n} x {n} "
            "(symbol, day, stamp) grid too large to allocate\n"
        )
        assert not (tmp_path / "out").exists()

    def test_input_that_is_not_utf8_is_named(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"date,bin,symbol,return\n2020-01-06,1,A\xe9,0.1\n")
        cfg = write_config(tmp_path, mode="returns", input=str(bad))
        assert cli.main(["ingest", "-c", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: input-error: {bad}: not UTF-8 text (invalid continuation byte)\n"
        )

    def test_stage_table_that_is_not_utf8_is_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "-c", str(cfg)]) == 0
        table = tmp_path / "out" / "returns_canonical.csv"
        table.write_bytes(table.read_bytes().replace(b",S0000,", b",\xff0000,", 1))
        capsys.readouterr()
        assert cli.main(["moments", "-c", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: input-error: {table}: not UTF-8 text (invalid start byte)\n"

    def test_manifest_that_is_not_utf8_is_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        manifest = tmp_path / "synth.cfg"
        manifest.write_bytes(MANIFEST.encode() + b"# caf\xe9\n")
        assert cli.main(["synth", "-c", str(cfg)]) == 2
        assert f"{manifest}: not UTF-8 text" in capsys.readouterr().err

    def test_input_that_is_a_directory(self, tmp_path, capsys):
        cfg = write_config(tmp_path, mode="returns", input=str(tmp_path))
        assert cli.main(["ingest", "-c", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: input-error: ")
        assert str(tmp_path) in err

    def test_corrupted_schema_version(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "-c", str(cfg)]) == 0
        fig1 = tmp_path / "out" / "fig1.csv"
        body = fig1.read_text().splitlines()[1:]
        fig1.write_text("\n".join(body) + "\n")
        assert cli.main(["fit", "-c", str(cfg)]) == 3
        self.assert_single_error_line(capsys, "schema-error")

    def test_too_little_data_for_moments(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        rows = ["# schema-version: 1", "date,bin,symbol,return"]
        for symbol in ("AAA", "BBB"):
            for k in (1, 2, 3):
                rows.append(f"2024-01-02,{k},{symbol},0.0{k}")
        (out / "returns_canonical.csv").write_text("\n".join(rows) + "\n")
        cfg = write_config(tmp_path)
        assert cli.main(["moments", "-c", str(cfg)]) == 4
        self.assert_single_error_line(capsys, "numeric-error")

    @pytest.mark.parametrize(
        "stage, name, field, text, message",
        [
            # field None: the row loses its last field
            ("cross-section", "stock_moments.csv", None, None, "expected 9 fields, got 8"),
            ("cross-section", "stock_moments.csv", 4, "abc", "bad volatility 'abc'"),
            ("fit", "fig1.csv", 0, "x", "bad bin 'x'"),
        ],
    )
    def test_bad_stage_table_row_is_named(
        self, tmp_path, capsys, stage, name, field, text, message
    ):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "-c", str(cfg)]) == 0
        table = tmp_path / "out" / name
        lines = table.read_text().splitlines()
        row = lines[3].split(",")
        if field is None:
            row.pop()
        else:
            row[field] = text
        lines[3] = ",".join(row)
        table.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli.main([stage, "-c", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: input-error: row 4: {message}\n"

    @pytest.mark.parametrize(
        "edit, message, cell",
        MOMENTS_DAMAGE,
        ids=["drop", "repeat", "lost-bin", "lost-symbol", "foreign-symbol"],
    )
    def test_damaged_stock_moments_cell_is_named(self, tmp_path, capsys, edit, message, cell):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "-c", str(cfg)]) == 0
        out = tmp_path / "out"
        assert (out / "stock_moments.csv").read_text().splitlines()[4].startswith("S0000,2,")
        damage_rows(out / "stock_moments.csv", edit)
        before = read_all(out)
        capsys.readouterr()
        assert cli.main(["cross-section", "-c", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: input-error: {out / 'stock_moments.csv'}: {message} {cell}\n"
        )
        assert read_all(out) == before

    @pytest.mark.parametrize(
        "edit, message, bin_number",
        [(*DAMAGE["drop"], 2), (*DAMAGE["repeat"], 2), (lambda rows: rows[:-1], "no row for", 6)],
        ids=[*DAMAGE, "drop-last"],
    )
    def test_damaged_fig1_bins_are_named(self, tmp_path, capsys, edit, message, bin_number):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "-c", str(cfg)]) == 0
        out = tmp_path / "out"
        lines = (out / "fig1.csv").read_text().splitlines()[2:]
        assert [line.split(",")[0] for line in lines] == ["0", "1", "2", "3", "4", "5", "6"]
        damage_rows(out / "fig1.csv", edit)
        before = read_all(out)
        capsys.readouterr()
        assert cli.main(["fit", "-c", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: input-error: {out / 'fig1.csv'}: {message} intraday bin {bin_number}\n"
        )
        assert read_all(out) == before

    def test_fig1_bin_past_stock_moments_names_both_tables(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "-c", str(cfg)]) == 0
        out = tmp_path / "out"
        # stock_moments.csv loses every bin-6 row, so its last bin reads as 5
        damage_rows(out / "stock_moments.csv", drop_where(lambda row: row.split(",")[1] == "6"))
        before = read_all(out)
        capsys.readouterr()
        assert cli.main(["fit", "-c", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: input-error: {out / 'fig1.csv'}: intraday bin 6 is past the last bin, 5, "
            f"of {out / 'stock_moments.csv'}\n"
        )
        assert read_all(out) == before

    @pytest.mark.parametrize(
        "stage, name", [("moments", "returns_canonical.csv"), ("ingest", "returns.csv")]
    )
    @pytest.mark.parametrize("version", ["# schema-version: 9", "# a comment"])
    def test_stage_return_table_version_is_checked(
        self, tmp_path, capsys, stage, name, version
    ):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "-c", str(cfg)]) == 0
        table = tmp_path / "out" / name
        lines = table.read_text().splitlines()
        table.write_text("\n".join([version] + lines[1:]) + "\n")
        capsys.readouterr()
        assert cli.main([stage, "-c", str(cfg)]) == 3
        self.assert_single_error_line(capsys, "schema-error")

    def test_unexpected_failure_is_internal(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "-c", str(cfg)]) == 0

        def boom(panel):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(cli, "stock_bin_moments", boom)
        assert cli.main(["moments", "-c", str(cfg)]) == 5
        self.assert_single_error_line(capsys, "internal-error")

    def test_a_failing_curve_leaves_no_conditioning_table(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path)
        for stage in STAGE_ORDER[:-1]:
            assert cli.main([stage, "-c", str(cfg)]) == 0, stage

        def boom(*args, **kwargs):
            raise RuntimeError("fourth curve failed")

        monkeypatch.setattr(cli, "kurtosis_vs_dispersion", boom)
        assert cli.main(["condition", "-c", str(cfg)]) == 5
        self.assert_single_error_line(capsys, "internal-error")
        tables = ["fig3.csv", "fig4.csv", "fig5_index.csv", "fig5_dispersion.csv"]
        assert [name for name in tables if (tmp_path / "out" / name).exists()] == []

    @pytest.mark.parametrize(
        "stage, kernel, tables",
        [
            ("cross-section", "ratio_profile", ["dispersion.csv", "fig1.csv", "fig2.csv"]),
            ("spectra", "random_overlap_baseline", ["fig6.csv", "fig7.csv", "fig7_null.csv"]),
        ],
    )
    def test_a_failing_kernel_leaves_none_of_its_stage_tables(
        self, tmp_path, capsys, monkeypatch, stage, kernel, tables
    ):
        cfg = write_config(tmp_path)
        for earlier in STAGE_ORDER[: STAGE_ORDER.index(stage)]:
            assert cli.main([earlier, "-c", str(cfg)]) == 0, earlier

        def boom(*args, **kwargs):
            raise RuntimeError("last kernel failed")

        monkeypatch.setattr(cli, kernel, boom)
        assert cli.main([stage, "-c", str(cfg)]) == 5
        self.assert_single_error_line(capsys, "internal-error")
        assert [name for name in tables if (tmp_path / "out" / name).exists()] == []

    @pytest.mark.parametrize(
        "bin3, message, written, absent",
        [
            # zero cross-sectional dispersion at bin 3 on every day
            (
                lambda s: 0.0,
                "zero denominator at bin 3",
                ["stock_moments.csv"],
                ["dispersion.csv", "fig1.csv", "fig2.csv"],
            ),
            # each stock constant at bin 3: a stock_vol of 0 in the fit window
            (
                lambda s: 0.0625 * (s + 1),
                "non-positive value at bin 3, log fit undefined",
                ["stock_moments.csv", "dispersion.csv", "fig1.csv", "fig2.csv"],
                ["fig1_fit.csv"],
            ),
        ],
        ids=["zero-dispersion", "zero-stock-vol"],
    )
    def test_a_degenerate_bin_is_a_numeric_error(
        self, tmp_path, capsys, bin3, message, written, absent
    ):
        returns = write_bars(tmp_path / "returns.csv", bin3)
        cfg = write_config(tmp_path, mode="returns", input=str(returns), min_count=1)
        assert cli.main(["run", "-c", str(cfg)]) == 4
        assert capsys.readouterr().err == f"error: numeric-error: {message}\n"
        out = tmp_path / "out"
        assert [name for name in written if not (out / name).exists()] == []
        assert [name for name in absent if (out / name).exists()] == []

    def test_one_flat_cross_section_stops_spectra_in_run_and_staged(self, tmp_path, capsys):
        # every stock returns 0 at bin 3 on the fifth day alone: cross-section
        # marks that cell degenerate and goes on, and spectra names it before
        # it writes a table, whether run hands it the panel or it reads one
        returns = write_bars(tmp_path / "returns.csv", lambda s: 0.0, days=[5])
        cfg = write_config(tmp_path, mode="returns", input=str(returns), min_count=1)
        out = tmp_path / "out"
        for stage in ("run", "spectra"):
            assert cli.main([stage, "-c", str(cfg)]) == 4
            assert capsys.readouterr().err == (
                "error: numeric-error: zero cross-sectional dispersion at (bin 3, day 4)\n"
            )
            written = ["dispersion.csv", "fig1.csv", "fig2.csv"]
            assert [name for name in written if not (out / name).exists()] == []
            absent = ["fig6.csv", "fig7.csv", "fig7_null.csv"]
            assert [name for name in absent if (out / name).exists()] == []

    def test_a_halted_stock_is_warned_of_before_its_nan_kurtosis(self, tmp_path, capsys):
        # S07's return is 0 on every day of every bin: its kurtosis is NaN in
        # each bin, and so is fig2's stock profile, written before spectra fails
        rng = np.random.default_rng(1)
        rows = ["date,bin,symbol,return"]
        for day in range(1, 31):
            for k in range(1, 4):
                for s in range(20):
                    value = 0.0 if s == 7 else rng.normal(0, 0.01)
                    rows.append(f"2024-01-{day:02d},{k},S{s:02d},{value:.6f}")
        returns = tmp_path / "returns.csv"
        returns.write_text("\n".join(rows) + "\n")
        cfg = write_config(tmp_path, mode="returns", input=str(returns), min_count=1,
                           fit_window="1:3")
        assert cli.main(["run", "-c", str(cfg)]) == 4
        assert capsys.readouterr().err == (
            "error: numeric-error: zero variance at bin 1 for stock(s): S07\n"
        )
        out = tmp_path / "out"
        assert (out / "validation.txt").read_text().splitlines() == [
            "ok = true",
            "warning: 3 (stock, bin) series with the same return on every day, in bin(s) "
            "1, 2, 3: (S07, bin 1), (S07, bin 2), (S07, bin 3)",
        ]
        _, fig2 = read_stage_table(out / "fig2.csv", stock_kurtosis=float,
                                   stock_kurtosis_band=float)
        assert np.isnan(fig2["stock_kurtosis"] + fig2["stock_kurtosis_band"]).all()

    def test_a_nonpositive_fig1_stock_vol_is_a_numeric_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "-c", str(cfg)]) == 0
        out = tmp_path / "out"
        lines = (out / "fig1.csv").read_text().splitlines()
        assert lines[1].startswith("bin,overnight,stock_vol,") and lines[4].startswith("2,")
        row = lines[4].split(",")
        row[2] = "0"
        lines[4] = ",".join(row)
        (out / "fig1.csv").write_text("\n".join(lines) + "\n")
        before = read_all(out)
        capsys.readouterr()
        assert cli.main(["fit", "-c", str(cfg)]) == 4
        assert capsys.readouterr().err == (
            "error: numeric-error: non-positive value at bin 2, log fit undefined\n"
        )
        assert read_all(out) == before

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--policy", "bogus"),
            ("--min-count", "abc"),
            ("--include-overnight-conditioning", "maybe"),
            ("--null-seed", "-1"),
        ],
    )
    def test_bad_flag_value(self, tmp_path, capsys, flag, value):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "-c", str(cfg), flag, value]) == 2
        self.assert_single_error_line(capsys, "input-error")

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--bucket-width", "0.0007"),
            ("--eigen-hi", "40"),
            ("--reference-bin", "20"),
            ("--condition-bins", "99"),
            ("--condition-bins", "1,99"),
            ("--condition-bins", "0"),
            ("--fit-window", "2:3"),
            ("--fit-window", "5:7"),
        ],
    )
    def test_config_error_against_the_panel_stops_before_analysis(
        self, tmp_path, capsys, flag, value
    ):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "-c", str(cfg), flag, value]) == 2
        self.assert_single_error_line(capsys, "input-error")
        out = tmp_path / "out"
        written = sorted(p.name for p in out.iterdir()) if out.exists() else []
        analysis = [n for n in written if n.startswith("fig")]
        analysis += [n for n in ("stock_moments.csv", "dispersion.csv") if n in written]
        assert analysis == []
        assert "returns_canonical.csv" not in written

    @pytest.mark.parametrize(
        "stage, flag, value, table",
        [
            ("spectra", "--eigen-hi", "40", "fig7.csv"),
            ("spectra", "--reference-bin", "20", "fig7.csv"),
            ("condition", "--condition-bins", "99", "fig3.csv"),
            ("condition", "--condition-bins", "1,99", "fig3.csv"),
            ("fit", "--fit-window", "2:3", "fig1_fit.csv"),
            ("fit", "--fit-window", "5:7", "fig1_fit.csv"),
        ],
    )
    def test_staged_config_error_against_the_panel(
        self, tmp_path, capsys, stage, flag, value, table
    ):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "-c", str(cfg)]) == 0
        before = (tmp_path / "out" / table).read_bytes()
        assert cli.main([stage, "-c", str(cfg), flag, value]) == 2
        self.assert_single_error_line(capsys, "input-error")
        assert (tmp_path / "out" / table).read_bytes() == before

    def test_unknown_condition_bins_are_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "-c", str(cfg), "--condition-bins", "1,99,7"]) == 2
        err = capsys.readouterr().err
        assert "condition_bins [7, 99] are not bins of the panel" in err

    def test_a_condition_bins_selection_of_no_rows_is_named(self, tmp_path, capsys):
        # the overnight bin 0 alone, while conditioning leaves it out
        cfg = write_config(tmp_path)
        assert cli.main(["run", "-c", str(cfg), "--condition-bins", "0"]) == 2
        assert capsys.readouterr().err == (
            "error: input-error: condition_bins [0] select no rows of the bins "
            "[0, 1, 2, 3, 4, 5, 6] (overnight in: False)\n"
        )

    def test_fit_window_at_the_panel_edge_is_accepted(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "-c", str(cfg), "--fit-window", "4:6"]) == 0
        _, table = read_stage_table(tmp_path / "out" / "fig1_fit.csv", fit_hi=int)
        assert table["fit_hi"] == [6]

    @pytest.mark.parametrize("window", ["first_half", "first_two_hours"])
    @pytest.mark.parametrize("stage", ["run", "ingest"])
    def test_named_fit_window_the_panel_cannot_serve_stops_ingest(
        self, tmp_path, capsys, stage, window
    ):
        # 2 bins a day: either named window covers bins 1..2, too few to fit
        manifest = MANIFEST.replace("bins_per_day = 6", "bins_per_day = 2")
        (tmp_path / "synth.cfg").write_text(manifest)
        cfg = write_config(tmp_path, fit_window=window)
        if stage == "ingest":
            assert cli.main(["synth", "-c", str(cfg)]) == 0
        assert cli.main([stage, "-c", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"fit_window '{window}' must cover at least 3" in err
        written = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert written == ["manifest_echo.txt", "returns.csv"]

    def test_missing_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2


@pytest.mark.filterwarnings("ignore:bin .* is rank-deficient")
class TestFewerDaysThanStocks:
    """A panel with more stocks than days: spectra come from the dual Gram
    matrix, and eigenvector ranks stop at n_days - 1."""

    WIDE = MANIFEST.replace("n_stocks = 8", "n_stocks = 12").replace(
        "n_days = 80", "n_days = 8"
    )

    def write_wide_config(self, tmp_path, **overrides):
        (tmp_path / "synth.cfg").write_text(self.WIDE)
        return write_config(tmp_path, **overrides)

    def test_run_writes_every_table(self, tmp_path):
        # eigen_hi = n_days - 1: bin_spectra keeps every eigenvector of the rank
        cfg = self.write_wide_config(tmp_path, eigen_hi="7")
        assert cli.main(["run", "-c", str(cfg)]) == 0
        fig7 = tmp_path / "out" / "fig7.csv"
        header, table = read_stage_table(fig7, s_2=float)
        lambdas, overlaps = [f"lambda_{i}" for i in range(2, 8)], [f"s_{i}" for i in range(2, 8)]
        assert header == ["bin", "overnight", *lambdas, *overlaps]
        assert table["s_2"][1] == pytest.approx(1.0, abs=1e-9)
        # returns mode on the table just written gives the same figure
        synth_fig7 = fig7.read_bytes()
        returns = str(tmp_path / "out" / "returns.csv")
        assert cli.main(["run", "-c", str(cfg), "--mode", "returns", "--input", returns]) == 0
        assert fig7.read_bytes() == synth_fig7

    def assert_eigen_hi_rejected(self, capsys):
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: input-error: eigen_lo..eigen_hi = 2..8")
        assert "12 stocks" in err and "8 days less one" in err

    def test_eigen_hi_past_the_days_stops_ingest(self, tmp_path, capsys):
        cfg = self.write_wide_config(tmp_path)
        assert cli.main(["run", "-c", str(cfg), "--eigen-hi", "8"]) == 2
        self.assert_eigen_hi_rejected(capsys)
        written = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert written == ["manifest_echo.txt", "returns.csv"]

    def test_eigen_hi_past_the_days_stops_the_spectra_stage(self, tmp_path, capsys):
        cfg = self.write_wide_config(tmp_path)
        assert cli.main(["run", "-c", str(cfg)]) == 0
        fig7 = tmp_path / "out" / "fig7.csv"
        before = fig7.read_bytes()
        capsys.readouterr()
        assert cli.main(["spectra", "-c", str(cfg), "--eigen-hi", "8"]) == 2
        self.assert_eigen_hi_rejected(capsys)
        assert fig7.read_bytes() == before


class TestNonFiniteInput:
    def assert_ingest_rejects(self, tmp_path, capsys, cfg, message):
        assert cli.main(["ingest", "-c", str(cfg)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: input-error:") and message in err
        out = tmp_path / "out"
        assert not out.exists() or [p.name for p in out.iterdir()] == []

    def test_nan_and_inf_prices(self, tmp_path, capsys):
        rows = ["date,time,symbol,price"]
        for day in ("2024-01-02", "2024-01-03", "2024-01-04"):
            for symbol in ("AAA", "BBB"):
                for stamp, price in (("10:00", "10.0"), ("11:00", "10.5"), ("12:00", "10.2")):
                    rows.append(f"{day},{stamp},{symbol},{price}")
        rows[8] = "2024-01-03,11:00,AAA,nan"
        rows[14] = "2024-01-04,11:00,AAA,inf"
        prices = tmp_path / "prices.csv"
        prices.write_text("\n".join(rows) + "\n")
        cfg = write_config(
            tmp_path, mode="prices", input=str(prices), policy="drop-incomplete"
        )
        self.assert_ingest_rejects(
            tmp_path, capsys, cfg, "non-finite price nan for AAA 2024-01-03 11:00"
        )

    def test_price_ratio_that_overflows(self, tmp_path, capsys):
        rows = ["date,time,symbol,price"]
        for day in range(2, 12):
            for symbol in ("AAA", "BBB", "CCC", "DDD", "EEE", "FFF"):
                for stamp, price in (("10:00", "10.0"), ("11:00", "10.5"), ("12:00", "10.2")):
                    rows.append(f"2024-01-{day:02d},{stamp},{symbol},{price}")
        # 1e300 / 1e-300 overflows to an infinite bin-2 return
        rows[55] = "2024-01-05,10:00,AAA,1e-300"
        rows[56] = "2024-01-05,11:00,AAA,1e300"
        prices = tmp_path / "prices.csv"
        prices.write_text("\n".join(rows) + "\n")
        cfg = write_config(
            tmp_path,
            mode="prices",
            input=str(prices),
            policy="drop-incomplete",
            fit_window="1:3",
        )
        with np.errstate(over="ignore"):
            self.assert_ingest_rejects(
                tmp_path, capsys, cfg, "returns_canonical.csv: a return is not finite"
            )

    def test_return_that_rounds_to_infinity(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        rows = ["date,bin,symbol,return"]
        for day in range(1, 11):
            for k in (1, 2, 3):
                for symbol in ("AAA", "BBB", "CCC", "DDD", "EEE", "FFF"):
                    rows.append(f"2024-01-{day:02d},{k},{symbol},{rng.normal(0, 0.01):.6f}")
        rows[40] = rows[40].rsplit(",", 1)[0] + ",1.7976931348e308"
        returns = tmp_path / "returns.csv"
        returns.write_text("\n".join(rows) + "\n")
        cfg = write_config(tmp_path, mode="returns", input=str(returns), fit_window="1:3")
        self.assert_ingest_rejects(
            tmp_path, capsys, cfg, "returns_canonical.csv: a return rounds to a non-finite value"
        )

    @staticmethod
    def set_cell(path, column, text):
        """Set ``column`` of data row 3 (line 5) of the stage table at ``path``."""
        lines = path.read_text().splitlines()
        row = lines[4].split(",")
        row[lines[1].split(",").index(column)] = text
        lines[4] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize(
        "stage, table, column, text",
        [
            ("cross-section", "stock_moments.csv", "volatility", "inf"),
            ("fit", "fig1.csv", "stock_vol", "nan"),
            ("fit", "fig1.csv", "stock_vol_band", "-inf"),
        ],
    )
    def test_a_nonfinite_value_read_back_is_an_input_error(
        self, tmp_path, capsys, stage, table, column, text
    ):
        # values their writer never leaves non-finite: the stage once read them
        cfg = write_config(tmp_path)
        assert cli.main(["run", "-c", str(cfg)]) == 0
        out = tmp_path / "out"
        self.set_cell(out / table, column, text)
        before = read_all(out)
        capsys.readouterr()
        assert cli.main([stage, "-c", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"error: input-error: row 5: non-finite {column} '{text}'\n"
        )
        assert read_all(out) == before

    def test_a_nan_kurtosis_reads_back(self, tmp_path):
        # the writer leaves a degenerate cell's kurtosis NaN, so NaN stays legal there
        cfg = write_config(tmp_path)
        assert cli.main(["run", "-c", str(cfg)]) == 0
        self.set_cell(tmp_path / "out" / "stock_moments.csv", "kurtosis", "nan")
        assert cli.main(["cross-section", "-c", str(cfg)]) == 0

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_a_kernel_that_overflows_writes_none_of_its_stage_tables(self, tmp_path, capsys):
        # one finite return of 1e160 overflows the variance: the moments
        # stage once wrote volatility inf and every later stage ran on it
        rng = np.random.default_rng(5)
        rows = ["date,bin,symbol,return"]
        for day in range(1, 13):
            for k in range(1, 7):
                for s in range(1, 6):
                    value = 1e160 if (day, k, s) == (4, 2, 2) else rng.normal(0, 0.01)
                    rows.append(f"2024-01-{day:02d},{k},S{s},{value:.6g}")
        returns = tmp_path / "big.csv"
        returns.write_text("\n".join(rows) + "\n")
        cfg = write_config(tmp_path, mode="returns", input=str(returns), min_count=1, eigen_hi=3)
        assert cli.main(["run", "-c", str(cfg)]) == 4
        out = tmp_path / "out"
        assert capsys.readouterr().err == (
            f"error: numeric-error: {out / 'stock_moments.csv'}: volatility is infinite "
            "in data row 8\n"
        )
        written = ["load_report.txt", "returns_canonical.csv", "validation.txt"]
        assert sorted(p.name for p in out.iterdir()) == written


DEGENERACIES = ("flat stock", "flat bin", "repeated day", "equal stocks", "huge return")


@st.composite
def degenerate_tables(draw):
    """A small returns-mode table's text (N and T of 2 to 6, so N > T
    too, and K of 1, 3 or 4), with some of ``DEGENERACIES`` applied."""
    n, t, k = draw(st.integers(2, 6)), draw(st.integers(2, 6)), draw(st.sampled_from([1, 3, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    returns = rng.normal(0.0, 0.01, (n, t, k))
    kinds = draw(st.sets(st.sampled_from(DEGENERACIES)))
    if "flat stock" in kinds:
        returns[draw(st.integers(0, n - 1))] = 0.001
    if "flat bin" in kinds:
        returns[:, :, draw(st.integers(0, k - 1))] = 0.0
    if "repeated day" in kinds:
        returns[:, 1] = returns[:, 0]
    if "equal stocks" in kinds:
        returns[:] = returns[0]
    if "huge return" in kinds:
        returns[draw(st.integers(0, n - 1)), draw(st.integers(0, t - 1)), 0] = 1e160
    return returns_table(returns)


def returns_table(returns):
    """A returns-mode table's text from a (stock, day, bin) array."""
    (n, t, k), values = returns.shape, returns.tolist()
    rows = ["date,bin,symbol,return"]
    rows += [
        f"2024-01-{d + 1:02d},{b + 1},S{a},{values[a][d][b]!r}"
        for a in range(n) for d in range(t) for b in range(k)
    ]
    return "\n".join(rows) + "\n"


# a halted stock (S2, 0 throughout): NaN kurtosis in every bin of fig2.csv,
# which is written before spectra fails
HALTED = np.random.default_rng(3).normal(0.0, 0.01, (4, 5, 3))
HALTED[2] = 0.0


@pytest.mark.filterwarnings("ignore:bin .* rank-deficient:UserWarning")
@settings(max_examples=60, derandomize=True, deadline=None)
@given(table=degenerate_tables(), eigen_hi=st.integers(1, 2))
@example(table=returns_table(HALTED), eigen_hi=1)
def test_a_degenerate_table_never_exits_5_or_writes_an_infinity(table, eigen_hi):
    with tempfile.TemporaryDirectory() as work:
        returns = Path(work, "returns.csv")
        returns.write_text(table)
        out = Path(work, "out")
        argv = ["run", "--mode", "returns", "--input", str(returns), "--output-dir", str(out),
                "--min-count", "1", "--null-trials", "1000", "--fit-window", "1:3",
                "--eigen-lo", "1", "--eigen-hi", str(eigen_hi)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code != 5, err.getvalue()
        for path in out.iterdir() if out.exists() else ():
            for token in re.split(r"[\s,=()]+", path.read_text()):
                try:
                    assert not math.isinf(float(token)), f"{path.name}: {token}"
                except ValueError:
                    pass
        if (out / "fig2.csv").exists():
            # a NaN stock kurtosis in bin k comes with validation.txt's warning of bin k
            _, fig2 = read_stage_table(out / "fig2.csv", bin=int, stock_kurtosis=float)
            nan_bins = {k for k, v in zip(fig2["bin"], fig2["stock_kurtosis"]) if math.isnan(v)}
            flat = re.search(r"same return on every day, in bin\(s\) ([\d, ]+):",
                             (out / "validation.txt").read_text())
            assert nan_bins <= ({int(k) for k in flat[1].split(", ")} if flat else set())


# Every RunConfig field set away from its default; the echo text of each
# value is what the flag and the file receive.
SAMPLE = RunConfig(
    mode="prices",
    input="bars.csv",
    synth_manifest="m.cfg",
    output_dir="elsewhere",
    policy="zero-fill",
    price_convention="bin_open",
    fit_window="2:9",
    bucket_width=0.002,
    bucket_lo=-0.02,
    bucket_hi=0.04,
    min_count=7,
    eigen_lo=3,
    eigen_hi=5,
    reference_bin=2,
    null_trials=2000,
    null_quantile=0.95,
    null_seed=11,
    sanity_bound=0.25,
    include_overnight_conditioning=True,
    condition_bins=(1, 3),
)
BASE = {"mode": "returns", "input": "base.csv"}
FIELDS = [f.name for f in dataclasses.fields(RunConfig)]


def flag_of(name):
    return "--" + name.replace("_", "-")


def resolve(argv):
    return cli._resolve_config(cli._build_parser().parse_args(argv))


def subcommand_parsers():
    parser = cli._build_parser()
    (stages,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return stages.choices


def write_pairs(path, pairs):
    write_kv_lines(pairs.items(), path)
    return str(path)


class TestConfigKeys:
    def test_sample_sets_every_field(self):
        default = RunConfig()
        assert [n for n in FIELDS if getattr(SAMPLE, n) == getattr(default, n)] == []

    @pytest.mark.parametrize("name", FIELDS)
    def test_each_field_has_one_flag(self, name):
        for stage, sub in subcommand_parsers().items():
            flags = [a.option_strings for a in sub._actions if a.dest == name]
            assert flags == [[flag_of(name)]], stage

    def test_no_flag_without_a_field(self):
        for sub in subcommand_parsers().values():
            dests = {a.dest for a in sub._actions} - {"help", "config"}
            assert dests == set(FIELDS)

    @pytest.mark.parametrize("name", FIELDS)
    def test_flag_and_file_give_equal_configs(self, tmp_path, name):
        text = dict(config_echo_pairs(SAMPLE))[name]
        from_file = resolve(
            ["run", "-c", write_pairs(tmp_path / "a.cfg", {**BASE, name: text})]
        )
        base = write_pairs(tmp_path / "b.cfg", BASE)
        from_flag = resolve(["run", "-c", base, flag_of(name), text])
        assert from_file == from_flag
        assert getattr(from_flag, name) == getattr(SAMPLE, name)

    @pytest.mark.parametrize("name", FIELDS)
    def test_echo_reads_back_as_the_same_config(self, name):
        config = dataclasses.replace(
            run_config_from(parse_kv_lines(io.StringIO("mode = returns\ninput = base.csv\n"))),
            **{name: getattr(SAMPLE, name)},
        )
        buf = io.StringIO()
        write_kv_lines(config_echo_pairs(config), buf)
        assert run_config_from(parse_kv_lines(io.StringIO(buf.getvalue()))) == config

    @pytest.mark.parametrize(
        "literal, expected",
        [("yes", True), ("On", True), ("1", True), ("no", False), ("0", False)],
    )
    def test_boolean_flag_spellings(self, tmp_path, literal, expected):
        base = write_pairs(tmp_path / "b.cfg", BASE)
        config = resolve(
            ["run", "-c", base, "--include-overnight-conditioning", literal]
        )
        assert config.include_overnight_conditioning is expected

    def test_flags_alone_without_a_file(self):
        config = resolve(["run", "--mode", "returns", "--input", "x.csv"])
        assert config == RunConfig(mode="returns", input="x.csv")
