"""End-to-end CLI checks: stages, composability, determinism, exit codes."""

import argparse
import dataclasses
import io

import numpy as np
import pytest

from intraday import cli
from intraday.config import (
    RunConfig,
    config_echo_pairs,
    parse_kv_lines,
    read_run_config,
    write_kv_lines,
)
from intraday.tableio import column, read_table

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
        header, rows = read_table(tmp_path / "out" / "fig7.csv")
        assert header == [
            "bin", "overnight",
            "lambda_2", "lambda_3", "lambda_4",
            "s_2", "s_3", "s_4",
        ]
        bins = column(header, rows, "bin", int)
        assert bins == [0, 1, 2, 3, 4, 5, 6]
        flags = column(header, rows, "overnight", int)
        assert flags == [1, 0, 0, 0, 0, 0, 0]
        # the reference bin overlaps itself perfectly
        s_ref = column(header, rows, "s_2", float)[1]
        assert s_ref == pytest.approx(1.0, abs=1e-9)

    def test_null_threshold_row(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "-c", str(cfg)]) == 0
        header, rows = read_table(tmp_path / "out" / "fig7_null.csv")
        assert column(header, rows, "dim", int) == [8]
        assert column(header, rows, "subspace_dim", int) == [3]
        assert column(header, rows, "seed", int) == [3]
        threshold = column(header, rows, "threshold", float)[0]
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
        header, rows = read_table(other / "fig7_null.csv")
        assert column(header, rows, "seed", int) == [9]

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
        rows = ["date,bin,symbol,return"]
        for symbol in ("AAA", "BBB"):
            for k in (1, 2, 3):
                rows.append(f"2024-01-02,{k},{symbol},0.0{k}")
        (out / "returns_canonical.csv").write_text("\n".join(rows) + "\n")
        cfg = write_config(tmp_path)
        assert cli.main(["moments", "-c", str(cfg)]) == 4
        self.assert_single_error_line(capsys, "numeric-error")

    def test_unexpected_failure_is_internal(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "-c", str(cfg)]) == 0

        def boom(panel):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(cli, "stock_bin_moments", boom)
        assert cli.main(["moments", "-c", str(cfg)]) == 5
        self.assert_single_error_line(capsys, "internal-error")

    def test_thread_cap_env_is_validated(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path)
        monkeypatch.setenv("SEASONALITY_THREADS", "plenty")
        assert cli.main(["run", "-c", str(cfg)]) == 2
        self.assert_single_error_line(capsys, "input-error")
        monkeypatch.setenv("SEASONALITY_THREADS", "2")
        assert cli.main(["run", "-c", str(cfg)]) == 0

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--policy", "bogus"),
            ("--min-count", "abc"),
            ("--include-overnight-conditioning", "maybe"),
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

    def test_fit_window_at_the_panel_edge_is_accepted(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["run", "-c", str(cfg), "--fit-window", "4:6"]) == 0
        header, rows = read_table(tmp_path / "out" / "fig1_fit.csv")
        assert column(header, rows, "fit_hi", int) == [6]

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
        cfg = self.write_wide_config(tmp_path, eigen_hi="7")
        assert cli.main(["run", "-c", str(cfg)]) == 0
        header, rows = read_table(tmp_path / "out" / "fig7.csv")
        assert header[-1] == "s_7"
        assert column(header, rows, "s_2", float)[1] == pytest.approx(1.0, abs=1e-9)

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
        cfg = write_config(tmp_path, mode="returns", input=str(returns))
        self.assert_ingest_rejects(
            tmp_path, capsys, cfg, "returns_canonical.csv: a return rounds to a non-finite value"
        )


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
            read_run_config(io.StringIO("mode = returns\ninput = base.csv\n")),
            **{name: getattr(SAMPLE, name)},
        )
        buf = io.StringIO()
        write_kv_lines(config_echo_pairs(config), buf)
        assert read_run_config(io.StringIO(buf.getvalue())) == config

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
