"""Config parsing, run-config validation and versioned table IO."""

import io
import math

import pytest

from intraday.config import (
    LOAD_POLICIES,
    PRICE_CONVENTIONS,
    RunConfig,
    config_echo_pairs,
    format_float,
    parse_kv_lines,
    run_config_from,
    write_kv_lines,
)
from intraday.errors import PanelFormatError, SchemaError
from intraday.synth import GeneratorManifest, read_manifest
from intraday.tableio import format_cell, read_columns, write_table


class TestKvLines:
    def test_parse_basic(self):
        text = "a = 1\n\n# comment\nb=two words\n  c  =  3  \n"
        assert parse_kv_lines(io.StringIO(text)) == {
            "a": "1",
            "b": "two words",
            "c": "3",
        }

    def test_parse_reads_files(self, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_text("k = v\n")
        assert parse_kv_lines(path) == {"k": "v"}

    def test_parse_reads_files_with_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "bom.cfg"
        path.write_text("mode = synth\nk = v\n", encoding="utf-8-sig")
        assert parse_kv_lines(path) == {"mode": "synth", "k": "v"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(PanelFormatError, match="duplicate key") as exc:
            parse_kv_lines(io.StringIO("a = 1\na = 2\n"))
        assert exc.value.row_number == 2

    def test_line_without_equals_rejected(self):
        with pytest.raises(PanelFormatError, match="key = value"):
            parse_kv_lines(io.StringIO("just some text\n"))

    def test_empty_key_rejected(self):
        with pytest.raises(PanelFormatError, match="empty key"):
            parse_kv_lines(io.StringIO("= 3\n"))

    def test_write_then_parse_roundtrip(self):
        pairs = [("alpha", "1"), ("beta", "x y"), ("# note", "ignored")]
        buf = io.StringIO()
        write_kv_lines(pairs, buf)
        text = buf.getvalue()
        assert "# note = ignored" in text
        assert parse_kv_lines(io.StringIO(text)) == {"alpha": "1", "beta": "x y"}

    def test_write_to_file(self, tmp_path):
        path = tmp_path / "out.cfg"
        write_kv_lines([("k", "v")], path)
        assert path.read_text() == "k = v\n"


class TestFormatFloat:
    def test_ten_significant_digits(self):
        assert format_float(1.0 / 3.0) == "0.3333333333"

    def test_integers_stay_short(self):
        assert format_float(2.0) == "2"

    def test_negative_zero_folds(self):
        assert format_float(-0.0) == "0"


class TestRunConfig:
    def test_defaults_fail_without_manifest(self):
        with pytest.raises(ValueError, match="synth_manifest"):
            RunConfig().validate()

    def test_synth_mode_ok_with_manifest(self):
        RunConfig(synth_manifest="m.cfg").validate()

    def test_data_modes_require_input(self):
        with pytest.raises(ValueError, match="requires input"):
            RunConfig(mode="returns").validate()
        RunConfig(mode="returns", input="r.csv").validate()
        RunConfig(mode="prices", input="p.csv").validate()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(mode="live"), "mode"),
            (dict(policy="guess"), "policy"),
            (dict(price_convention="vwap"), "price_convention"),
            (dict(fit_window="whenever"), "fit_window"),
            (dict(fit_window="5:2"), "fit_window"),
            (dict(bucket_width=0.0), "bucket_width"),
            (dict(bucket_width=1e-18), "bucket_width"),
            (dict(bucket_lo=0.01, bucket_hi=0.01), "hi > lo"),
            (dict(min_count=0), "min_count"),
            (dict(eigen_lo=0), "eigen"),
            (dict(eigen_lo=5, eigen_hi=4), "eigen"),
            (dict(reference_bin=-1), "reference_bin"),
            (dict(null_trials=10), "null_trials"),
            (dict(null_quantile=1.0), "null_quantile"),
            (dict(sanity_bound=0.0), "sanity_bound"),
        ],
    )
    def test_validation_failures(self, overrides, message):
        config = RunConfig(synth_manifest="m.cfg", input="r.csv", **overrides)
        with pytest.raises(ValueError, match=message):
            config.validate()

    def test_explicit_fit_range_accepted(self):
        RunConfig(synth_manifest="m.cfg", fit_window="2:9").validate()

    def test_fit_range_resolution(self):
        config = RunConfig(fit_window="first_half")
        assert config.fit_range_for(78) == (1, 39)
        config.fit_window = "first_two_hours"
        assert config.fit_range_for(78) == (1, 24)
        config.fit_window = "3:11"
        assert config.fit_range_for(78) == (3, 11)


class TestReadRunConfig:
    def test_types_and_overrides(self):
        text = (
            "mode = returns\ninput = bars.csv\nbucket_width = 0.002\n"
            "min_count = 25\nnull_quantile = 0.95\n"
            "include_overnight_conditioning = true\ncondition_bins = 1, 3 ,5\n"
        )
        config = run_config_from(parse_kv_lines(io.StringIO(text)))
        assert config.mode == "returns"
        assert config.bucket_width == pytest.approx(0.002)
        assert config.min_count == 25
        assert config.null_quantile == pytest.approx(0.95)
        assert config.include_overnight_conditioning is True
        assert config.condition_bins == (1, 3, 5)

    @pytest.mark.parametrize("literal, expected", [
        ("true", True), ("Yes", True), ("1", True), ("on", True),
        ("false", False), ("No", False), ("0", False), ("off", False),
    ])
    def test_boolean_spellings(self, literal, expected):
        text = (
            "synth_manifest = m.cfg\n"
            f"include_overnight_conditioning = {literal}\n"
        )
        config = run_config_from(parse_kv_lines(io.StringIO(text)))
        assert config.include_overnight_conditioning is expected

    def test_bad_boolean(self):
        text = "synth_manifest = m.cfg\ninclude_overnight_conditioning = maybe\n"
        with pytest.raises(PanelFormatError, match="bad boolean"):
            run_config_from(parse_kv_lines(io.StringIO(text)))

    def test_unknown_key(self):
        with pytest.raises(PanelFormatError, match="unknown config key"):
            run_config_from(parse_kv_lines(io.StringIO("synth_manifest = m.cfg\nspeed = 11\n")))

    def test_unknown_keys_are_named_together(self):
        extras = [("speed = 11\n", "['speed']"), ("warp = 9\nspeed = 11\n", "['speed', 'warp']")]
        for extra, named in extras:
            text = "synth_manifest = m.cfg\n" + extra
            with pytest.raises(PanelFormatError) as exc:
                run_config_from(parse_kv_lines(io.StringIO(text)))
            assert str(exc.value) == f"unknown config key(s) {named}"

    def test_bad_numeric_value(self):
        text = "synth_manifest = m.cfg\nmin_count = lots\n"
        with pytest.raises(PanelFormatError, match="bad value for min_count"):
            run_config_from(parse_kv_lines(io.StringIO(text)))

    def test_invalid_config_becomes_format_error(self):
        with pytest.raises(PanelFormatError, match="mode"):
            run_config_from(parse_kv_lines(io.StringIO("mode = live\ninput = x.csv\n")))

    def test_empty_condition_bins_means_all(self):
        text = "synth_manifest = m.cfg\ncondition_bins = \n"
        config = run_config_from(parse_kv_lines(io.StringIO(text)))
        assert config.condition_bins is None


MANIFEST = (
    "n_stocks = 4\nn_days = 10\nbins_per_day = 3\nfactor_vol = 0.002\ntarget_correlation = 0.3\n"
)


class TestChoiceKeys:
    """Each choice key's values come from its ``Literal`` annotation, and a
    value outside them gets the message its own check once wrote."""

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("mode", "live", "mode 'live' not in ('synth', 'returns', 'prices')"),
            (
                "policy",
                "guess",
                "policy 'guess' not in ('strict', 'drop-incomplete', 'zero-fill')",
            ),
            (
                "price_convention",
                "vwap",
                "price_convention 'vwap' not in ('close_to_close', 'bin_open')",
            ),
        ],
    )
    def test_run_config_choice(self, key, value, message):
        with pytest.raises(ValueError) as exc:
            RunConfig(synth_manifest="m.cfg", input="r.csv", **{key: value}).validate()
        assert str(exc.value) == message
        text = f"synth_manifest = m.cfg\ninput = r.csv\n{key} = {value}\n"
        with pytest.raises(PanelFormatError) as exc:
            run_config_from(parse_kv_lines(io.StringIO(text)))
        assert str(exc.value) == message

    def test_manifest_residual_tail(self):
        message = "residual_tail 'cauchy' not in ('gaussian', 'student')"
        with pytest.raises(ValueError) as exc:
            GeneratorManifest(4, 10, 3, 0.002, 0.3, residual_tail="cauchy").validate()
        assert str(exc.value) == message
        with pytest.raises(PanelFormatError) as exc:
            read_manifest(io.StringIO(MANIFEST + "residual_tail = cauchy\n"))
        assert str(exc.value) == message

    def test_the_panel_loaders_choices(self):
        assert LOAD_POLICIES == ("strict", "drop-incomplete", "zero-fill")
        assert PRICE_CONVENTIONS == ("close_to_close", "bin_open")

    def test_unknown_manifest_keys_are_named_together(self):
        with pytest.raises(PanelFormatError) as exc:
            read_manifest(io.StringIO(MANIFEST + "warp_speed = 9\nseeds = 2\n"))
        assert str(exc.value) == "unknown manifest key(s) ['seeds', 'warp_speed']"


class TestConfigEcho:
    def test_echo_covers_every_field_and_roundtrips(self):
        config = RunConfig(
            mode="synth",
            synth_manifest="m.cfg",
            bucket_width=0.002,
            condition_bins=(1, 2),
            include_overnight_conditioning=True,
        )
        pairs = config_echo_pairs(config)
        keys = [k for k, _ in pairs]
        assert keys == [
            "mode", "input", "synth_manifest", "output_dir", "policy",
            "price_convention", "fit_window", "bucket_width", "bucket_lo",
            "bucket_hi", "min_count", "eigen_lo", "eigen_hi", "reference_bin",
            "null_trials", "null_quantile", "null_seed", "sanity_bound",
            "include_overnight_conditioning", "condition_bins",
        ]
        echo = dict(pairs)
        assert echo["input"] == ""
        assert echo["bucket_width"] == "0.002"
        assert echo["include_overnight_conditioning"] == "true"
        assert echo["condition_bins"] == "1,2"


class TestTableIO:
    def test_roundtrip_with_types(self):
        buf = io.StringIO()
        write_table(buf, {"name": ["a"], "n": [3], "x": [0.5], "flag": [True]})
        text = buf.getvalue()
        assert text.startswith("# schema-version: 1\n")
        kinds = dict.fromkeys(["name", "n", "x", "flag"], str)
        header, columns = read_columns(io.StringIO(text), kinds, versioned=True)
        assert header == ["name", "n", "x", "flag"]
        assert [column.tolist() for column in columns] == [["a"], ["3"], ["0.5"], ["1"]]

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, {"x": [1.5, 2.5]})
        _, (x,) = read_columns(path, {"x": float}, versioned=True)
        assert x.tolist() == [1.5, 2.5]

    def test_floats_write_at_ten_digits(self):
        buf = io.StringIO()
        write_table(buf, {"x": [1.0 / 3.0]})
        assert "0.3333333333" in buf.getvalue()

    def test_nan_reads_as_nan(self):
        buf = io.StringIO()
        write_table(buf, {"x": [math.nan]})
        _, (x,) = read_columns(io.StringIO(buf.getvalue()), {"x": str}, versioned=True)
        assert x.tolist() == ["nan"]

    def test_column_length_mismatch(self):
        with pytest.raises(ValueError, match="column lengths differ"):
            write_table(io.StringIO(), {"a": [1], "b": [1, 2]})

    def test_missing_version_line(self):
        with pytest.raises(SchemaError, match="schema-version"):
            read_columns(io.StringIO("a,b\n1,2\n"), {"a": str}, versioned=True)

    def test_unsupported_version(self):
        with pytest.raises(SchemaError, match="version 2 unsupported"):
            read_columns(io.StringIO("# schema-version: 2\na\n1\n"), {"a": str}, versioned=True)

    def test_garbled_version(self):
        with pytest.raises(SchemaError, match="bad schema version"):
            read_columns(io.StringIO("# schema-version: next\na\n1\n"), {"a": str}, versioned=True)

    def test_empty_table_body(self):
        with pytest.raises(SchemaError, match="no header"):
            read_columns(io.StringIO("# schema-version: 1\n"), {"a": str}, versioned=True)

    def test_required_columns(self):
        text = "# schema-version: 1\na,b\n1,2\n"
        with pytest.raises(SchemaError, match="required column"):
            read_columns(io.StringIO(text), {"a": str, "z": str}, versioned=True)

    def test_comment_rows_skipped(self):
        text = "# schema-version: 1\n# note\na\n# another\n1\n"
        header, columns = read_columns(io.StringIO(text), {"a": str}, versioned=True)
        assert header == ["a"]
        assert [column.tolist() for column in columns] == [["1"]]
        # a quote inside an unquoted cell is a literal: it opens no quoted
        # cell, so the "#" line after it is still a comment
        text = '# schema-version: 1\nsymbol,x\nA"B,1\n# note\nC,2\n'
        kinds = {"symbol": str, "x": str}
        header, columns = read_columns(io.StringIO(text), kinds, versioned=True)
        assert (header, [column.tolist() for column in columns]) == (
            ["symbol", "x"],
            [['A"B', "C"], ["1", "2"]],
        )

    def test_missing_column_extraction(self):
        text = "# schema-version: 1\na\n1\n"
        with pytest.raises(SchemaError, match=r"lacks required column\(s\) \['z'\]"):
            read_columns(io.StringIO(text), {"z": float}, versioned=True)

    def test_format_cell_conventions(self):
        assert format_cell("sym") == "sym"
        assert format_cell(7) == "7"
        assert format_cell("B,C") == '"B,C"'
        assert format_cell('say "hi"') == '"say ""hi"""'
        assert format_cell("#A") == '"#A"'
        assert format_cell("a\nb") == '"a\nb"'
