"""Panel construction, table parsing, load policies, price conversion."""

import dataclasses
import datetime as dt
import io

import numpy as np
import pytest

from intraday.errors import (
    CompletenessError,
    DuplicateRowError,
    PanelFormatError,
    PriceDomainError,
)
from intraday.panel import (
    ReturnPanel,
    load_panel,
    read_return_records,
    returns_from_prices,
    validate_panel,
    write_return_records,
)

from return_rows import read_rows, rows_of


def records_for(symbols, dates, bins, value=0.001):
    out = []
    for s in symbols:
        for d in dates:
            for b in bins:
                out.append((d, b, s, value))
    return out


D1 = dt.date(2020, 1, 6)
D2 = dt.date(2020, 1, 7)
D3 = dt.date(2020, 1, 8)


class TestLoadPanel:
    def test_basic_shape_and_order(self):
        recs = records_for(["B", "A"], [D2, D1], [1, 2, 3])
        panel, report = load_panel(read_rows(recs))
        assert panel.stock_ids == ("A", "B")
        assert panel.dates == (D1, D2)
        assert panel.bins_per_day == 3
        assert not panel.overnight_present
        assert panel.returns.shape == (2, 2, 3)
        assert report.rows_read == 12
        assert (report.fills_applied, report.stocks_dropped, report.days_dropped) == (0, [], [])

    def test_row_order_irrelevant(self):
        recs = records_for(["A", "B"], [D1, D2], [1, 2])
        for i, r in enumerate(recs):
            recs[i] = (r[0], r[1], r[2], 0.001 * (i + 1))
        shuffled = list(reversed(recs))
        p1, _ = load_panel(read_rows(recs))
        p2, _ = load_panel(read_rows(shuffled))
        np.testing.assert_array_equal(p1.returns, p2.returns)

    def test_overnight_detection(self):
        recs = records_for(["A", "B"], [D1, D2], [0, 1, 2])
        by_bin = [0.001, 0.002, 0.003]
        recs = [(d, b, s, by_bin[b]) for d, b, s, _ in recs]
        panel, _ = load_panel(read_rows(recs))
        assert panel.overnight_present
        assert panel.bins_per_day == 2
        assert list(panel.bin_numbers) == [0, 1, 2]
        assert panel.returns.shape == (2, 2, 3)
        # column 0 holds the overnight bin, columns 1..K the intraday bins
        np.testing.assert_array_equal(panel.returns, np.broadcast_to(by_bin, (2, 2, 3)))

    @pytest.mark.parametrize(
        "bins, missing", [([1, 2], 0), ([1, 2], 3), ([0, 1, 2], 3), ([0, 1, 2], -1)]
    )
    def test_column_of_rejects_a_bin_the_panel_lacks(self, bins, missing):
        panel, _ = load_panel(read_rows(records_for(["A", "B"], [D1, D2], bins)))
        assert [panel.column_of(b) for b in bins] == list(range(len(bins)))
        with pytest.raises(ValueError, match=f"bin {missing} not present in panel"):
            panel.column_of(missing)

    def test_duplicate_cell_rejected(self):
        recs = records_for(["A", "B"], [D1], [1, 2])
        recs.append((D1, 1, "A", 0.5))
        with pytest.raises(DuplicateRowError, match="symbol=A"):
            load_panel(read_rows(recs))

    def test_strict_missing_cell(self):
        recs = records_for(["A", "B"], [D1, D2], [1, 2])
        del recs[3]
        with pytest.raises(CompletenessError, match="missing cell"):
            load_panel(read_rows(recs), policy="strict")

    def test_drop_incomplete_drops_day_then_stock(self):
        recs = records_for(["A", "B", "C"], [D1, D2, D3], [1, 2])
        # bin 2 of D2 missing for every symbol: day dropped
        recs = [r for r in recs if not (r[0] == D2 and r[1] == 2)]
        # stock C missing one cell on a kept day: stock dropped
        recs = [r for r in recs if not (r[0] == D3 and r[1] == 1 and r[2] == "C")]
        panel, report = load_panel(read_rows(recs), policy="drop-incomplete")
        assert panel.dates == (D1, D3)
        assert panel.stock_ids == ("A", "B")
        assert [d for d, _ in report.days_dropped] == [D2.isoformat()]
        assert [s for s, _ in report.stocks_dropped] == ["C"]

    def test_drop_incomplete_nothing_left(self):
        recs = [(D1, 1, "A", 0.1), (D2, 2, "A", 0.1)]
        with pytest.raises(CompletenessError):
            load_panel(read_rows(recs), policy="drop-incomplete")

    def test_zero_fill_counts(self):
        recs = records_for(["A", "B"], [D1, D2], [1, 2])
        del recs[0]
        panel, report = load_panel(read_rows(recs), policy="zero-fill")
        assert report.fills_applied == 1
        assert panel.returns.shape == (2, 2, 2)

    def test_negative_bin_in_hand_built_columns(self):
        # the table readers reject a negative bin first; columns built by hand reach load_panel
        columns = read_rows(records_for(["A", "B"], [D1, D2], [1, 2]))
        columns = dataclasses.replace(columns, bins=np.where(columns.bins == 2, -2, columns.bins))
        with pytest.raises(PanelFormatError, match="^negative bin -2$"):
            load_panel(columns)

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy"):
            load_panel(read_rows(records_for(["A", "B"], [D1, D2], [1])), policy="fast")

    def test_returns_are_immutable(self):
        panel, _ = load_panel(read_rows(records_for(["A", "B"], [D1, D2], [1, 2])))
        with pytest.raises(ValueError):
            panel.returns[0, 0, 0] = 1.0


class TestReturnTableParsing:
    def test_csv_roundtrip(self, tmp_path):
        recs = records_for(["A", "B"], [D1, D2], [0, 1, 2])
        for i, r in enumerate(recs):
            recs[i] = (r[0], r[1], r[2], (i - 5) * 1.25e-4)
        path = tmp_path / "r.csv"
        panel, _ = load_panel(read_rows(recs))
        written = write_return_records(panel, path)
        text = path.read_text()
        assert text.startswith("# schema-version: 1\n")
        back = read_return_records(path)
        assert sorted(rows_of(back)) == sorted(recs)
        np.testing.assert_array_equal(written, panel.returns)

    def test_byte_order_mark_accepted(self, tmp_path):
        # as a spreadsheet's "CSV UTF-8" export saves it
        recs = records_for(["A", "B"], [D1, D2], [1, 2])
        lines = ["date,bin,symbol,return"]
        lines += [f"{d.isoformat()},{b},{s},{v}" for d, b, s, v in recs]
        path = tmp_path / "bom.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbfdate,")
        assert sorted(rows_of(read_return_records(path))) == sorted(recs)

    def test_comments_and_column_order(self):
        text = (
            "# a comment\n"
            "symbol,return,date,bin\n"
            "A,0.01,2020-01-06,1\n"
            "# another\n"
            "B,-0.02,2020-01-06,1\n"
        )
        recs = rows_of(read_return_records(io.StringIO(text)))
        assert recs == [(D1, 1, "A", 0.01), (D1, 1, "B", -0.02)]

    def test_bad_rows_carry_line_numbers(self):
        cases = [
            ("date,bin,symbol,return\n2020-13-40,1,A,0.1\n", "bad date"),
            ("date,bin,symbol,return\n2020-01-06,x,A,0.1\n", "bad bin"),
            ("date,bin,symbol,return\n2020-01-06,-1,A,0.1\n", "negative bin"),
            ("date,bin,symbol,return\n2020-01-06,1,A,oops\n", "bad return"),
            ("date,bin,symbol,return\n2020-01-06,1,A,inf\n", "non-finite"),
            ("date,bin,symbol,return\n2020-01-06,1,,0.1\n", "empty symbol"),
        ]
        for text, msg in cases:
            with pytest.raises(PanelFormatError, match="row 2.*" + msg) as exc:
                read_return_records(io.StringIO(text))
            assert exc.value.row_number == 2

    def test_missing_column(self):
        with pytest.raises(PanelFormatError, match="lacks required column"):
            read_return_records(io.StringIO("date,bin,symbol\n"))

    def test_empty_input(self):
        with pytest.raises(PanelFormatError, match="no header"):
            read_return_records(io.StringIO(""))

    def test_width_mismatch(self):
        text = "date,bin,symbol,return\n2020-01-06,1,A\n"
        with pytest.raises(PanelFormatError, match="expected 4 fields"):
            read_return_records(io.StringIO(text))


class TestPriceConversion:
    @staticmethod
    def price_csv(rows):
        head = "date,time,symbol,price\n"
        return io.StringIO(head + "\n".join(",".join(map(str, r)) for r in rows))

    def test_close_to_close(self):
        rows = [
            ("2020-01-06", "10:00", "A", 100.0),
            ("2020-01-06", "11:00", "A", 110.0),
            ("2020-01-07", "10:00", "A", 121.0),
            ("2020-01-07", "11:00", "A", 133.1),
        ]
        recs = returns_from_prices(self.price_csv(rows), "close_to_close")
        by_key = {(r[0], r[1]): r[3] for r in rows_of(recs)}
        # day 1 has only the within-day bin; bin 1 of day 2 spans the close
        assert set(by_key) == {(D1, 2), (D2, 1), (D2, 2)}
        assert by_key[(D1, 2)] == pytest.approx(0.10)
        assert by_key[(D2, 1)] == pytest.approx(0.10)
        assert by_key[(D2, 2)] == pytest.approx(0.10)

    def test_bin_open_overnight(self):
        rows = [
            ("2020-01-06", "09:30", "A", 100.0),
            ("2020-01-06", "10:00", "A", 102.0),
            ("2020-01-06", "10:30", "A", 104.04),
            ("2020-01-07", "09:30", "A", 105.0),
            ("2020-01-07", "10:00", "A", 107.1),
            ("2020-01-07", "10:30", "A", 109.242),
        ]
        recs = returns_from_prices(self.price_csv(rows), "bin_open")
        by_key = {(r[0], r[1]): r[3] for r in rows_of(recs)}
        assert set(by_key) == {(D1, 1), (D1, 2), (D2, 0), (D2, 1), (D2, 2)}
        assert by_key[(D1, 1)] == pytest.approx(0.02)
        assert by_key[(D2, 0)] == pytest.approx(105.0 / 104.04 - 1)
        assert by_key[(D2, 1)] == pytest.approx(0.02)

    def test_nonpositive_price(self):
        rows = [
            ("2020-01-06", "10:00", "A", 100.0),
            ("2020-01-06", "11:00", "A", -1.0),
        ]
        with pytest.raises(PriceDomainError):
            returns_from_prices(self.price_csv(rows), "close_to_close")

    def test_uneven_grid_rejected(self):
        rows = [
            ("2020-01-06", "10:00", "A", 100.0),
            ("2020-01-06", "11:00", "A", 101.0),
            ("2020-01-07", "10:00", "A", 102.0),
            ("2020-01-07", "11:30", "A", 103.0),
        ]
        with pytest.raises(CompletenessError, match="uniform bar clock"):
            returns_from_prices(self.price_csv(rows), "close_to_close")

    def test_stamps_ordered_by_time_not_text(self):
        # "1045" is 10:45, though as text it sorts before "10:00"
        rows = [
            ("2020-01-06", "10:00", "A", 100.0),
            ("2020-01-06", "1045", "A", 110.0),
            ("2020-01-06", "11:00", "A", 121.0),
        ]
        recs = returns_from_prices(self.price_csv(rows), "close_to_close")
        assert {r[1]: r[3] for r in rows_of(recs)} == pytest.approx({2: 0.10, 3: 0.10})

    def test_one_instant_written_two_ways_is_a_duplicate(self):
        rows = [
            ("2020-01-06", "10:00", "A", 100.0),
            ("2020-01-06", "11:00", "A", 101.0),
            ("2020-01-06", "10:00:00", "A", 102.0),
        ]
        with pytest.raises(DuplicateRowError, match="^duplicate stamp A 2020-01-06 10:00:00$"):
            returns_from_prices(self.price_csv(rows), "close_to_close")

    def test_unknown_convention(self):
        with pytest.raises(ValueError, match="convention"):
            returns_from_prices(self.price_csv([]), "open_to_open")


class TestValidation:
    def test_clean_panel_ok(self):
        panel, _ = load_panel(read_rows(records_for(["A", "B"], [D1, D2], [1, 2])))
        report = validate_panel(panel)
        assert report.ok
        assert report.lines()[0] == "ok = true"

    def test_sanity_bound_flags_wild_returns(self):
        recs = records_for(["A", "B"], [D1, D2], [1, 2])
        recs[0] = (recs[0][0], recs[0][1], recs[0][2], 0.9)
        panel, _ = load_panel(read_rows(recs))
        report = validate_panel(panel, sanity_bound=0.5)
        # wild prints are suspicious, not fatal: the panel stays usable
        assert report.ok
        assert any("|return| > 0.5" in w and "(A, " in w for w in report.warnings)

    @pytest.mark.parametrize(
        "stocks, dates, violation",
        [
            (("A",), (D1, D2), "need at least 2 stocks, have 1"),
            (("A", "B"), (D1,), "need at least 2 days, have 1"),
            (("A", "B"), (), "need at least 2 days, have 0"),
            (("A", "B"), (D1, D3, D2),
             "dates not strictly increasing at index 2 (2020-01-08 -> 2020-01-07)"),
            (("A", "A"), (D1, D2), "duplicate stock ids"),
        ],
    )
    def test_structural_violations(self, stocks, dates, violation):
        # a hand-built panel: load_panel gives none of these
        panel = ReturnPanel(np.zeros((len(stocks), len(dates), 2)), stocks, dates, 2, False)
        report = validate_panel(panel)
        assert report.violations == [violation]
        assert not report.ok

    def test_reports_count_every_cell_and_name_the_first(self):
        # 12 non-finite cells then 12 wild ones, in (stock, day, bin) order;
        # B's wild return is the same on both days in each of its 6 bins
        returns = np.r_[[np.nan] * 11, np.inf, [0.9] * 12].reshape(2, 2, 6)
        panel = ReturnPanel(returns, ("A", "B"), (D1, D2), 5, overnight_present=True)
        cells = [
            f"({s}, {d.isoformat()}, bin {k})" for s in "AB" for d in (D1, D2) for k in range(6)
        ]
        report = validate_panel(panel, sanity_bound=0.5)
        assert report.violations == ["12 non-finite cell(s): " + ", ".join(cells[:5])]
        assert report.warnings == [
            "12 cell(s) with |return| > 0.5: " + ", ".join(cells[12:22]),
            "6 (stock, bin) series with the same return on every day, in bin(s) 0, 1, 2, 3, 4, "
            "5: " + ", ".join(f"(B, bin {k})" for k in range(6)),
        ]

    def test_each_flat_stock_and_bin_is_counted_and_the_first_named(self):
        # bin 2 is 0 for all 12 stocks on both days, bin 1 only for B, bin 3 for none
        returns = np.zeros((12, 2, 3))
        returns[:, 1] = 0.01
        returns[:, 1, 1] = returns[1, 1, 0] = 0.0
        ids = ("A", "B", *(f"C{i}" for i in range(10)))
        report = validate_panel(ReturnPanel(returns, ids, (D1, D2), 3, False))
        named = ["(A, bin 2)", "(B, bin 1)", "(B, bin 2)"] + [f"(C{i}, bin 2)" for i in range(7)]
        assert report.ok
        assert report.warnings == [
            "13 (stock, bin) series with the same return on every day, in bin(s) 1, 2: "
            + ", ".join(named)
        ]


class TestRecordsRoundtrip:
    def test_shape_metadata_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            ReturnPanel(
                returns=np.zeros((2, 2, 3)),
                stock_ids=("A", "B"),
                dates=(D1, D2),
                bins_per_day=4,
                overnight_present=False,
            )

    def test_no_intraday_bin(self):
        # the overnight column alone matches the shape, so the bin count is what fails
        with pytest.raises(ValueError, match="^bins_per_day must be >= 1$"):
            ReturnPanel(np.zeros((2, 2, 1)), ("A", "B"), (D1, D2), 0, overnight_present=True)
