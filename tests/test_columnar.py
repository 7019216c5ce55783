"""The columnar table paths against the row-by-row code they replaced.

``oracle_read`` and ``oracle_load`` are the ``csv.reader``-based parser and
the dict-based assembly that the columnar return path replaced, and
``oracle_prices`` the row-by-row price reader and conversion, kept as the
reference: for any table, the new path must return the same rows and panel,
or raise the same error with the same row number.
"""

import csv
import datetime as dt
import io
import math
import os
import random
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intraday import cli, panel as panel_module, tableio as tableio_module
from intraday.config import write_kv_lines
from intraday.errors import (
    CompletenessError,
    DuplicateRowError,
    PanelFormatError,
    PriceDomainError,
)
from intraday.panel import (
    ReturnColumns,
    load_panel,
    panel_to_records,
    read_return_records,
    returns_from_prices,
    write_return_records,
)
from intraday.tableio import column, read_table, write_table


# --- oracle: the row-by-row reader and assembly --------------------------------


def _open_text(source):
    if isinstance(source, (str, os.PathLike)):
        return open(source, "r", newline="", encoding="utf-8"), True
    return source, False


def _parse_table(source, columns):
    handle, owned = _open_text(source)
    try:
        reader = csv.reader(handle)
        header = None
        for row in reader:
            if not row or (row[0].lstrip().startswith("#") and len(row) >= 1):
                continue
            header = [name.strip() for name in row]
            break
        if header is None:
            raise PanelFormatError("empty input, no header row found")
        try:
            order = [header.index(name) for name in columns]
        except ValueError:
            missing = [name for name in columns if name not in header]
            raise PanelFormatError(
                f"header {header} lacks required column(s) {missing}"
            ) from None
        width = len(header)
        for row in reader:
            if not row or row[0].lstrip().startswith("#"):
                continue
            if len(row) != width:
                raise PanelFormatError(
                    f"expected {width} fields, got {len(row)}", reader.line_num
                )
            yield reader.line_num, [row[i].strip() for i in order]
    finally:
        if owned:
            handle.close()


def oracle_read(source):
    records = []
    for line_num, (date_s, bin_s, symbol, value_s) in _parse_table(
        source, ("date", "bin", "symbol", "return")
    ):
        try:
            date = dt.date.fromisoformat(date_s)
        except ValueError:
            raise PanelFormatError(f"bad date {date_s!r}", line_num) from None
        try:
            bin_number = int(bin_s)
        except ValueError:
            raise PanelFormatError(f"bad bin {bin_s!r}", line_num) from None
        if bin_number < 0:
            raise PanelFormatError(f"negative bin {bin_number}", line_num)
        try:
            value = float(value_s)
        except ValueError:
            raise PanelFormatError(f"bad return {value_s!r}", line_num) from None
        if not np.isfinite(value):
            raise PanelFormatError(f"non-finite return {value_s!r}", line_num)
        if not symbol:
            raise PanelFormatError("empty symbol", line_num)
        records.append((date, bin_number, symbol, value))
    return records


def oracle_load(source, policy="strict"):
    """Returns (returns array, stock_ids, dates, bins_per_day, overnight,
    report lines) as the dict-based assembly built them."""
    records = oracle_read(source)
    lines = [f"rows_read = {len(records)}"]
    if not records:
        raise CompletenessError("no data rows")
    cells = {}
    for date, bin_number, symbol, value in records:
        key = (date, bin_number, symbol)
        if key in cells:
            raise DuplicateRowError(
                f"duplicate cell date={date.isoformat()} bin={bin_number} symbol={symbol}"
            )
        cells[key] = value
    dates = sorted({key[0] for key in cells})
    symbols = sorted({key[2] for key in cells})
    bins_seen = {key[1] for key in cells}
    overnight = 0 in bins_seen
    k_max = max(bins_seen)
    if k_max < 1:
        raise CompletenessError("no intraday bins (only bin 0 present)")
    expected_bins = list(range(0 if overnight else 1, k_max + 1))
    days_dropped, stocks_dropped = [], []
    if policy == "strict":
        for date in dates:
            for bin_number in expected_bins:
                for symbol in symbols:
                    if (date, bin_number, symbol) not in cells:
                        raise CompletenessError(
                            f"missing cell date={date.isoformat()} "
                            f"bin={bin_number} symbol={symbol}"
                        )
    elif policy == "drop-incomplete":
        kept_dates = []
        for date in dates:
            gap_bins = [
                b
                for b in expected_bins
                if not any((date, b, s) in cells for s in symbols)
            ]
            if gap_bins:
                days_dropped.append((date.isoformat(), f"no symbol has bin(s) {gap_bins}"))
            else:
                kept_dates.append(date)
        dates = kept_dates
        if dates:
            kept_symbols = []
            for symbol in symbols:
                missing = sum(
                    1
                    for date in dates
                    for b in expected_bins
                    if (date, b, symbol) not in cells
                )
                if missing:
                    stocks_dropped.append((symbol, f"{missing} missing cell(s) on kept days"))
                else:
                    kept_symbols.append(symbol)
            symbols = kept_symbols
        if not dates or not symbols:
            raise CompletenessError("no complete days/stocks remain under drop-incomplete")
    array = np.zeros((len(symbols), len(dates), len(expected_bins)))
    date_index = {d: i for i, d in enumerate(dates)}
    symbol_index = {s: i for i, s in enumerate(symbols)}
    offset = 0 if overnight else 1
    filled = np.zeros(array.shape, dtype=bool)
    for (date, bin_number, symbol), value in cells.items():
        t = date_index.get(date)
        a = symbol_index.get(symbol)
        if t is None or a is None:
            continue
        array[a, t, bin_number - offset] = value
        filled[a, t, bin_number - offset] = True
    n_missing = int(filled.size - filled.sum())
    lines.append(f"fills_applied = {n_missing}")
    lines.append(f"stocks_dropped = {len(stocks_dropped)}")
    lines.extend(f"  {sym}: {why}" for sym, why in stocks_dropped)
    lines.append(f"days_dropped = {len(days_dropped)}")
    lines.extend(f"  {day}: {why}" for day, why in days_dropped)
    if n_missing:
        lines.append(f"warning: zero-filled {n_missing} missing cell(s)")
    return array, tuple(symbols), tuple(dates), k_max, overnight, lines


def outcome(fn):
    """A call's result, or its error as (type, message, row number)."""
    try:
        return "ok", fn()
    except (
        PanelFormatError,
        DuplicateRowError,
        CompletenessError,
        PriceDomainError,
        csv.Error,
    ) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "row_number", None)


def new_load(source, policy):
    panel, report = load_panel(source, policy=policy)
    return (
        panel.returns,
        panel.stock_ids,
        panel.dates,
        panel.bins_per_day,
        panel.overnight_present,
        report.lines(),
    )


def same_load(a, b):
    if a[0] != "ok" or b[0] != "ok":
        return a == b
    (arr_a, *meta_a), (arr_b, *meta_b) = a[1], b[1]
    same_array = arr_a.shape == arr_b.shape and arr_a.tobytes() == arr_b.tobytes()
    return same_array and meta_a == meta_b


# --- generated tables ------------------------------------------------------------

COLUMNS = ("date", "bin", "symbol", "return")
BAD_TEXT = ("", "x", "-1", "nan", "inf", "2020-13-01", "1.5", "1e999", "#", " ")
PAD = st.sampled_from(["", " ", "  ", "\t"])


def _quote(text):
    return '"' + text.replace('"', '""') + '"'


@st.composite
def return_tables(draw):
    symbols = draw(
        st.lists(
            st.text("AB ,\"#é\n\r", min_size=1, max_size=3),
            min_size=1,
            max_size=3,
            unique_by=str.strip,
        )
    )
    n_days = draw(st.integers(1, 3))
    dates = [dt.date(2020, 1, 6) + dt.timedelta(days=i) for i in range(n_days)]
    bins = draw(st.sampled_from([[1], [1, 2], [0, 1, 2], [0, 1], [0]]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    cells = [(d, b, s) for d in dates for b in bins for s in symbols]
    drop_rate = draw(st.sampled_from([0.0, 0.1, 0.4]))
    cells = [c for c in cells if rng.random() >= drop_rate]
    cells += rng.sample(cells, min(len(cells), draw(st.sampled_from([0, 0, 0, 1]))))
    rng.shuffle(cells)

    header = list(COLUMNS) + draw(st.sampled_from([[], ["x"], ["note", "x"]]))
    rng.shuffle(header)
    rows = []
    for date, bin_number, symbol in cells:
        value = rng.choice([0.0, -0.0, 1.25e-4, -0.0375, rng.gauss(0.0, 0.01)])
        text = {
            "date": date.isoformat(),
            "bin": str(bin_number),
            "symbol": symbol,
            "return": rng.choice([repr(value), f"{value:.10g}"]),
            "x": rng.choice(["1", "", "a b"]),
            "note": rng.choice(["n", '"q"', "c,d"]),
        }
        rows.append([text[name] for name in header])
    if rows and draw(st.booleans()):
        # one bad field, or a row with a field too many or too few
        row = rng.choice(rows)
        if rng.random() < 0.125:
            row.append("extra")
        elif rng.random() < 0.125:
            row.pop()
        else:
            row[rng.randrange(len(row))] = rng.choice(BAD_TEXT)

    quote_rate = draw(st.sampled_from([0.0, 0.0, 0.3]))
    pad = draw(PAD)

    def field_text(text):
        if any(c in text for c in ',"\r\n') or rng.random() < quote_rate:
            return _quote(text)
        return pad + text + pad if rng.random() < 0.3 else text

    lines = [",".join(field_text(h) for h in header)]
    lines += [",".join(field_text(f) for f in row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(
            rng.randrange(len(lines) + 1),
            rng.choice(["# comment", "  # indented, comment", "", "#,,,"]),
        )
    eol = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = eol.join(lines) + (eol if draw(st.booleans()) else "")
    return text


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    text=return_tables(),
    chunk_bytes=st.sampled_from([1, 40, 200, 4 << 20]),
    newline=st.sampled_from(["\n", ""]),
)
def test_reader_and_assembly_match_the_row_parser(text, chunk_bytes, newline):
    """Same rows, panels, reports and errors as the csv.reader path, under
    every policy, chunk size and line splitting."""
    def source():
        return io.StringIO(text, newline=newline)

    with mock.patch.object(panel_module, "CHUNK_BYTES", chunk_bytes):
        got = outcome(lambda: list(read_return_records(source())))
        assert got == outcome(lambda: oracle_read(source()))
        for policy in ("strict", "drop-incomplete", "zero-fill"):
            got = outcome(lambda: new_load(source(), policy))
            want = outcome(lambda: oracle_load(source(), policy))
            assert same_load(got, want), (policy, got, want)


# --- errors past the first chunk -------------------------------------------------


def _long_table(n_days=10, symbols=("A", "B"), bins=(1, 2)):
    """Header, a comment, then rows: line n holds the (n-3)-th cell."""
    lines = ["date,bin,symbol,return", "# leading comment"]
    for i in range(n_days):
        date = (dt.date(2020, 1, 6) + dt.timedelta(days=i)).isoformat()
        for b in bins:
            for s in symbols:
                lines.append(f"{date},{b},{s},0.00{b}")
    return lines


LATE_ERRORS = [
    (0, "2020-02-30", "bad date"),
    (1, "x", "bad bin"),
    (1, "-2", "negative bin"),
    (3, "oops", "bad return"),
    (3, "-inf", "non-finite return"),
    (2, "  ", "empty symbol"),
]


@pytest.mark.parametrize("field, text, message", LATE_ERRORS)
def test_late_bad_row_reports_its_line(field, text, message):
    lines = _long_table()
    lines.insert(20, "# a comment inside a later chunk")
    row = lines[30].split(",")
    row[field] = text
    lines[30] = ",".join(row)
    table = "\n".join(lines) + "\n"
    with mock.patch.object(panel_module, "CHUNK_BYTES", 64):
        with pytest.raises(PanelFormatError, match=f"row 31: {message}") as exc:
            read_return_records(io.StringIO(table))
    assert exc.value.row_number == 31
    assert outcome(lambda: oracle_read(io.StringIO(table)))[1] == str(exc.value)


def test_late_width_mismatch_reports_its_line():
    lines = _long_table()
    lines.insert(20, "# a comment inside a later chunk")
    lines[30] += ",extra"
    with mock.patch.object(panel_module, "CHUNK_BYTES", 64):
        with pytest.raises(PanelFormatError, match="row 31: expected 4 fields, got 5"):
            read_return_records(io.StringIO("\n".join(lines) + "\n"))


def test_bin_beyond_int64_is_rejected_with_its_line():
    huge = "9" * 20
    table = f"date,bin,symbol,return\n2020-01-06,1,A,0.1\n2020-01-06,{huge},A,0.1\n"
    with pytest.raises(PanelFormatError, match=f"row 3: bin {huge} out of range"):
        read_return_records(io.StringIO(table))


def test_first_bad_row_wins_within_a_chunk():
    lines = _long_table()
    lines[26] += ",extra"
    lines[24] = lines[24].replace(",A,", ",,")
    with pytest.raises(PanelFormatError, match="row 25: empty symbol"):
        read_return_records(io.StringIO("\n".join(lines) + "\n"))


def test_late_duplicate_and_gap_are_named():
    lines = _long_table()
    lines.insert(20, "# a comment inside a later chunk")
    duplicated = lines + [lines[30].replace("0.00", "0.99")]
    with mock.patch.object(panel_module, "CHUNK_BYTES", 64):
        with pytest.raises(
            DuplicateRowError, match="^duplicate cell date=2020-01-12 bin=2 symbol=B$"
        ):
            load_panel(io.StringIO("\n".join(duplicated) + "\n"))
        gappy = lines[:30] + lines[31:]
        with pytest.raises(
            CompletenessError, match="^missing cell date=2020-01-12 bin=2 symbol=B$"
        ):
            load_panel(io.StringIO("\n".join(gappy) + "\n"))


def test_duplicate_named_at_its_first_repeat():
    day = dt.date(2020, 1, 6)
    recs = [(day, 1, "B", 0.1), (day, 1, "A", 0.1), (day, 1, "A", 0.2), (day, 1, "B", 0.3)]
    with pytest.raises(DuplicateRowError, match="symbol=A$"):
        load_panel(recs)


def test_field_counts_are_checked_per_row():
    # a row with one field too many followed by one with one too few: the
    # chunk has the right number of commas, and every shifted field parses
    table = (
        "date,bin,symbol,return\n"
        "2020-01-06,1,A,0.1,2020-01-06\n"
        "1,B,0.2\n"
    )
    with pytest.raises(PanelFormatError, match="row 2: expected 4 fields, got 5"):
        read_return_records(io.StringIO(table))


# --- columns -----------------------------------------------------------------------


def test_columns_len_and_iteration():
    recs = [(dt.date(2020, 1, 7), 2, "B", -0.5), (dt.date(2020, 1, 6), 1, "A", 0.25)]
    columns = ReturnColumns.from_records(recs)
    assert len(columns) == 2
    assert list(columns) == recs
    assert len(ReturnColumns.from_records([])) == 0


def test_panel_to_records_is_canonical_text(tmp_path):
    recs = [
        (dt.date(2020, 1, 6) + dt.timedelta(days=d), b, s, 0.001 * (d + b) - 0.0)
        for s in ("B", "A")
        for d in (1, 0)
        for b in (0, 1, 2)
    ]
    panel, _ = load_panel(recs)
    write_return_records(recs, tmp_path / "from_records.csv")
    write_return_records(panel_to_records(panel), tmp_path / "from_panel.csv")
    text = (tmp_path / "from_panel.csv").read_text()
    assert text == (tmp_path / "from_records.csv").read_text()
    assert text.splitlines()[2] == "2020-01-06,0,A,0"


# --- symbols that need quoting ---------------------------------------------------

printable_symbols = st.text(
    st.characters(exclude_categories=("Cs",)), min_size=1, max_size=6
).filter(lambda s: s.isprintable() and s.strip())

ROUND_TRIP_CONFIG = """\
mode = returns
input = {input}
output_dir = {out}
min_count = 2
eigen_lo = 2
eigen_hi = 2
null_trials = 1000
"""


# A quoted cell may go on after a line break with a "#", which must not be
# read as a comment line.
broken_symbols = st.builds("{}\n#{}".format, printable_symbols, printable_symbols)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    symbols=st.lists(
        printable_symbols | broken_symbols, min_size=2, max_size=3, unique_by=str.strip
    )
)
def test_printable_symbols_survive_ingest_moments_cross_section(symbols):
    rng = np.random.default_rng(0)
    with tempfile.TemporaryDirectory() as tmp:
        source = os.path.join(tmp, "in.csv")
        with open(source, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(COLUMNS)
            for day in range(12):
                date = (dt.date(2020, 1, 6) + dt.timedelta(days=day)).isoformat()
                for b in (1, 2):
                    for s in symbols:
                        writer.writerow([date, b, s, f"{rng.normal(0, 0.01):.6f}"])
        cfg = os.path.join(tmp, "run.cfg")
        out = os.path.join(tmp, "out")
        with open(cfg, "w", encoding="utf-8") as handle:
            handle.write(ROUND_TRIP_CONFIG.format(input=source, out=out))
        for stage in ("ingest", "moments", "cross-section"):
            assert cli.main([stage, "-c", cfg]) == 0, stage
        expected = sorted(s.strip() for s in symbols)
        canonical = read_return_records(os.path.join(out, "returns_canonical.csv"))
        assert sorted(set(canonical.symbols)) == expected
        header, rows = read_table(os.path.join(out, "stock_moments.csv"))
        assert sorted(set(column(header, rows, "symbol", str))) == expected


def test_plain_symbols_are_written_bare():
    buf = io.StringIO()
    write_return_records([(dt.date(2020, 1, 6), 1, "AB.C", 0.5)], buf)
    assert buf.getvalue().splitlines()[2] == "2020-01-06,1,AB.C,0.5"
    buf = io.StringIO()
    write_return_records([(dt.date(2020, 1, 6), 1, 'B,"C"', 0.5)], buf)
    assert buf.getvalue().splitlines()[2] == '2020-01-06,1,"B,""C""",0.5'


def test_table_cells_quoted_only_when_needed():
    buf = io.StringIO()
    write_table(buf, ["symbol", "x"], [["#A", 1], ["B,C", 2], ["D", 3]])
    assert buf.getvalue().splitlines()[2:] == ['"#A",1', '"B,C",2', "D,3"]
    header, rows = read_table(io.StringIO(buf.getvalue()))
    assert rows == [["#A", "1"], ["B,C", "2"], ["D", "3"]]


# --- atomic writes ---------------------------------------------------------------


class Boom(Exception):
    pass


def test_failed_table_write_keeps_earlier_file(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["x"], [[1.5]])
    before = path.read_bytes()

    def rows():
        yield [2.5]
        raise Boom

    with pytest.raises(Boom):
        write_table(path, ["x"], rows())
    assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["t.csv"]


def test_failed_return_write_keeps_earlier_file(tmp_path):
    path = tmp_path / "r.csv"
    recs = [(dt.date(2020, 1, 6), b, "A", 0.1 * b) for b in range(1, 6)]
    write_return_records(recs, path)
    before = path.read_bytes()
    calls = []

    def failing_format(x):
        calls.append(x)
        if len(calls) > 3:
            raise Boom
        return "9"

    with mock.patch.object(panel_module, "WRITE_BLOCK_ROWS", 2), mock.patch.object(
        tableio_module, "format_float", failing_format
    ):
        with pytest.raises(Boom):
            write_return_records(recs, path)
    assert len(calls) == 4
    assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["r.csv"]


def test_failed_kv_write_keeps_earlier_file(tmp_path):
    path = tmp_path / "run_manifest.txt"
    write_kv_lines([("k", "v")], path)
    before = path.read_bytes()

    def pairs():
        yield ("k", "w")
        raise Boom

    with pytest.raises(Boom):
        write_kv_lines(pairs(), path)
    assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["run_manifest.txt"]


# --- price tables ----------------------------------------------------------------


PRICE_COLUMNS = ("date", "time", "symbol", "price")


def oracle_prices(source, convention):
    """The row-by-row price reader and conversion: return records sorted by
    (date, bin, symbol), stamps ordered and matched by their text."""
    records = []
    for line_num, (date_s, time_s, symbol, price_s) in _parse_table(
        source, PRICE_COLUMNS
    ):
        try:
            date = dt.date.fromisoformat(date_s)
        except ValueError:
            raise PanelFormatError(f"bad date {date_s!r}", line_num) from None
        try:
            dt.time.fromisoformat(time_s)
        except ValueError:
            raise PanelFormatError(f"bad time {time_s!r}", line_num) from None
        try:
            price = float(price_s)
        except ValueError:
            raise PanelFormatError(f"bad price {price_s!r}", line_num) from None
        if not symbol:
            raise PanelFormatError("empty symbol", line_num)
        records.append((date, time_s, symbol, price))
    if not records:
        raise CompletenessError("no price rows")

    groups = {}
    for date, time_s, symbol, price in records:
        if not (math.isfinite(price) and price > 0):
            kind = "non-positive" if math.isfinite(price) else "non-finite"
            raise PriceDomainError(
                f"{kind} price {price} for {symbol} {date.isoformat()} {time_s}"
            )
        group = groups.setdefault((symbol, date), {})
        if time_s in group:
            raise DuplicateRowError(
                f"duplicate stamp {symbol} {date.isoformat()} {time_s}"
            )
        group[time_s] = price

    grids = {tuple(sorted(g)) for g in groups.values()}
    if len(grids) != 1:
        sizes = sorted({len(g) for g in grids})
        raise CompletenessError(
            f"inconsistent time grids across symbol-days (sizes {sizes}); "
            "price ingestion requires one uniform bar clock"
        )
    grid = grids.pop()
    n_stamps = len(grid)
    if n_stamps < 2:
        raise CompletenessError("need at least two stamps per day")
    k_bins = n_stamps - 1 if convention == "bin_open" else n_stamps

    out = []
    for symbol in sorted({sym for sym, _ in groups}):
        sym_dates = sorted(date for sym, date in groups if sym == symbol)
        prev_last = None
        for date in sym_dates:
            prices = [groups[(symbol, date)][t] for t in grid]
            if convention == "bin_open":
                for k in range(1, k_bins + 1):
                    out.append((date, k, symbol, prices[k] / prices[k - 1] - 1.0))
                if prev_last is not None:
                    out.append((date, 0, symbol, prices[0] / prev_last - 1.0))
            else:
                for k in range(2, k_bins + 1):
                    out.append((date, k, symbol, prices[k - 1] / prices[k - 2] - 1.0))
                if prev_last is not None:
                    out.append((date, 1, symbol, prices[0] / prev_last - 1.0))
            prev_last = prices[-1]
    out.sort(key=lambda r: (r[0], r[1], r[2]))
    return out


def record_set(records):
    """Records in (date, bin, symbol) order, each value by its repr, so that
    nan equals nan and -0.0 differs from 0.0."""
    return sorted((d, b, s, repr(v)) for d, b, s, v in records)


# zero-padded HH:MM: text order is time order, which the oracle relies on
STAMPS = ("09:35", "10:00", "10:05", "11:30", "15:55")


@st.composite
def price_tables(draw):
    symbols = draw(
        st.lists(
            st.text("AB ,\"#é\n\r", min_size=1, max_size=3),
            min_size=1,
            max_size=3,
            unique_by=str.strip,
        )
    )
    n_days = draw(st.integers(1, 3))
    dates = [dt.date(2020, 1, 6) + dt.timedelta(days=i) for i in range(n_days)]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    stamps = sorted(rng.sample(STAMPS, draw(st.sampled_from([2, 3, 4, 1]))))
    # whole symbol-days removed keep the grid uniform
    day_drop = draw(st.sampled_from([0.0, 0.0, 0.3]))
    cells = [
        (d, t, s)
        for d in dates
        for s in symbols
        if (d, s) == (dates[0], symbols[0]) or rng.random() >= day_drop
        for t in stamps
    ]
    if cells and rng.random() < 0.15:
        cells.remove(rng.choice(cells))
    cells += rng.sample(cells, min(len(cells), draw(st.sampled_from([0, 0, 0, 1]))))
    rng.shuffle(cells)

    header = list(PRICE_COLUMNS) + draw(st.sampled_from([[], ["x"], ["note", "x"]]))
    rng.shuffle(header)
    rows = []
    for date, stamp, symbol in cells:
        price = rng.choice([100.0, 1e-3, rng.uniform(1.0, 200.0)])
        if rng.random() < 0.01:
            price = rng.choice([0.0, -0.0, -1.5])
        text = {
            "date": date.isoformat(),
            "time": stamp,
            "symbol": symbol,
            "price": rng.choice([repr(price), f"{price:.6g}"]),
            "x": rng.choice(["1", "", "a b"]),
            "note": rng.choice(["n", '"q"', "c,d"]),
        }
        rows.append([text[name] for name in header])
    if rows and rng.random() < 0.3:
        # one bad field, or a row with a field too many or too few
        row = rng.choice(rows)
        if rng.random() < 0.125:
            row.append("extra")
        elif rng.random() < 0.125:
            row.pop()
        else:
            row[rng.randrange(len(row))] = rng.choice(BAD_TEXT)

    quote_rate = draw(st.sampled_from([0.0, 0.0, 0.3]))
    pad = draw(PAD)

    def field_text(text):
        if any(c in text for c in ',"\r\n') or rng.random() < quote_rate:
            return _quote(text)
        return pad + text + pad if rng.random() < 0.3 else text

    lines = [",".join(field_text(h) for h in header)]
    lines += [",".join(field_text(f) for f in row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(
            rng.randrange(len(lines) + 1),
            rng.choice(["# comment", "  # indented, comment", "", "#,,,"]),
        )
    eol = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return eol.join(lines) + (eol if draw(st.booleans()) else "")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    text=price_tables(),
    chunk_bytes=st.sampled_from([1, 40, 200, 4 << 20]),
    convention=st.sampled_from(["close_to_close", "bin_open"]),
)
def test_price_conversion_matches_the_row_parser(text, chunk_bytes, convention):
    """Same return records and errors as the row-by-row price path, for
    either convention and any chunk size."""
    with mock.patch.object(panel_module, "CHUNK_BYTES", chunk_bytes):
        got = outcome(lambda: record_set(returns_from_prices(io.StringIO(text), convention)))
    want = outcome(lambda: record_set(oracle_prices(io.StringIO(text), convention)))
    assert got == want


def _long_prices(n_days=10, symbols=("A", "B"), stamps=("10:00", "11:00")):
    """Header, a comment, then rows: line n holds the (n-3)-th stamp."""
    lines = ["date,time,symbol,price", "# leading comment"]
    for i in range(n_days):
        date = (dt.date(2020, 1, 6) + dt.timedelta(days=i)).isoformat()
        for t in stamps:
            for s in symbols:
                lines.append(f"{date},{t},{s},{100 + i}.5")
    return lines


LATE_PRICE_ERRORS = [
    (0, "2020-02-30", "bad date"),
    (1, "25:00", "bad time"),
    (1, "10:00+01:00", "bad time"),
    (3, "oops", "bad price"),
    (2, "  ", "empty symbol"),
]


@pytest.mark.parametrize("field, text, message", LATE_PRICE_ERRORS)
def test_late_bad_price_row_reports_its_line(field, text, message):
    lines = _long_prices()
    lines.insert(20, "# a comment inside a later chunk")
    row = lines[30].split(",")
    row[field] = text
    lines[30] = ",".join(row)
    table = "\n".join(lines) + "\n"
    with mock.patch.object(panel_module, "CHUNK_BYTES", 64):
        with pytest.raises(PanelFormatError, match=f"row 31: {message}") as exc:
            returns_from_prices(io.StringIO(table))
    assert exc.value.row_number == 31


@pytest.mark.parametrize(
    "edits, error",
    [
        # a duplicate stamp before a non-positive price
        ({25: "2020-01-06,10:00,A,100.5", 30: "2020-01-12,11:00,B,-1"}, DuplicateRowError),
        # a non-positive price before a duplicate stamp
        ({25: "2020-01-11,11:00,A,0", 30: "2020-01-06,10:00,A,100.5"}, PriceDomainError),
        # one row that is both: the price is checked first
        ({25: "2020-01-06,10:00,A,-0.0"}, PriceDomainError),
    ],
)
def test_earlier_of_price_and_duplicate_errors_wins(edits, error):
    lines = _long_prices()
    for line, text in edits.items():
        lines[line - 1] = text
    table = "\n".join(lines) + "\n"
    with mock.patch.object(panel_module, "CHUNK_BYTES", 64):
        got = outcome(lambda: returns_from_prices(io.StringIO(table)))
    assert got[0] == error.__name__
    assert got == outcome(lambda: oracle_prices(io.StringIO(table), "close_to_close"))
