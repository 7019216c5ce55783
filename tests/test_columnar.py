"""The columnar table paths against the row-by-row code they replaced.

``oracle_read`` and ``oracle_load`` are the ``csv.reader``-based parser and
the dict-based assembly that the columnar return path replaced, and
``oracle_prices`` the row-by-row price reader and conversion, kept as the
reference: for any table, the new path must return the same rows and panel,
or raise the same error with the same row number.
"""

import csv
import dataclasses
import datetime as dt
import io
import math
import os
import random
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intraday import cli, tableio as tableio_module
from intraday.config import format_float, write_kv_lines
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
    write_return_records,
)
from intraday.synth import gaussian_iid_panel
from intraday.tableio import read_columns, write_table

from return_rows import read_rows, rows_of


# --- oracle: the row-by-row reader and assembly --------------------------------


def _open_text(source):
    if isinstance(source, (str, os.PathLike)):
        return open(source, "r", newline="", encoding="utf-8"), True
    return source, False


def _records(lines):
    """``(line number, row)`` of each csv record that is neither blank nor a
    comment.  A comment is a record whose first raw line starts with "#",
    so a quoted first cell such as "#A" is data."""
    reader = csv.reader(lines)
    start = 0
    for row in reader:
        if row and not lines[start].lstrip().startswith("#"):
            yield reader.line_num, row
        start = reader.line_num


def _parse_table(source, columns):
    handle, owned = _open_text(source)
    try:
        reader = _records(list(handle))
        header = next((row for _, row in reader), None)
        if header is None:
            raise PanelFormatError("empty input, no header row found")
        header = [name.strip() for name in header]
        try:
            order = [header.index(name) for name in columns]
        except ValueError:
            missing = [name for name in columns if name not in header]
            raise PanelFormatError(
                f"header {header} lacks required column(s) {missing}"
            ) from None
        width = len(header)
        for line_num, row in reader:
            if len(row) != width:
                raise PanelFormatError(
                    f"expected {width} fields, got {len(row)}", line_num
                )
            yield line_num, [row[i].strip() for i in order]
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
        if bin_number > 2**63 - 1:
            raise PanelFormatError(f"bin {bin_number} out of range", line_num)
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
    panel, report = load_panel(read_return_records(source), policy=policy)
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
# Texts where numpy's parser and Python's int/float may disagree are mixed
# in with plainly bad ones: the reader must follow Python's grammar.
BAD_TEXT = (
    "", "x", "-1", "nan", "inf", "2020-13-01", "1.5", "1e999", "#", " ",
    "1_0", "+1", "\uff11", " 1", "1.0", "9223372036854775808", "1e400",
    "Infinity", ".5", "5.", "-0", "1\x1c",
)
PAD = st.sampled_from(["", " ", "  ", "\t"])
#: Lines inserted among a generated table's lines; the last holds only spaces.
EXTRA_LINES = ["# comment", "  # indented, comment", "", "#,,,", "   "]
FULLWIDTH = str.maketrans("0123456789", "".join(map(chr, range(0xFF10, 0xFF1A))))


def _insert_extra_lines(rng, lines, count):
    """Insert ``count`` of ``EXTRA_LINES`` at random places in ``lines``.  A
    spaces-only line goes after the header: before it, it would be read as
    a header of one empty name, and the reader and the oracle name the
    missing columns in different orders."""
    header = lines[0]
    for _ in range(count):
        extra = rng.choice(EXTRA_LINES)
        start = lines.index(header) + 1 if extra.isspace() else 0
        lines.insert(rng.randrange(start, len(lines) + 1), extra)


def _number_text(rng, text):
    """``text``, or another spelling of its number that Python's int or float
    reads as the same value: a plus sign, an underscore, fullwidth digits."""
    spelling = rng.choice(["same", "same", "plus", "underscore", "fullwidth"])
    if spelling == "plus" and not text.startswith("-"):
        return "+" + text
    if spelling == "underscore" and text[-2:-1].isdigit() and text[-1:].isdigit():
        return text[:-1] + "_" + text[-1]
    if spelling == "fullwidth":
        return text.translate(FULLWIDTH)
    return text


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
        value_text = rng.choice([repr(value), f"{value:.10g}", ".5", "5.", "-0", "1_0"])
        text = {
            "date": date.isoformat(),
            "bin": _number_text(rng, str(bin_number)),
            "symbol": symbol,
            "return": _number_text(rng, value_text),
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
    _insert_extra_lines(rng, lines, draw(st.integers(0, 3)))
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
    every policy, chunk size and line splitting; and a versioned read_columns
    reads the same rows once the table has its version line."""
    def source(prefix=""):
        return io.StringIO(prefix + text, newline=newline)

    def table_rows(handle):
        _, texts = read_columns(handle, dict.fromkeys(COLUMNS, str), versioned=True)
        return [list(row) for row in zip(*(column.tolist() for column in texts))]

    versioned = "# schema-version: 1\n"
    with mock.patch.object(tableio_module, "CHUNK_BYTES", chunk_bytes):
        got = outcome(lambda: rows_of(read_return_records(source())))
        assert got == outcome(lambda: oracle_read(source()))
        got = outcome(lambda: table_rows(source(versioned)))
        want = outcome(lambda: [row for _, row in _parse_table(source(versioned), COLUMNS)])
        assert got == want
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
    with mock.patch.object(tableio_module, "CHUNK_BYTES", 64):
        with pytest.raises(PanelFormatError, match=f"row 31: {message}") as exc:
            read_return_records(io.StringIO(table))
    assert exc.value.row_number == 31
    assert outcome(lambda: oracle_read(io.StringIO(table)))[1] == str(exc.value)


def test_late_width_mismatch_reports_its_line():
    lines = _long_table()
    lines.insert(20, "# a comment inside a later chunk")
    lines[30] += ",extra"
    with mock.patch.object(tableio_module, "CHUNK_BYTES", 64):
        with pytest.raises(PanelFormatError, match="row 31: expected 4 fields, got 5"):
            read_return_records(io.StringIO("\n".join(lines) + "\n"))


def _with_line_ends(lines, ends):
    """``lines`` joined into a table, line ``i`` ended by ``ends(i)``."""
    return "".join(line + ends(i) for i, line in enumerate(lines))


@pytest.mark.parametrize(
    "text, parser, numbers",
    [
        ("a,1\nb,2\n", "_numpy_fields", [1, 2]),
        ("a,1\r\nb,2\r\n", "_numpy_fields", [1, 2]),
        ("a,1\rb,2\n", "_python_fields", [1, 2]),
        ("a,1\n\nb,2\n", "_numpy_fields", [1, 3]),
        ("\na,1\nb,2", "_numpy_fields", [2, 3]),
        ("a,1\r\n\r\nb,2\r\n", "_numpy_fields", [1, 3]),
        ("\r\na,1\r\nb,2\r\n", "_numpy_fields", [2, 3]),
        ("a,1\n\r\nb,2\n", "_numpy_fields", [1, 3]),
    ],
    ids=["lf", "crlf", "lone-cr", "blank", "leading-blank", "crlf-blank",
         "leading-crlf-blank", "mixed-blank"],
)
def test_chunk_routing_by_line_ends_and_blank_lines(text, parser, numbers):
    """A chunk with a lone CR goes to csv; LF and CRLF chunks go to numpy,
    and a blank line in either is dropped with its line number."""
    ((fields, rows),) = tableio_module._table_chunks(io.StringIO(text, newline=""), 0, 2, {1: int})
    assert fields.func.__name__ == parser
    assert list(rows) == [(n, [key, str(i)]) for n, key, i in zip(numbers, "ab", (1, 2))]
    assert fields()[0].tolist() == [1, 2]


@pytest.mark.parametrize("chunk_bytes", [64, 4 << 20])
def test_crlf_copy_reads_as_the_lf_file_through_numpy(chunk_bytes):
    """A CRLF table, blank lines and comments included, gives the columns of
    its LF original without the csv reader; a lone CR still takes it."""
    lines = _long_table()
    lines[20:20] = ["# a comment inside a later chunk", ""]
    lf = _with_line_ends(lines, lambda i: "\n")
    crlf = _with_line_ends(lines, lambda i: "\r\n")
    lone_cr = _with_line_ends(lines, lambda i: "\r" if i == 30 else "\r\n")
    python_fields = mock.patch.object(
        tableio_module, "_python_fields", wraps=tableio_module._python_fields
    )
    with mock.patch.object(tableio_module, "CHUNK_BYTES", chunk_bytes), python_fields as spy:
        want = rows_of(read_return_records(io.StringIO(lf, newline="")))
        assert rows_of(read_return_records(io.StringIO(crlf, newline=""))) == want
        assert spy.call_count == 0
        assert rows_of(read_return_records(io.StringIO(lone_cr, newline=""))) == want
        assert spy.call_count == 1


@pytest.mark.parametrize("chunk_bytes", [64, 4 << 20])
@pytest.mark.parametrize("field, text, message", LATE_ERRORS)
def test_crlf_bad_row_reports_the_lf_line(chunk_bytes, field, text, message):
    lines = _long_table()
    lines[20:20] = ["# a comment inside a later chunk", ""]
    row = lines[30].split(",")
    row[field] = text
    lines[30] = ",".join(row)
    errors = []
    with mock.patch.object(tableio_module, "CHUNK_BYTES", chunk_bytes):
        for end in ("\n", "\r\n"):
            table = io.StringIO(_with_line_ends(lines, lambda i: end), newline="")
            with pytest.raises(PanelFormatError, match=f"row 31: {message}") as exc:
                read_return_records(table)
            errors.append(str(exc.value))
    assert errors[0] == errors[1]


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
    with mock.patch.object(tableio_module, "CHUNK_BYTES", 64):
        with pytest.raises(
            DuplicateRowError, match="^duplicate cell date=2020-01-12 bin=2 symbol=B$"
        ):
            load_panel(read_return_records(io.StringIO("\n".join(duplicated) + "\n")))
        gappy = lines[:30] + lines[31:]
        with pytest.raises(
            CompletenessError, match="^missing cell date=2020-01-12 bin=2 symbol=B$"
        ):
            load_panel(read_return_records(io.StringIO("\n".join(gappy) + "\n")))


def test_duplicate_named_at_its_first_repeat():
    day = dt.date(2020, 1, 6)
    recs = [(day, 1, "B", 0.1), (day, 1, "A", 0.1), (day, 1, "A", 0.2), (day, 1, "B", 0.3)]
    with pytest.raises(DuplicateRowError, match="symbol=A$"):
        load_panel(read_rows(recs))


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


@pytest.mark.parametrize("chunk_bytes", [64, 4 << 20])
@pytest.mark.parametrize(
    "field, text, value",
    [(1, "1_0", 10), (3, "0.00_1", 0.001), (3, "\uff10.\uff10\uff11", 0.01), (1, "\uff12", 2)],
)
def test_texts_only_python_reads_match_the_row_parser(chunk_bytes, field, text, value):
    """A chunk holding a number that numpy's parser rejects but Python's
    int or float reads (an underscore, fullwidth digits) reads as the oracle
    does, whether numpy saw the chunk first or the chunk is not ASCII."""
    lines = _long_table()
    row = lines[30].split(",")
    row[field] = text
    lines[30] = ",".join(row)
    table = "\n".join(lines) + "\n"
    with mock.patch.object(tableio_module, "CHUNK_BYTES", chunk_bytes):
        got = rows_of(read_return_records(io.StringIO(table)))
    assert got == oracle_read(io.StringIO(table))
    assert got[28][field] == value


@pytest.mark.parametrize("text", ["1.0", "1e3"])
def test_int_columns_stay_strict_when_numpy_parses_ints_via_floats(text):
    """numpy 1.x reads an int column's ``1.0`` through a float with a
    DeprecationWarning; the reader then falls back to Python's int, which
    rejects it.  The old behaviour is emulated on the installed numpy."""
    loadtxt = np.loadtxt

    def old_loadtxt(lines, dtype, **options):
        try:
            return loadtxt(lines, dtype, **options)
        except ValueError:
            warnings.warn("Parsing an integer via a float is deprecated", DeprecationWarning)
            floats = [(n, float if dtype[n] == np.int64 else dtype[n]) for n in dtype.names]
            return loadtxt(lines, np.dtype(floats), **options).astype(dtype)

    table = f"date,bin,symbol,return\n2020-01-06,1,A,0.1\n2020-01-06,{text},B,0.2\n"
    with mock.patch.object(np, "loadtxt", old_loadtxt):
        with pytest.raises(PanelFormatError, match=f"row 3: bad bin '{text}'"):
            read_return_records(io.StringIO(table))


# --- the canonical return table ----------------------------------------------------


def test_written_panel_is_canonical_text(tmp_path):
    recs = [
        (dt.date(2020, 1, 6) + dt.timedelta(days=d), b, s, 0.001 * (d + b) - 0.0)
        for s in ("B", "A")
        for d in (1, 0)
        for b in (0, 1, 2)
    ]
    panel, _ = load_panel(read_rows(recs))
    ordered = sorted(recs, key=lambda r: r[:3])
    write_table(
        tmp_path / "from_records.csv",
        {
            name: [r[i] for r in ordered]
            for i, name in enumerate(("date", "bin", "symbol", "return"))
        },
    )
    write_return_records(panel, tmp_path / "from_panel.csv")
    text = (tmp_path / "from_panel.csv").read_text()
    assert text == (tmp_path / "from_records.csv").read_text()
    assert text.splitlines()[2] == "2020-01-06,0,A,0"
    assert rows_of(read_return_records(tmp_path / "from_panel.csv")) == ordered


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
fit_window = 1:3
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
                for b in (1, 2, 3):
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
        moments = os.path.join(out, "stock_moments.csv")
        _, (symbols,) = read_columns(moments, {"symbol": str}, versioned=True)
        assert sorted(set(symbols.tolist())) == expected


def one_cell_panel(symbol, value=0.5):
    return ReturnPanel(np.full((1, 1, 1), value), (symbol,), (dt.date(2020, 1, 6),), 1, False)


def test_plain_symbols_are_written_bare():
    buf = io.StringIO()
    write_return_records(one_cell_panel("AB.C"), buf)
    assert buf.getvalue().splitlines()[2] == "2020-01-06,1,AB.C,0.5"
    buf = io.StringIO()
    write_return_records(one_cell_panel('B,"C"'), buf)
    assert buf.getvalue().splitlines()[2] == '2020-01-06,1,"B,""C""",0.5'


def test_equal_cells_of_different_types_keep_their_own_text():
    buf = io.StringIO()
    write_table(
        buf,
        {
            "n": [1, 2, 3],
            "o": np.array([1, 1.0, True], dtype=object),
            "p": np.array([True, 2, 1.0], dtype=object),
            "q": np.array([-0.0, 0.0, -0.0], dtype=object),
        },
    )
    assert buf.getvalue().splitlines()[2:] == ["1,1,True,-0.0", "2,1.0,2,0.0", "3,True,1.0,-0.0"]


def test_table_cells_quoted_only_when_needed():
    buf = io.StringIO()
    write_table(buf, {"symbol": ["#A", "B,C", "D"], "x": [1, 2, 3]})
    assert buf.getvalue().splitlines()[2:] == ['"#A",1', '"B,C",2', "D,3"]
    kinds = {"symbol": str, "x": str}
    _, columns = read_columns(io.StringIO(buf.getvalue()), kinds, versioned=True)
    assert list(map(list, zip(*columns))) == [["#A", "1"], ["B,C", "2"], ["D", "3"]]


# --- float text ------------------------------------------------------------------

EDGE_FLOATS = (
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1.7976931348623157e308
)


def kernel_texts(values):
    """``_float_texts`` of ``values`` as a list of texts, and its read-back."""
    rows, parsed = tableio_module._float_texts(np.array(values, dtype=np.float64))
    return [bytes(row[row != 255]).decode() for row in rows], parsed


def assert_kernel_matches_format_float(values):
    texts, parsed = kernel_texts(values)
    assert texts == [format_float(v) for v in values]
    assert list(map(repr, parsed.ravel().tolist())) == [repr(float(t)) for t in texts]


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(
    values=st.lists(st.floats(width=64) | st.sampled_from(EDGE_FLOATS), max_size=12),
    rows=st.sampled_from([1, 2, 3]),
)
def test_float_texts_prints_each_value_at_10_digits(values, rows):
    """Any float64, -0 folded to 0, gets ``format_float``'s text byte for
    byte and reads back from it; the read-back keeps the values' shape."""
    values = values[: len(values) // rows * rows]
    texts, parsed = kernel_texts(np.reshape(values, (rows, -1)))
    assert texts == [f"{0.0 if v == 0 else v:.10g}" for v in values]
    assert parsed.shape == (rows, len(values) // rows)
    assert_kernel_matches_format_float(values)


def ulps_away(value, steps):
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


MAX = 1.7976931348623157e308
# Where the kernel's exponent, rounding or notation could go wrong: within 4
# ulps of a power of ten, decimal ties of the 11th digit, the switches of %g
# between fixed and scientific notation, subnormals and the extremes.
hard_floats = (
    st.builds(ulps_away, st.integers(-25, 25).map(lambda k: 10.0**k), st.integers(-4, 4))
    | st.builds(
        lambda digits, k: float(f"{digits}5e{k - 10}"),
        st.integers(10**9, 10**10 - 1),
        st.integers(-25, 25),
    )
    | st.builds(
        ulps_away,
        st.sampled_from([1e-5, 1e-4, 1e10, 9.9999999995e-6, 9.9999999995e-5, 9.9999999995e9]),
        st.integers(-4, 4),
    )
    | st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308)
    | st.sampled_from([MAX, -MAX, 0.0, -0.0])
)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(values=st.lists(st.tuples(hard_floats, st.booleans()), max_size=12))
def test_float_texts_at_powers_of_ten_ties_and_switches(values):
    assert_kernel_matches_format_float([-v if negate else v for v, negate in values])


def test_digit_chunks_are_the_texts_they_stand_for():
    """The uint32 chunk table, built by arithmetic, holds the bytes of each
    four-digit text, each exponent and ``-.``, padded by 0xFF."""
    texts = [f"{i:04d}" for i in range(10**4)] + [f"e{i:+03d}" for i in range(-13, 32)] + ["-."]
    want = b"".join(text.encode().ljust(4, b"\xff") for text in texts)
    assert tableio_module._CHUNKS.dtype == np.uint32
    assert tableio_module._CHUNKS.tobytes() == want


@pytest.mark.parametrize("skew", [-1.0, 1.0])
def test_float_texts_check_the_exponent_log10_gives(skew):
    """A ``log10`` one off is caught by the mantissa's range, and such
    values take the per-value path."""
    values = np.random.default_rng(0).normal(0, 1e-3, 200).tolist() + [1e-5, 1e10, 12345.0]
    log10 = np.log10
    with mock.patch.object(np, "log10", lambda a: log10(a) + skew):
        assert_kernel_matches_format_float(values)


def test_ordinary_returns_take_the_vectorized_path(tmp_path):
    """Returns of a realistic size almost never need the per-value fallback
    (about one in 10**5 lies within 2**-18 of a decimal tie)."""
    panel = gaussian_iid_panel(20, 50, 79, 0.001, seed=0)
    fallback = []

    class CountedFormat(str):
        def __mod__(self, value):
            fallback.append(value)
            return str.__mod__(self, value)

    with mock.patch.object(tableio_module, "FLOAT_FORMAT", CountedFormat("%.10g")):
        write_return_records(panel, tmp_path / "returns.csv")
        from_returns = len(fallback)
        kernel_texts([0.0, -0.0, math.nan, 1.25, 5e-324])  # only nan and 5e-324 fall back
    assert len(fallback) == from_returns + 2
    assert from_returns <= 1e-4 * panel.returns.size


@pytest.mark.parametrize("block_rows", [5, tableio_module.WRITE_BLOCK_ROWS])
def test_return_table_matches_a_plain_python_writer(tmp_path, block_rows):
    rng = np.random.default_rng(3)
    shape = (3, 4, 6)  # symbols, days, bins 0..5
    returns = np.where(rng.random(shape) < 0.5, -1, 1) * 10.0 ** rng.uniform(-7, 3, shape)
    returns[0, 0, :2] = 0.0, -0.0
    returns[2, 3, 5] = -0.0
    dates = [dt.date(2020, 1, 6) + dt.timedelta(days=d) for d in range(4)]
    panel = ReturnPanel(returns, ("A", "BB", "C.D"), dates, 5, True)
    with mock.patch.object(tableio_module, "WRITE_BLOCK_ROWS", block_rows):
        read_back = write_return_records(panel, tmp_path / "returns.csv")
    lines = [
        f"{date},{b},{symbol},{format_float(returns[s, d, b])}\n"
        for d, date in enumerate(dates)
        for b in range(6)
        for s, symbol in enumerate(panel.stock_ids)
    ]
    expected = "# schema-version: 1\ndate,bin,symbol,return\n" + "".join(lines)
    assert (tmp_path / "returns.csv").read_bytes() == expected.encode()
    parsed = np.vectorize(lambda v: float(format_float(v)))(returns)
    assert list(map(repr, read_back.ravel().tolist())) == list(map(repr, parsed.ravel().tolist()))


table_floats = st.floats(width=64) | st.sampled_from(EDGE_FLOATS)
# Stripped text, often with a character that needs quoting.
table_texts = st.text(
    st.sampled_from([",", '"', "\r", "\n", "#", " "]) | st.characters(exclude_categories=("Cs",)),
    max_size=6,
).filter(lambda s: s == s.strip())


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    rows=st.lists(
        st.tuples(table_texts, table_floats, st.integers(-(2**63), 2**63 - 1), st.booleans()),
        max_size=8,
    ),
    block_rows=st.sampled_from([1, 3, tableio_module.WRITE_BLOCK_ROWS]),
)
def test_write_table_round_trips_through_read_columns(rows, block_rows):
    """Text, float, int and bool columns read back as written, and
    ``write_table`` returns each as it reads back; a float as its text
    reads back, and a finite one that would read back as
    non-finite stops the write."""
    text, x, n, flag = (list(column) for column in zip(*rows)) if rows else ([],) * 4
    columns = {
        "text": np.array(text, dtype=object),
        "x": np.array(x, dtype=np.float64),
        "n": np.array(n, dtype=np.int64),
        "flag": np.array(flag, dtype=bool),
    }
    expected = np.array([float(format_float(v)) for v in x])
    buf = io.StringIO()
    with mock.patch.object(tableio_module, "WRITE_BLOCK_ROWS", block_rows):
        if (np.isfinite(columns["x"]) & ~np.isfinite(expected)).any():
            with pytest.raises(PanelFormatError, match="a x rounds to a non-finite value"):
                write_table(buf, columns)
            return
        written = write_table(buf, columns)
    assert list(map(repr, written["x"].tolist())) == list(map(repr, expected.tolist()))
    header, back = read_columns(
        io.StringIO(buf.getvalue()),
        {"text": str, "x": float, "n": int, "flag": int},
        versioned=True,
    )
    assert header == list(columns) == list(written)
    # every column comes back as the table reads it, bools as ints
    for name, column in zip(header, back):
        assert column.dtype == written[name].dtype, name
        assert list(map(repr, written[name].tolist())) == list(map(repr, column.tolist())), name
    text_back, x_back, n_back, flag_back = back
    assert text_back.tolist() == text
    assert list(map(repr, x_back.tolist())) == list(map(repr, expected.tolist()))
    assert n_back.tolist() == n
    assert flag_back.tolist() == [int(f) for f in flag]


def test_value_that_rounds_to_infinity_leaves_no_table(tmp_path):
    path = tmp_path / "fig.csv"
    with pytest.raises(PanelFormatError, match="fig.csv: a kurtosis rounds to a non-finite"):
        write_table(path, {"bin": [1, 2], "kurtosis": [3.0, 1.7976931348623157e308]})
    assert os.listdir(tmp_path) == []


# --- atomic writes ---------------------------------------------------------------


class Boom(Exception):
    pass


def test_failed_table_write_keeps_earlier_file(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, {"x": [1.5]})
    before = path.read_bytes()

    class Unprintable:
        def __str__(self):
            raise Boom

    with pytest.raises(Boom):
        write_table(path, {"x": [2.5, 3.5], "s": np.array(["A", Unprintable()])})
    assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["t.csv"]


def test_failed_return_write_keeps_earlier_file(tmp_path):
    path = tmp_path / "r.csv"
    recs = [(dt.date(2020, 1, 6), b, "A", 0.1 * b) for b in range(1, 6)]
    panel = load_panel(read_rows(recs))[0]
    write_return_records(panel, path)
    before = path.read_bytes()
    calls = []

    float_texts = tableio_module._float_texts

    def failing_formats(values):
        calls.append(values)
        if len(calls) > 1:
            raise Boom
        return float_texts(values)

    with mock.patch.object(tableio_module, "WRITE_BLOCK_ROWS", 2), mock.patch.object(
        tableio_module, "_float_texts", failing_formats
    ):
        with pytest.raises(Boom):
            write_return_records(panel, path)
    assert len(calls) == 2
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
            "price": _number_text(rng, rng.choice([repr(price), f"{price:.6g}", ".5", "5."])),
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
    _insert_extra_lines(rng, lines, draw(st.integers(0, 3)))
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
    with mock.patch.object(tableio_module, "CHUNK_BYTES", chunk_bytes):
        got = outcome(
            lambda: record_set(rows_of(returns_from_prices(io.StringIO(text), convention)))
        )
    want = outcome(lambda: record_set(oracle_prices(io.StringIO(text), convention)))
    assert got == want


@st.composite
def gappy_tables(draw):
    """``(kind, text)``: a small table of returns, or of prices for the
    convention ``kind``, with symbol-days or cells missing, repeated cells
    and bad prices, and no other fault."""
    kind = draw(st.sampled_from(["returns", "close_to_close", "bin_open"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    symbols = ["A", "B", "C"][: draw(st.integers(1, 3))]
    dates = [dt.date(2020, 1, 6) + dt.timedelta(days=i) for i in range(draw(st.integers(1, 4)))]
    if kind == "returns":
        keys = list(range(draw(st.integers(0, 1)), draw(st.integers(1, 3)) + 1))
    else:
        keys = list(STAMPS[: draw(st.integers(2, 4))])
    gap = draw(st.sampled_from([0.0, 0.2, 0.5]))
    cells = [(d, k, s) for d in dates for s in symbols if rng.random() >= gap for k in keys]
    if cells and kind == "returns" and rng.random() < 0.5:
        cells.remove(rng.choice(cells))
    cells += rng.sample(cells, min(len(cells), draw(st.integers(0, 2))))
    rng.shuffle(cells)
    bad = draw(st.sampled_from([0.0, 0.05, 0.2]))
    lines = ["date,bin,symbol,return" if kind == "returns" else "date,time,symbol,price"]
    for date, key, symbol in cells:
        if kind == "returns":
            value = repr(rng.gauss(0.0, 0.01))
        elif rng.random() < bad:
            value = rng.choice(["0", "-0.0", "-1.5", "nan", "inf"])
        else:
            value = repr(rng.uniform(1.0, 200.0))
        lines.append(f"{date.isoformat()},{key},{symbol},{value}")
    return kind, "\n".join(lines) + "\n"


def _loaded(columns, policy):
    """What :func:`load_panel` makes of ``columns``: the panel's bytes and
    labels and the report's lines."""
    panel, report = load_panel(columns, policy)
    labels = (panel.stock_ids, panel.dates, panel.bins_per_day, panel.overnight_present)
    return panel.returns.shape, panel.returns.tobytes(), labels, report.lines()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(table=gappy_tables(), policy=st.sampled_from(["strict", "drop-incomplete", "zero-fill"]))
def test_load_panel_takes_int32_and_intp_codes_alike(table, policy):
    """The readers give int32 key codes (and bin labels, from prices), and
    the first bad row still wins with the row-by-row message; load_panel
    gives the same panel bytes and report, or the same error, from int32
    codes as from intp ones."""
    kind, text = table
    if kind == "returns":
        read = lambda: read_return_records(io.StringIO(text))  # noqa: E731
        oracle = lambda: oracle_load(io.StringIO(text), policy)  # noqa: E731
    else:
        read = lambda: returns_from_prices(io.StringIO(text), kind)  # noqa: E731
        oracle = lambda: oracle_prices(io.StringIO(text), kind)  # noqa: E731
    got = outcome(read)
    if got[0] != "ok":
        assert got == outcome(oracle)
        return
    columns = got[1]
    assert columns.date_index.dtype == columns.symbol_index.dtype == np.int32
    assert columns.bins.dtype == (np.int64 if kind == "returns" else np.int32)
    codes = ("date_index", "bins", "symbol_index")
    wide = dataclasses.replace(
        columns, **{name: getattr(columns, name).astype(np.intp) for name in codes}
    )
    loaded = outcome(lambda: _loaded(columns, policy))
    assert loaded == outcome(lambda: _loaded(wide, policy))
    if kind == "returns" and loaded[0] != "ok":
        assert loaded == outcome(oracle)


@pytest.mark.parametrize("chunk_bytes", [1, 4 << 20])
def test_quoted_hash_first_cell_is_data(chunk_bytes):
    """A quoted "#A" starting a line is a symbol, not a comment, in either
    table, while an unquoted "#" line still is a comment."""
    returns = (
        'symbol,date,bin,return\n"#A",2020-01-06,1,0.1\n'
        "#B,2020-01-06,1,0.3\nB,2020-01-06,1,0.2\n"
    )
    prices = "symbol,date,time,price\n" + "".join(
        f"{s},2020-01-0{d},{t},{p}\n"
        for d in (6, 7)
        for t, p in (("10:00", 10.0), ("10:05", 10.5))
        for s in ('"#A"', "B")
    )
    with mock.patch.object(tableio_module, "CHUNK_BYTES", chunk_bytes):
        got = rows_of(read_return_records(io.StringIO(returns)))
        converted = record_set(rows_of(returns_from_prices(io.StringIO(prices))))
    assert [(symbol, value) for _, _, symbol, value in got] == [("#A", 0.1), ("B", 0.2)]
    assert got == oracle_read(io.StringIO(returns))
    assert {symbol for _, _, symbol, _ in converted} == {"#A", "B"}
    assert converted == record_set(oracle_prices(io.StringIO(prices), "close_to_close"))


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
    with mock.patch.object(tableio_module, "CHUNK_BYTES", 64):
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
    with mock.patch.object(tableio_module, "CHUNK_BYTES", 64):
        got = outcome(lambda: returns_from_prices(io.StringIO(table)))
    assert got[0] == error.__name__
    assert got == outcome(lambda: oracle_prices(io.StringIO(table), "close_to_close"))
