"""The canonical-layout read of a return table against the general reader.

``cli._read_canonical`` first tries ``panel.read_canonical_panel``, which
reads a table in the layout ``write_return_records`` gives it without the
general grammar, and falls back to ``read_return_records`` plus a strict
``load_panel``.  For any table, the two must give the same panel or the
same error, and the package's own tables must take the fast path.
"""

import datetime as dt
import os
import random
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intraday import cli, panel as panel_module, tableio as tableio_module
from intraday.config import RunConfig, format_float
from intraday.errors import IntradayError
from intraday.panel import load_panel, read_canonical_panel, read_return_records
from intraday.tableio import VERSION_LINE

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CANONICAL = "returns_canonical.csv"


def outcome(fn):
    """A read's panel as plain values, or its error as (type, message)."""
    try:
        panel = fn()
    except (IntradayError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return (
        panel.returns.shape,
        panel.returns.tobytes(),
        panel.stock_ids,
        panel.dates,
        panel.bins_per_day,
        panel.overnight_present,
    )


def general_read(path):
    return load_panel(read_return_records(path, versioned=True), policy="strict")[0]


def _replace_field(line, field, text):
    cells = line.split(",")
    cells[field] = text
    return ",".join(cells)


def _mutate(kind, rows, rng):
    """``rows``, the data lines of a canonical table, changed by ``kind``."""
    i = rng.randrange(len(rows))
    date, _, symbol, _ = rows[i].split(",")
    if kind == "swapped rows":
        j = rng.randrange(len(rows))
        rows[i], rows[j] = rows[j], rows[i]
    elif kind == "duplicate":
        rows.insert(i, rows[i])
    elif kind == "gap":
        del rows[i]
    elif kind == "unsorted symbol":
        # every row of one symbol renamed so that it sorts first
        rows[:] = [_replace_field(r, 2, "0" + symbol) if r.split(",")[2] == symbol else r
                   for r in rows]
    elif kind == "padded key":
        # a date or symbol with a space or tab around it, in one row or in all
        field = rng.choice([0, 2])
        key = rows[i].split(",")[field]
        padded = rng.choice([" {}", "{} ", "\t{}"]).format(key)
        for j in range(len(rows)) if rng.random() < 0.5 else [i]:
            if rows[j].split(",")[field] == key:
                rows[j] = _replace_field(rows[j], field, padded)
    elif kind == "over-long key":
        # from row i on, one symbol or date longer than every line before it
        field, key = rng.choice([(2, symbol), (0, date)])
        # a week date cut to 8 characters reads as its own Monday again
        longer = key + ("Q" if field == 2 else "1") * 40
        rows[i:] = [_replace_field(r, field, longer) if r.split(",")[field] == key else r
                    for r in rows[i:]]
    elif kind == "two spellings of one date":
        compact = date.replace("-", "")
        everywhere = rng.random() < 0.5
        rows[:] = [_replace_field(r, 0, compact)
                   if r.startswith(date) and (everywhere or rng.random() < 0.5) else r
                   for r in rows]
        if rng.random() < 0.5:
            # and another day's rows spelled as this date
            other = rng.choice(rows).split(",")[0]
            rows[:] = [_replace_field(r, 0, compact) if r.startswith(other) else r for r in rows]
    elif kind == "non-finite return":
        rows[i] = _replace_field(rows[i], 3, rng.choice(["nan", "inf", "-inf", "1e999"]))
    elif kind == "comment line":
        rows.insert(i, "# note")
    elif kind == "blank line":
        # anywhere, the end of the table included
        rows.insert(rng.randrange(len(rows) + 1), "")
    elif kind == "empty symbol":
        first = rows[0].split(",")[2]
        rows[:] = [_replace_field(r, 2, "") if r.split(",")[2] == first else r for r in rows]
    elif kind == "non-ASCII symbol":
        rows[:] = [_replace_field(r, 2, "É" + symbol) if r.split(",")[2] == symbol else r
                   for r in rows]
    elif kind == "swapped days":
        days = sorted({r.split(",")[0] for r in rows})
        rng.shuffle(days)
        rows.sort(key=lambda r: days.index(r.split(",")[0]))
    elif kind == "relabeled row":
        # one row's date or bin taken from another row
        field = rng.choice([0, 1])
        rows[i] = _replace_field(rows[i], field, rng.choice(rows).split(",")[field])
    elif kind == "relabeled group":
        # every row of one (date, bin) group given another row's date
        group = rows[i].split(",")[:2]
        new_date = rng.choice(rows).split(",")[0] if rng.random() < 0.5 else "2021-06-01"
        rows[:] = [_replace_field(r, 0, new_date) if r.split(",")[:2] == group else r
                   for r in rows]
    elif kind == "truncated":
        del rows[rng.randrange(len(rows)):]
        rows.extend([""] * rng.randrange(3))  # perhaps leaving blank lines only
    return rows


MUTATIONS = [
    None,
    "swapped rows",
    "duplicate",
    "gap",
    "unsorted symbol",
    "padded key",
    "over-long key",
    "two spellings of one date",
    "non-finite return",
    "comment line",
    "blank line",
    "empty symbol",
    "non-ASCII symbol",
    "swapped days",
    "relabeled row",
    "relabeled group",
    "truncated",
]


@st.composite
def canonical_tables(draw):
    """A canonical return table's text, perhaps mutated, and the mutation."""
    symbols = sorted(draw(st.sets(st.sampled_from(["A", "AB", "B", "C1", "Z", "ZZZZ"]),
                                  min_size=1, max_size=4)))
    n_days = draw(st.integers(1, 4))
    # Mondays, so that a week date ("2020W02", 7 characters) names each
    dates = [dt.date(2020, 1, 6) + dt.timedelta(weeks=i) for i in range(n_days)]
    bins = draw(st.sampled_from([[1], [1, 2], [0, 1, 2], [0, 1], [1, 2, 3], [0]]))
    spelling = draw(st.sampled_from(["%Y-%m-%d", "%Y-%m-%d", "%Y%m%d", "%GW%V"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    cells = [(d, b, s) for d in dates for b in bins for s in symbols]
    values = [rng.choice([0.0, -0.0, 1.25e-4, 0.5, rng.gauss(0.0, 0.01)]) for _ in cells]
    texts = list(map(format_float, values))
    rows = [f"{d.strftime(spelling)},{b},{s},{v}" for (d, b, s), v in zip(cells, texts)]
    kind = draw(st.sampled_from(MUTATIONS))
    if kind is not None:
        rows = _mutate(kind, rows, rng)
    end = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = VERSION_LINE + "date,bin,symbol,return\n" + "".join(r + end for r in rows)
    if draw(st.integers(0, 9)) == 0:
        text = "\ufeff" + text
    return text, kind, end


def _reads(text, chunk_bytes):
    """The fast read's panel or None, and the outcomes of ``_read_canonical``
    and of the general reader, on a table holding ``text``."""
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, CANONICAL)
        with open(path, "w", newline="", encoding="utf-8") as handle:
            handle.write(text)
        chunks = [mock.patch.object(m, "CHUNK_BYTES", chunk_bytes)
                  for m in (panel_module, tableio_module)]
        with chunks[0], chunks[1]:
            fast = read_canonical_panel(path)
            got = outcome(lambda: cli._read_canonical(RunConfig(output_dir=out)))
            want = outcome(lambda: general_read(path))
    if fast is not None:
        assert outcome(lambda: fast) == want
        assert fast.returns.flags.c_contiguous and not fast.returns.flags.writeable
    return fast, got, want


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(table=canonical_tables(), chunk_bytes=st.sampled_from([4 << 20, 60, 1]))
def test_canonical_read_gives_the_general_readers_panel_or_error(table, chunk_bytes):
    text, kind, end = table
    fast, got, want = _reads(text, chunk_bytes)
    assert got == want
    # an unchanged LF table in one chunk is the layout the fast path reads
    if kind is None and end == "\n" and chunk_bytes > len(text) and len(want) > 2:
        assert fast is not None


def _grid(dates, bins, symbols, edit=lambda i, row: row):
    """A table of (date, bin, symbol) rows in that nesting, each row passed
    through ``edit(i, row)``."""
    cells = [(d, b, s) for d in dates for b in bins for s in symbols]
    rows = [edit(i, f"{d},{b},{s},0.001{i:02d}") for i, (d, b, s) in enumerate(cells)]
    return VERSION_LINE + "date,bin,symbol,return\n" + "".join(r + "\n" for r in rows)


# Each row is 23 characters long with its line end, so a chunk of 100 holds
# 5 rows and one of 60 holds 3.
EDGE_TABLES = {
    # one block in every group, but not in sorted order
    "unsorted block": _grid(["2020-01-06", "2020-01-13"], [1, 2], ["B", "A"]),
    # rows 5 to 7 finish group 2 in the second chunk of 100 under group 1's bin
    "group split at a chunk's start": _grid(
        ["2020-01-06", "2020-01-13"], [1, 2], "ABCD",
        lambda i, row: _replace_field(row, 1, "1") if 5 <= i <= 7 else row,
    ),
    # a week date (7 characters) fills the first chunk of 60, so that a
    # longer one later is cut to 8 characters, which read as a date again
    # ("2020W031" is 2020-01-13)
    "cut week date": _grid(
        ["2020W02", "2020W03", "2020W04"], [1, 2, 3, 4], "A",
        lambda i, row: row.replace("2020W03", "2020W03" + "1" * 30),
    ),
}


@pytest.mark.parametrize("chunk_bytes", [60, 100, 4 << 20])
@pytest.mark.parametrize("name", EDGE_TABLES)
def test_canonical_read_of_edge_tables(name, chunk_bytes):
    fast, got, want = _reads(EDGE_TABLES[name], chunk_bytes)
    assert got == want
    assert fast is None


BLANK_LINE_TABLES = {
    "a blank line last": _grid(["2020-01-06", "2020-01-13"], [1, 2], "A") + "\n",
    "blank lines first and last": _grid(["2020-01-06"], [0, 1], "AB").replace(
        "return\n", "return\n\n\n") + "\n\n",
    "a header and a blank line": VERSION_LINE + "date,bin,symbol,return\n\n",
}


@pytest.mark.parametrize("chunk_bytes", [1, 60, 4 << 20])
@pytest.mark.parametrize("name", BLANK_LINE_TABLES)
def test_canonical_read_skips_blank_lines_as_the_general_reader_does(name, chunk_bytes):
    # a chunk may hold blank lines only
    fast, got, want = _reads(BLANK_LINE_TABLES[name], chunk_bytes)
    assert got == want
    if want[0] == "CompletenessError":  # no data rows
        assert fast is None
    elif chunk_bytes > 60:  # (a chunk of one line cannot show a block of two symbols)
        assert fast is not None


def test_demo_canonical_table_takes_the_fast_path(tmp_path, monkeypatch):
    argv = ["-c", os.path.join(REPO_ROOT, "demo", "run.cfg"), "--output-dir", str(tmp_path),
            "--synth-manifest", os.path.join(REPO_ROOT, "demo", "synth.cfg")]
    for stage in ("synth", "ingest"):
        assert cli.main([stage, *argv]) == 0
    want = outcome(lambda: general_read(tmp_path / CANONICAL))

    def general(*args, **kwargs):
        raise AssertionError("the demo's canonical table left the fast path")

    monkeypatch.setattr(cli, "read_return_records", general)
    monkeypatch.setattr(cli, "load_panel", general)
    assert outcome(lambda: cli._read_canonical(RunConfig(output_dir=str(tmp_path)))) == want
    assert want[2][0] == "S0000" and want[4] == 13 and want[5]
