"""Panel data model and loaders for bar-return tables.

The central object is a dense three-way array of simple returns indexed by
(stock, day, bin).  Bins are numbered 1..K within the trading day; bin 0,
when present, is the overnight return (previous close to open).  The first
axis follows lexically sorted symbols and the second axis strictly
increasing dates, so a panel built from the same records is always laid out
identically regardless of row order in the source.

Two tabular inputs are supported:

* bar returns: columns ``date`` (ISO-8601), ``bin`` (int), ``symbol``,
  ``return`` (simple return, decimal units);
* bar prices: columns ``date``, ``time`` (ISO time such as HH:MM, without a
  UTC offset), ``symbol``, ``price``, converted to returns by
  :func:`returns_from_prices`.

Lines starting with ``#`` are treated as comments in both formats.

Both tables go through one reader, in chunks of about :data:`CHUNK_BYTES`
of whole lines.  Each chunk is split at once, its numbers become int64 or
float64 arrays, and its dates, times and symbols become codes through one
dictionary each, kept across chunks, so each distinct text is parsed once.
A chunk holding a quote, carriage return or NUL is read by :mod:`csv`
instead, so quoting and line endings behave exactly as ``csv.reader`` reads
them.  When a chunk fails a bulk check, its rows are checked one at a time,
which reports the first bad row and its line number.  Rows move as columns
(:class:`ReturnColumns`), not as one tuple per row:
:func:`returns_from_prices` scatters the prices into a (symbol-day, stamp)
matrix and divides its columns.
:func:`load_panel` places every row in one linear (stock, day, bin) index:
one ``bincount`` finds duplicates and gaps, the load policies are masks over
the count cube, and one scatter fills the array.
:func:`write_return_records` formats the columns in blocks of
:data:`WRITE_BLOCK_ROWS` rows and returns the values parsed back from the
text it wrote, so a caller can hand on what a reader of the table gets.
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import itertools
import math
import operator
import os
from dataclasses import dataclass, field
from typing import IO, Callable, Iterable, Iterator

import numpy as np

from .config import LOAD_POLICIES, PRICE_CONVENTIONS
from .errors import (
    CompletenessError,
    DuplicateRowError,
    PanelFormatError,
    PriceDomainError,
)
from .tableio import format_cell, format_floats, open_output

#: Text read per parsing chunk, in bytes of whole lines.
CHUNK_BYTES = 4 << 20
#: Rows formatted per write of a return table.
WRITE_BLOCK_ROWS = 1 << 16
#: Characters that a plain comma split does not read the way ``csv`` does.
_CSV_ONLY = ('"', "\r", "\0")
_MAX_BIN = 2**63 - 1

#: One bar-return observation: (date, bin, symbol, value).
ReturnRecord = tuple[dt.date, int, str, float]


class _PanelView:
    """Shared accessors for objects carrying a (stock, day, bin) array."""

    returns: np.ndarray
    stock_ids: tuple[str, ...]
    dates: tuple[dt.date, ...]
    bins_per_day: int
    overnight_present: bool

    @property
    def n_stocks(self) -> int:
        return len(self.stock_ids)

    @property
    def n_days(self) -> int:
        return len(self.dates)

    @property
    def bin_numbers(self) -> np.ndarray:
        """Bin labels aligned with the last array axis (0 first if overnight)."""
        start = 0 if self.overnight_present else 1
        return np.arange(start, self.bins_per_day + 1)

    def column_of(self, bin_number: int) -> int:
        """Array column holding ``bin_number``; raises for absent bins."""
        offset = 0 if self.overnight_present else 1
        col = bin_number - offset
        if not 0 <= col < self.returns.shape[2] or bin_number < 0:
            raise ValueError(f"bin {bin_number} not present in panel")
        return col

    def intraday_returns(self) -> np.ndarray:
        """View of bins 1..K, shape (n_stocks, n_days, bins_per_day)."""
        if self.overnight_present:
            return self.returns[:, :, 1:]
        return self.returns

    def overnight_returns(self) -> np.ndarray | None:
        """View of bin 0, shape (n_stocks, n_days), or None if absent."""
        if self.overnight_present:
            return self.returns[:, :, 0]
        return None


@dataclass(frozen=True)
class ReturnPanel(_PanelView):
    """Dense panel of simple returns, immutable after construction.

    ``returns`` has shape (n_stocks, n_days, bins_per_day + 1) when
    ``overnight_present`` (column 0 is the overnight bin), otherwise
    (n_stocks, n_days, bins_per_day).
    """

    returns: np.ndarray
    stock_ids: tuple[str, ...]
    dates: tuple[dt.date, ...]
    bins_per_day: int
    overnight_present: bool

    def __post_init__(self):
        arr = np.asarray(self.returns, dtype=np.float64)
        n_cols = self.bins_per_day + (1 if self.overnight_present else 0)
        expect = (len(self.stock_ids), len(self.dates), n_cols)
        if arr.ndim != 3 or arr.shape != expect:
            raise ValueError(f"returns shape {arr.shape} does not match metadata {expect}")
        if self.bins_per_day < 1:
            raise ValueError("bins_per_day must be >= 1")
        arr = arr.copy() if arr is self.returns else arr
        arr.flags.writeable = False
        object.__setattr__(self, "returns", arr)
        object.__setattr__(self, "stock_ids", tuple(self.stock_ids))
        object.__setattr__(self, "dates", tuple(self.dates))


@dataclass
class LoadReport:
    """What happened while assembling a panel from records."""

    rows_read: int = 0
    stocks_dropped: list[tuple[str, str]] = field(default_factory=list)
    days_dropped: list[tuple[str, str]] = field(default_factory=list)
    fills_applied: int = 0
    warnings: list[str] = field(default_factory=list)

    @property
    def is_clean(self) -> bool:
        return not (self.stocks_dropped or self.days_dropped or self.fills_applied)

    def lines(self) -> list[str]:
        out = [f"rows_read = {self.rows_read}", f"fills_applied = {self.fills_applied}"]
        out.append(f"stocks_dropped = {len(self.stocks_dropped)}")
        out.extend(f"  {sym}: {why}" for sym, why in self.stocks_dropped)
        out.append(f"days_dropped = {len(self.days_dropped)}")
        out.extend(f"  {day}: {why}" for day, why in self.days_dropped)
        out.extend(f"warning: {w}" for w in self.warnings)
        return out


@dataclass
class ValidationReport:
    """Report-only invariant check results for a constructed panel."""

    violations: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        out = [f"ok = {str(self.ok).lower()}"]
        out.extend(f"violation: {v}" for v in self.violations)
        out.extend(f"warning: {w}" for w in self.warnings)
        return out


@dataclass(frozen=True, eq=False)
class ReturnColumns:
    """Bar-return observations as columns.

    Row ``i`` is ``(dates[date_index[i]], bins[i], symbols[symbol_index[i]],
    values[i])``.  ``dates`` and ``symbols`` hold the keys the rows point
    into; each is used by some row, but they need not be sorted or
    distinct.  ``len()`` is the row count, and iteration yields the rows as
    :data:`ReturnRecord` tuples in order.
    """

    dates: tuple
    symbols: tuple
    date_index: np.ndarray
    bins: np.ndarray
    symbol_index: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[ReturnRecord]:
        return zip(
            map(self.dates.__getitem__, self.date_index.tolist()),
            self.bins.tolist(),
            map(self.symbols.__getitem__, self.symbol_index.tolist()),
            self.values.tolist(),
        )

    @classmethod
    def from_records(cls, records: Iterable[ReturnRecord]) -> ReturnColumns:
        rows = list(records)
        dates, bins, symbols, values = (
            list(map(operator.itemgetter(i), rows)) for i in range(4)
        )
        date_keys, date_index = _factorize(dates)
        symbol_keys, symbol_index = _factorize(symbols)
        return cls(
            date_keys,
            symbol_keys,
            date_index,
            np.array(bins, dtype=np.int64),
            symbol_index,
            np.array(values, dtype=np.float64),
        )

    def canonical_keys(self) -> tuple[tuple, np.ndarray, tuple, np.ndarray]:
        """Sorted distinct dates and symbols, with each row's position in them."""
        dates, date_pos = _factorize(self.dates)
        symbols, symbol_pos = _factorize(self.symbols)
        return dates, date_pos[self.date_index], symbols, symbol_pos[self.symbol_index]


def _factorize(keys) -> tuple[tuple, np.ndarray]:
    """Sorted distinct ``keys`` and the position of each key among them."""
    distinct = sorted(set(keys))
    position = {key: i for i, key in enumerate(distinct)}
    codes = np.fromiter(map(position.__getitem__, keys), np.intp, len(keys))
    return tuple(distinct), codes


class _KeyCodes(dict):
    """Integer codes for key text, kept across chunks.

    A text seen for the first time is parsed by ``parse``, which raises
    ValueError for a bad one; ``parsed`` lists the keys in code order.
    """

    def __init__(self, parse: Callable[[str], object]):
        super().__init__()
        self.parse = parse
        self.parsed: list = []

    def __missing__(self, text: str) -> int:
        self.parsed.append(self.parse(text))
        code = self[text] = len(self.parsed) - 1
        return code

    def codes(self, texts: list[str]) -> np.ndarray:
        return np.fromiter(map(self.__getitem__, texts), np.intp, len(texts))


def _open_text(source: str | os.PathLike | IO[str]) -> tuple[IO[str], bool]:
    if isinstance(source, (str, os.PathLike)):
        return open(source, "r", newline="", encoding="utf-8"), True
    return source, False


def _is_comment(first_field: str) -> bool:
    return first_field.lstrip().startswith("#")


def _table_chunks(
    source, columns: tuple[str, ...]
) -> Iterator[tuple[list[list[str]] | None, Iterator[tuple[int, list[str]]]]]:
    """Yield a table's data rows chunk by chunk, as ``(tokens, rows)``.

    The header row must contain every name in ``columns``; extra columns are
    ignored.  Comment lines (leading ``#``) and blank lines are skipped.
    ``rows`` yields ``(line_number, fields)`` for each data row, the fields
    stripped and in ``columns`` order, and raises :class:`PanelFormatError`
    at a row with the wrong field count.  ``tokens`` holds the unstripped
    text of each requested column for bulk conversion; it is None when some
    row of the chunk has the wrong field count.
    """
    handle, owned = _open_text(source)
    try:
        reader = csv.reader(handle)
        header = next((row for row in reader if row and not _is_comment(row[0])), None)
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
        line_num = reader.line_num
        while lines := handle.readlines(CHUNK_BYTES):
            text = "".join(lines)
            if any(c in text for c in _CSV_ONLY):
                # A quoted field may run past the chunk: the reader then
                # takes the lines it needs from the handle.
                reader = csv.reader(itertools.chain(lines, handle))
                rows = []
                for row in reader:
                    if row and not _is_comment(row[0]):
                        rows.append((line_num + reader.line_num, row))
                    if reader.line_num >= len(lines):
                        break
                line_num += reader.line_num
                tokens = None
                if all(len(row) == width for _, row in rows):
                    tokens = [[row[i] for _, row in rows] for i in order]
            else:
                first = line_num + 1
                line_num += len(lines)
                numbered = zip(itertools.count(first), lines)
                if "#" in text or "\n" in lines:
                    numbered = [
                        (num, line)
                        for num, line in numbered
                        if line != "\n" and not _is_comment(line)
                    ]
                    lines = [line for _, line in numbered]
                tokens = _split_columns(lines, width, order)
                rows = ((num, line.rstrip("\n").split(",")) for num, line in numbered)
            yield tokens, _checked(rows, width, order)
    finally:
        if owned:
            handle.close()


def _split_columns(lines: list[str], width: int, order: list[int]):
    """Columns ``order`` of the comma-split ``lines``, or None unless every
    line has exactly ``width`` fields."""
    if not lines:
        return [[] for _ in order]
    tokens = ",".join(lines).split(",")
    # Each line holds one newline, at its end; the lines all have ``width``
    # fields exactly when every newline falls in a last-column token.
    newlines = len(lines) - (not lines[-1].endswith("\n"))
    if (
        len(tokens) != width * len(lines)
        or "".join(tokens[width - 1 :: width]).count("\n") != newlines
    ):
        return None
    return [tokens[i::width] for i in order]


def _checked(rows, width: int, order: list[int]) -> Iterator[tuple[int, list[str]]]:
    for line_num, row in rows:
        if len(row) != width:
            raise PanelFormatError(f"expected {width} fields, got {len(row)}", line_num)
        yield line_num, [row[i].strip() for i in order]


def _read_table(source, columns: dict[str, tuple]) -> list[np.ndarray]:
    """Read the named columns of a table as one array each.

    ``columns`` maps each name to ``(convert, parse)``: ``convert`` turns a
    chunk's texts into an array, ``parse`` one stripped text, and each
    raises ValueError (``convert`` also OverflowError) on a bad text.  A
    chunk that fails is checked row by row, each row's columns in the order
    ``columns`` lists them, and the first bad row raises
    :class:`PanelFormatError` with the message of ``parse``.
    """
    converts, parses = zip(*columns.values())
    parts = [[convert([]) for convert in converts]]
    for tokens, rows in _table_chunks(source, tuple(columns)):
        if tokens is None:
            _raise_first_bad_row(rows, parses)
        try:
            parts.append([convert(texts) for convert, texts in zip(converts, tokens)])
        except (ValueError, OverflowError):
            _raise_first_bad_row(rows, parses)
    return [np.concatenate(column) for column in zip(*parts)]


def _raise_first_bad_row(rows, parses) -> None:
    """Check rows one at a time and raise for the first bad one."""
    for line_num, fields in rows:
        for parse, text in zip(parses, fields):
            try:
                parse(text)
            except ValueError as exc:
                raise PanelFormatError(str(exc), line_num) from None
    raise RuntimeError("a chunk failed its bulk checks but none of its rows did")


def _parse(kind: Callable[[str], object], name: str, text: str):
    """``kind(text)``, or a ValueError naming the bad ``name``."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"bad {name} {text!r}") from None


def _date_key(text: str) -> dt.date:
    return _parse(dt.date.fromisoformat, "date", text.strip())


def _time_key(text: str) -> dt.time:
    stamp = _parse(dt.time.fromisoformat, "time", text.strip())
    if stamp.tzinfo is not None:
        # naive and offset times do not compare, so stamps could not be ordered
        raise ValueError(f"bad time {text.strip()!r}")
    return stamp


def _symbol_key(text: str) -> str:
    symbol = text.strip()
    if not symbol:
        raise ValueError("empty symbol")
    return symbol


def _floats(texts: list[str]) -> np.ndarray:
    return np.fromiter(map(float, texts), np.float64, len(texts))


def _bins(texts: list[str]) -> np.ndarray:
    bins = np.fromiter(map(int, texts), np.int64, len(texts))
    if (bins < 0).any():
        raise ValueError("negative bin")
    return bins


def _bin(text: str) -> int:
    bin_number = _parse(int, "bin", text)
    if bin_number < 0:
        raise ValueError(f"negative bin {bin_number}")
    if bin_number > _MAX_BIN:
        raise ValueError(f"bin {bin_number} out of range")
    return bin_number


def _returns(texts: list[str]) -> np.ndarray:
    values = _floats(texts)
    if not np.isfinite(values).all():
        raise ValueError("non-finite return")
    return values


def _return(text: str) -> float:
    value = _parse(float, "return", text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite return {text!r}")
    return value


def read_return_records(source: str | os.PathLike | IO[str]) -> ReturnColumns:
    """Parse a bar-return table into columns, with row numbers on errors."""
    dates, symbols = _KeyCodes(_date_key), _KeyCodes(_symbol_key)
    date_index, bins, values, symbol_index = _read_table(
        source,
        {
            "date": (dates.codes, dates.parse),
            "bin": (_bins, _bin),
            "return": (_returns, _return),
            "symbol": (symbols.codes, symbols.parse),
        },
    )
    return ReturnColumns(
        tuple(dates.parsed), tuple(symbols.parsed), date_index, bins, symbol_index, values
    )


def _first_repeat(keys: np.ndarray) -> int:
    """Position of the earliest element equal to an element before it, or
    ``len(keys)`` if the elements are distinct."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    return int(order[1:][ordered[1:] == ordered[:-1]].min(initial=len(keys)))


def load_panel(
    source: str | os.PathLike | IO[str] | Iterable[ReturnRecord],
    policy: str = "strict",
) -> tuple[ReturnPanel, LoadReport]:
    """Assemble a dense panel from a bar-return table, columns or records.

    ``policy`` controls how missing (date, bin, symbol) cells are handled:

    * ``strict``: any gap raises :class:`CompletenessError` naming the first
      missing cell;
    * ``drop-incomplete``: days with a market-wide missing bin are dropped,
      then stocks with remaining gaps are dropped, with reasons recorded;
    * ``zero-fill``: gaps become 0.0 returns and are counted in the report.

    Duplicate cells raise :class:`DuplicateRowError` under every policy,
    naming the first row that repeats a cell.  The result is canonically
    ordered (sorted symbols, ascending dates), so row order in the source
    never affects the panel.
    """
    if policy not in LOAD_POLICIES:
        raise ValueError(f"unknown policy {policy!r}, expected one of {LOAD_POLICIES}")
    if isinstance(source, (str, os.PathLike)) or hasattr(source, "read"):
        columns = read_return_records(source)
    elif isinstance(source, ReturnColumns):
        columns = source
    else:
        columns = ReturnColumns.from_records(source)

    report = LoadReport(rows_read=len(columns))
    if not len(columns):
        raise CompletenessError("no data rows")

    dates, day, symbols, stock = columns.canonical_keys()
    bins = columns.bins
    if bins.min() < 0:
        raise PanelFormatError(f"negative bin {bins.min()}")
    overnight = bool((bins == 0).any())
    k_max = int(bins.max())
    offset = 0 if overnight else 1
    shape = (len(symbols), len(dates), k_max + 1 - offset)
    cell = np.ravel_multi_index((stock, day, bins - offset), shape)
    counts = np.bincount(cell, minlength=math.prod(shape)).reshape(shape)
    if counts.max() > 1:
        row = _first_repeat(cell)
        raise DuplicateRowError(
            f"duplicate cell date={dates[day[row]].isoformat()} "
            f"bin={bins[row]} symbol={symbols[stock[row]]}"
        )
    if k_max < 1:
        raise CompletenessError("no intraday bins (only bin 0 present)")

    present = counts > 0
    keep_stock = np.ones(shape[0], dtype=bool)
    keep_day = np.ones(shape[1], dtype=bool)
    if policy == "strict" and not present.all():
        # the first gap in (date, bin, symbol) order
        t, c, a = np.unravel_index(
            np.argmin(present.transpose(1, 2, 0)), (shape[1], shape[2], shape[0])
        )
        raise CompletenessError(
            f"missing cell date={dates[t].isoformat()} "
            f"bin={c + offset} symbol={symbols[a]}"
        )
    if policy == "drop-incomplete":
        # A bin absent for every symbol on a date is a market-wide gap: the
        # day goes.  Remaining gaps are stock-specific: the stock goes.
        day_gaps = ~present.any(axis=0)
        keep_day = ~day_gaps.any(axis=1)
        bin_numbers = np.arange(offset, k_max + 1)
        for t in np.flatnonzero(~keep_day):
            report.days_dropped.append(
                (
                    dates[t].isoformat(),
                    f"no symbol has bin(s) {bin_numbers[day_gaps[t]].tolist()}",
                )
            )
        if keep_day.any():
            missing = (~present[:, keep_day]).sum(axis=(1, 2))
            keep_stock = missing == 0
            for a in np.flatnonzero(~keep_stock):
                report.stocks_dropped.append(
                    (symbols[a], f"{missing[a]} missing cell(s) on kept days")
                )
        if not keep_day.any() or not keep_stock.any():
            raise CompletenessError(
                "no complete days/stocks remain under drop-incomplete"
            )

    array = np.zeros(counts.size)
    array[cell] = columns.values
    kept = np.ix_(keep_stock, keep_day)
    array = array.reshape(shape)[kept]
    present = present[kept]
    symbols = tuple(itertools.compress(symbols, keep_stock))
    dates = tuple(itertools.compress(dates, keep_day))

    n_missing = present.size - int(np.count_nonzero(present))
    if n_missing:
        # Only reachable under zero-fill: strict raised, drop-incomplete pruned.
        report.fills_applied = n_missing
        report.warnings.append(f"zero-filled {n_missing} missing cell(s)")

    panel = ReturnPanel(
        returns=array,
        stock_ids=symbols,
        dates=dates,
        bins_per_day=k_max,
        overnight_present=overnight,
    )
    return panel, report


def returns_from_prices(
    source: str | os.PathLike | IO[str], convention: str = "close_to_close"
) -> ReturnColumns:
    """Convert a bar-price table (columns date, time, symbol, price) into
    bar-return columns.

    Every (symbol, date) group must carry the same grid of time stamps,
    ordered by the time they denote.  Two stamp conventions are supported:

    * ``close_to_close`` (default): the stamps are the K bin closes.  Bins
      2..K are close-to-close returns within the day; bin 1 runs from the
      previous day's last close, so it absorbs the overnight gap, and no
      bin-0 rows are produced.  The first day yields bins 2..K only.
    * ``bin_open``: the stamps are the K bin opens plus the day's close
      (K+1 stamps).  Bin k runs from its open to the next stamp, and bin 0
      (overnight, open over previous close) is emitted from the second day
      on.

    Either way the first day is incomplete, so downstream loading normally
    pairs with the ``drop-incomplete`` policy.  A non-positive or non-finite
    price raises :class:`PriceDomainError` and a stamp repeated within a
    group :class:`DuplicateRowError`, whichever comes first in the table.
    """
    if convention not in PRICE_CONVENTIONS:
        raise ValueError(
            f"unknown convention {convention!r}, expected one of {PRICE_CONVENTIONS}"
        )
    dates, stamps = _KeyCodes(_date_key), _KeyCodes(_time_key)
    symbols = _KeyCodes(_symbol_key)
    date_code, stamp_code, price, symbol_code = _read_table(
        source,
        {
            "date": (dates.codes, dates.parse),
            "time": (stamps.codes, stamps.parse),
            "price": (_floats, functools.partial(_parse, float, "price")),
            "symbol": (symbols.codes, symbols.parse),
        },
    )
    if not len(price):
        raise CompletenessError("no price rows")

    # Keys by the value they denote, in order: texts that differ only in
    # spacing or spelling (10:00 and 10:00:00) are one key.
    date_keys, day = _factorize(dates.parsed)
    stamp_keys, stamp = _factorize(stamps.parsed)
    symbol_keys, stock = _factorize(symbols.parsed)
    day, stamp, stock = day[date_code], stamp[stamp_code], stock[symbol_code]
    n_stamps = len(stamp_keys)
    cell = np.ravel_multi_index(
        (stock, day, stamp), (len(symbol_keys), len(date_keys), n_stamps)
    )
    # The first bad row wins; a bad price before a repeated stamp.
    bad = ~(np.isfinite(price) & (price > 0))
    bad_price = np.flatnonzero(bad).min(initial=len(price))
    row = min(bad_price, _first_repeat(cell))
    if row < len(price):
        where = (
            f"{symbol_keys[stock[row]]} {date_keys[day[row]].isoformat()} "
            f"{list(stamps)[stamp_code[row]].strip()}"
        )
        if row == bad_price:
            kind = "non-positive" if np.isfinite(price[row]) else "non-finite"
            raise PriceDomainError(f"{kind} price {price[row]} for {where}")
        raise DuplicateRowError(f"duplicate stamp {where}")

    groups, group_index, sizes = np.unique(
        cell // n_stamps, return_inverse=True, return_counts=True
    )
    if (sizes != n_stamps).any():
        raise CompletenessError(
            "inconsistent time grids across symbol-days "
            f"(sizes {np.unique(sizes).tolist()}); "
            "price ingestion requires one uniform bar clock"
        )
    if n_stamps < 2:
        raise CompletenessError("need at least two stamps per day")

    # One row per (symbol, day) in that order, one column per stamp; from
    # here on ``stock`` and ``day`` label those rows.
    prices = np.empty((len(groups), n_stamps))
    prices[group_index, stamp] = price
    stock, day = np.divmod(groups, len(date_keys))
    # Column 0 is the return from the symbol's previous day's last price, in
    # bin 1 (close_to_close) or bin 0 (bin_open); the bins after it are
    # within the day.
    returns = np.empty_like(prices)
    returns[:, 1:] = prices[:, 1:] / prices[:, :-1] - 1.0
    returns[1:, 0] = prices[1:, 0] / prices[:-1, -1] - 1.0
    kept = np.ones(returns.shape, dtype=bool)
    kept[:, 0] = np.r_[False, stock[1:] == stock[:-1]]
    row, column = np.nonzero(kept)
    first_bin = 1 if convention == "close_to_close" else 0
    return ReturnColumns(
        date_keys, symbol_keys, day[row], column + first_bin, stock[row], returns[kept]
    )


def validate_panel(panel: ReturnPanel, sanity_bound: float = 0.5) -> ValidationReport:
    """Check panel invariants without raising; extreme cells become warnings.

    Violations cover structural problems (too few stocks or days, non-finite
    cells, unsorted or duplicate dates, duplicate symbols).  Cells with
    ``|return| > sanity_bound`` are listed as warnings only: suspicious, not
    invalid.
    """
    report = ValidationReport()
    arr = panel.returns
    n_cols = panel.bins_per_day + (1 if panel.overnight_present else 0)
    if arr.shape != (panel.n_stocks, panel.n_days, n_cols):
        report.violations.append(
            f"array shape {arr.shape} inconsistent with metadata"
        )
        return report
    if panel.n_stocks < 2:
        report.violations.append(f"need at least 2 stocks, have {panel.n_stocks}")
    if panel.n_days < 2:
        report.violations.append(f"need at least 2 days, have {panel.n_days}")
    if panel.bins_per_day < 1:
        report.violations.append("need at least 1 intraday bin")

    bad = ~np.isfinite(arr)
    if bad.any():
        locs = np.argwhere(bad)
        shown = ", ".join(
            f"({panel.stock_ids[a]}, {panel.dates[t].isoformat()}, bin {panel.bin_numbers[c]})"
            for a, t, c in locs[:5]
        )
        report.violations.append(f"{len(locs)} non-finite cell(s): {shown}")

    for i in range(1, panel.n_days):
        if panel.dates[i] <= panel.dates[i - 1]:
            report.violations.append(
                f"dates not strictly increasing at index {i} "
                f"({panel.dates[i - 1].isoformat()} -> {panel.dates[i].isoformat()})"
            )
    if len(set(panel.stock_ids)) != panel.n_stocks:
        report.violations.append("duplicate stock ids")

    with np.errstate(invalid="ignore"):
        extreme = np.abs(arr) > sanity_bound
    extreme &= np.isfinite(arr)
    if extreme.any():
        locs = np.argwhere(extreme)
        shown = ", ".join(
            f"({panel.stock_ids[a]}, {panel.dates[t].isoformat()}, bin {panel.bin_numbers[c]})"
            for a, t, c in locs[:10]
        )
        report.warnings.append(
            f"{len(locs)} cell(s) with |return| > {sanity_bound:g}: {shown}"
        )
    return report


def panel_to_records(panel: ReturnPanel) -> ReturnColumns:
    """The panel's cells as columns, in (day, bin, stock) array order."""
    n_stocks, n_days, n_cols = panel.returns.shape
    return ReturnColumns(
        dates=panel.dates,
        symbols=panel.stock_ids,
        date_index=np.repeat(np.arange(n_days), n_cols * n_stocks),
        bins=np.tile(np.repeat(panel.bin_numbers, n_stocks), n_days),
        symbol_index=np.tile(np.arange(n_stocks), n_days * n_cols),
        values=panel.returns.transpose(1, 2, 0).reshape(-1),
    )


def write_return_records(
    records: ReturnColumns | Iterable[ReturnRecord],
    destination: str | os.PathLike | IO[str],
) -> np.ndarray:
    """Write records as a canonical bar-return table (stable float format).

    Rows are sorted by (date, bin, symbol), keeping input order among equal
    keys; symbols are quoted only where CSV needs it.  Returns each
    record's value as the table reads it back, in the records' order.  A
    value whose text reads back as non-finite raises
    :class:`PanelFormatError` before a path destination is replaced.
    """
    if not isinstance(records, ReturnColumns):
        records = ReturnColumns.from_records(records)
    dates, day, symbols, stock = records.canonical_keys()
    order = np.lexsort((stock, records.bins, day))
    date_text = [date.isoformat() for date in dates]
    symbol_text = [format_cell(symbol) for symbol in symbols]
    written = np.empty(len(order))
    with open_output(destination) as handle:
        handle.write("# schema-version: 1\n")
        handle.write("date,bin,symbol,return\n")
        for start in range(0, len(order), WRITE_BLOCK_ROWS):
            block = order[start : start + WRITE_BLOCK_ROWS]
            value_text, written[block] = format_floats(records.values[block])
            handle.write(
                "".join(
                    [
                        f"{date_text[t]},{b},{symbol_text[a]},{v}\n"
                        for t, b, a, v in zip(
                            day[block].tolist(),
                            records.bins[block].tolist(),
                            stock[block].tolist(),
                            value_text,
                        )
                    ]
                )
            )
        if not np.isfinite(written).all():
            # raised inside the block, so a path destination is left untouched
            raise PanelFormatError(f"{destination}: a return rounds to a non-finite value")
    return written
