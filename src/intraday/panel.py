"""Panel data model and loaders for bar-return tables.

The central object is a dense three-way array of simple returns indexed by
(stock, day, bin).  Bins are numbered 1..K within the trading day; bin 0,
when present, is the overnight return (previous close to open).  The first
axis follows lexically sorted symbols and the second axis strictly
increasing dates, so a panel built from the same rows is always laid out
identically regardless of row order in the source.

Two tabular inputs are supported:

* bar returns: columns ``date`` (ISO-8601), ``bin`` (int), ``symbol``,
  ``return`` (simple return, decimal units);
* bar prices: columns ``date``, ``time`` (ISO time such as HH:MM, without a
  UTC offset), ``symbol``, ``price``, converted to returns by
  :func:`returns_from_prices`.

Both are read by :func:`intraday.tableio.read_columns`, which owns the
table grammar (header search, comments, quoting, field counts and
row-numbered errors).  This module supplies what the columns mean: dates,
times and symbols become int32 codes through one dictionary each
(:class:`_KeyCodes`), kept across chunks, so each distinct text is parsed
once, and bins, returns and prices become int64 or float64 arrays.  Rows
move as columns (:class:`ReturnColumns`), the one form of return rows.
:func:`returns_from_prices` places every price row in one linear (symbol,
day, stamp) index, and one boolean occupancy array over it finds repeated
stamps, uneven time grids and the symbol-days present, with no sort; the
prices fill a (symbol-day, stamp) matrix that becomes the returns in place.
:func:`load_panel` places every row of the columns in one linear (stock,
day, bin) index: one occupancy cube finds duplicates and gaps, the load
policies are masks over it, and a scatter by blocks of rows fills the array.
Indices are 32-bit where they fit and each transient goes after its last
use, so each peaks at about 1.5 copies of its 20-byte rows, a chunk aside.
:func:`write_return_records` hands a canonical panel's cells to
:func:`intraday.tableio.write_table` in (date, bin, symbol) order, keys as
codes into the panel's labels, and returns the returns parsed back from the
text it wrote, so a caller can hand on what a reader of the table gets.
:func:`read_canonical_panel` reads such a table straight into a panel, or
gives None where the general reader must read it; both give the same panel.
"""

from __future__ import annotations

import datetime as dt
import itertools
import math
import os
from dataclasses import InitVar, dataclass, field
from typing import IO, Callable

import numpy as np

from .config import LOAD_POLICIES, PRICE_CONVENTIONS, RunConfig
from .errors import (
    CompletenessError,
    DuplicateRowError,
    PanelFormatError,
    PriceDomainError,
)
from .tableio import CHUNK_BYTES, VERSION_LINE, finite, load_lines, read_columns, write_table

_MAX_BIN = 2**63 - 1


@dataclass(frozen=True)
class ReturnPanel:
    """Dense (stock, day, bin) panel of returns, immutable after construction.

    ``returns`` holds simple returns as loaded or, in a panel that
    :func:`~intraday.cross_section.normalize_panel` built, those returns
    divided by their (bin, day) cross-sectional dispersion.  Its shape is
    (n_stocks, n_days, bins_per_day + 1) when ``overnight_present`` (column
    0 is the overnight bin), otherwise (n_stocks, n_days, bins_per_day).
    """

    returns: np.ndarray
    stock_ids: tuple[str, ...]
    dates: tuple[dt.date, ...]
    bins_per_day: int
    overnight_present: bool
    # True only for a fresh C-contiguous float64 array this package just
    # built and holds nowhere else: the panel then takes it without a copy.
    _fresh: InitVar[bool] = False

    def __post_init__(self, _fresh: bool):
        arr = np.asarray(self.returns, dtype=np.float64)
        n_cols = self.bins_per_day + (1 if self.overnight_present else 0)
        expect = (len(self.stock_ids), len(self.dates), n_cols)
        if arr.ndim != 3 or arr.shape != expect:
            raise ValueError(f"returns shape {arr.shape} does not match metadata {expect}")
        if self.bins_per_day < 1:
            raise ValueError("bins_per_day must be >= 1")
        arr = arr.copy() if arr is self.returns and not _fresh else arr
        arr.flags.writeable = False
        object.__setattr__(self, "returns", arr)
        object.__setattr__(self, "stock_ids", tuple(self.stock_ids))
        object.__setattr__(self, "dates", tuple(self.dates))

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
        if not 0 <= col < self.returns.shape[2]:
            raise ValueError(f"bin {bin_number} not present in panel")
        return col


@dataclass
class LoadReport:
    """What happened while assembling a panel from return rows."""

    rows_read: int = 0
    stocks_dropped: list[tuple[str, str]] = field(default_factory=list)
    days_dropped: list[tuple[str, str]] = field(default_factory=list)
    fills_applied: int = 0
    warnings: list[str] = field(default_factory=list)

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
    distinct.  ``len()`` is the row count.
    """

    dates: tuple
    symbols: tuple
    date_index: np.ndarray
    bins: np.ndarray
    symbol_index: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


def _factorize(keys) -> tuple[tuple, np.ndarray]:
    """Sorted distinct ``keys`` and the position of each key among them."""
    distinct, codes = np.unique(np.array(keys, dtype=object), return_inverse=True)
    return tuple(distinct), codes.astype(np.int32)


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

    def codes(self, texts: np.ndarray) -> np.ndarray:
        return np.fromiter(map(self.__getitem__, texts), np.int32, len(texts))


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


def _bins(bins: np.ndarray) -> np.ndarray:
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


def read_return_records(
    source: str | os.PathLike | IO[str], versioned: bool = False
) -> ReturnColumns:
    """Parse a bar-return table into columns, with row numbers on errors.
    A ``versioned`` table, one this package wrote, must start with the
    ``# schema-version`` line."""
    dates, symbols = _KeyCodes(_date_key), _KeyCodes(_symbol_key)
    _, (date_index, bins, values, symbol_index) = read_columns(
        source,
        {
            "date": (str, dates.codes, dates.parse),
            "bin": (int, _bins, _bin),
            "return": finite("return"),
            "symbol": (str, symbols.codes, symbols.parse),
        },
        versioned=versioned,
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


def _cells(shape: tuple[int, ...], *axes: tuple, rows=slice(None)) -> np.ndarray:
    """The linear index into ``shape`` of each of ``rows``, int32 where every
    index fits, summed in place one axis at a time; per axis ``(positions,
    codes)`` give ``positions[codes]``, or ``codes`` if ``positions`` is None."""
    cell = np.zeros(len(axes[0][1][rows]), np.int32 if math.prod(shape) < 2**31 else np.intp)
    for size, (positions, codes) in zip(shape, axes):
        cell *= size
        cell += codes[rows] if positions is None else positions[codes[rows]]
    return cell


def _grid(shape: tuple[int, ...], dtype, cause: str, axes: str = "(stock, day, bin)"):
    """Flat zeros over the ``axes`` grid ``shape``, or an error that ``cause``
    makes it too large; numpy refuses a size past the address space unallocated."""
    try:
        return np.zeros(math.prod(shape), dtype)
    except (MemoryError, ValueError, OverflowError):
        size = " x ".join(map(str, shape))
        message = f"{cause} makes the {size} {axes} grid too large to allocate"
        raise PanelFormatError(message) from None


def load_panel(
    columns: ReturnColumns, policy: str = RunConfig.policy
) -> tuple[ReturnPanel, LoadReport]:
    """Assemble a dense panel from bar-return columns, as
    :func:`read_return_records` or :func:`returns_from_prices` return them.

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
    report = LoadReport(rows_read=len(columns))
    if not len(columns):
        raise CompletenessError("no data rows")

    dates, day = _factorize(columns.dates)
    symbols, stock = _factorize(columns.symbols)
    bins = columns.bins
    if bins.min() < 0:
        raise PanelFormatError(f"negative bin {bins.min()}")
    overnight = bool((bins == 0).any())
    k_max = int(bins.max())
    offset = 0 if overnight else 1
    shape = (len(symbols), len(dates), k_max + 1 - offset)
    # Before the cells, whose linear index would wrap on a grid too large.
    present = _grid(shape, bool, f"bin {k_max}").reshape(shape)
    axes = (stock, columns.symbol_index), (day, columns.date_index), (None, bins)
    cell = _cells(shape, *axes)
    cell -= offset
    present.reshape(-1)[cell] = True
    if np.count_nonzero(present) < len(cell):
        a, t, c = np.unravel_index(cell[_first_repeat(cell)], shape)
        raise DuplicateRowError(
            f"duplicate cell date={dates[t].isoformat()} "
            f"bin={c + offset} symbol={symbols[a]}"
        )
    if k_max < 1:
        raise CompletenessError("no intraday bins (only bin 0 present)")

    keep_stock, keep_day = np.ones(shape[0], dtype=bool), np.ones(shape[1], dtype=bool)
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
        report.days_dropped += [
            (dates[t].isoformat(), f"no symbol has bin(s) {bin_numbers[day_gaps[t]].tolist()}")
            for t in np.flatnonzero(~keep_day)
        ]
        if keep_day.any():
            missing = (~present[:, keep_day]).sum(axis=(1, 2))
            keep_stock = missing == 0
            report.stocks_dropped += [
                (symbols[a], f"{missing[a]} missing cell(s) on kept days")
                for a in np.flatnonzero(~keep_stock)
            ]
        if not keep_day.any() or not keep_stock.any():
            raise CompletenessError("no complete days/stocks remain under drop-incomplete")

    # The cells again, a block of rows at a time, so that no index over all
    # the rows is alive beside the array.
    del cell
    array = _grid(shape, float, f"bin {k_max}")
    for start in range(0, len(columns), 1 << 16):
        rows = slice(start, start + (1 << 16))
        array[_cells(shape, *axes, rows=rows) - offset] = columns.values[rows]
    if not (keep_stock.all() and keep_day.all()):
        # The kept cells move to the front in place, stock by stock: no stock
        # moves past its own start, so no cell is overwritten before it moves.
        present = present[np.ix_(keep_stock, keep_day)]
        size = present[0].size
        for to, a in enumerate(np.flatnonzero(keep_stock)):
            array[to * size : (to + 1) * size] = array.reshape(shape)[a, keep_day].ravel()
        array.resize(present.size, refcheck=False)
    array = array.reshape(present.shape)
    symbols = tuple(itertools.compress(symbols, keep_stock))
    dates = tuple(itertools.compress(dates, keep_day))

    n_missing = present.size - int(np.count_nonzero(present))
    if n_missing:
        # Only reachable under zero-fill: strict raised, drop-incomplete pruned.
        report.fills_applied = n_missing
        report.warnings.append(f"zero-filled {n_missing} missing cell(s)")

    panel = ReturnPanel(array, symbols, dates, k_max, overnight, _fresh=True)
    return panel, report


def read_canonical_panel(path: str | os.PathLike) -> ReturnPanel | None:
    """The panel of a return table in the layout :func:`write_return_records`
    gives it (one sorted block of symbols in every (date, bin) group, bins
    ``offset..K`` on every date, increasing dates, finite returns, only the
    characters ``+`` to ``~``), or None where it strays from that layout and
    :func:`read_return_records` plus a strict :func:`load_panel` own the
    panel or the error."""
    heads, values, block, start = [], [], None, 0
    # a byte that is not UTF-8 reads as U+FFFD, which the character check rejects
    with open(path, newline="", encoding="utf-8-sig", errors="replace") as handle:
        if handle.readline() != VERSION_LINE or handle.readline() != "date,bin,symbol,return\n":
            return None
        while text := handle.read(CHUNK_BYTES):
            text += handle.readline()
            codes = np.frombuffer(text.encode(), np.uint8)
            # line ends and "+" to "~" only (count_nonzero is far faster than any)
            if codes.max() > 126 or np.count_nonzero(codes < 43) != np.count_nonzero(codes == 10):
                return None
            del codes  # each transient goes before the next one comes
            if text.isspace():  # blank lines only, which the general reader skips
                continue
            lines = text.splitlines()  # blank ones numpy skips, as the general reader does
            del text
            if block is None:  # no key is as long as its line
                width = max(map(len, lines))
            try:
                keys = [("d", f"S{width}"), ("b", np.int64), ("s", f"S{width}"), ("r", np.float64)]
                rows = load_lines(lines, np.dtype(keys))
            except (ValueError, DeprecationWarning):
                return None
            del lines
            date, bins, symbol = rows["d"], rows["b"], rows["s"]
            if block is None:
                n_block = int(np.argmax((date != date[0]) | (bins != bins[0]))) or len(rows)
                block = symbol[:n_block].copy()
                # From here a longer key is cut to this width: it then equals
                # no symbol of the block and fails the date length check.
                width = 1 + max(len(date[0]), *map(len, block.tolist()))
            at = np.arange(start, start + len(rows)) % len(block)
            head = at == 0  # a group's first row; every other row repeats the row before
            same = (date[1:] == date[:-1]) & (bins[1:] == bins[:-1]) | head[1:]
            if not ((head[0] or (date[0], bins[0]) == previous) and same.all()
                    and (symbol == block[at]).all() and np.isfinite(rows["r"]).all()):
                return None
            heads.append((date[head], bins[head]))
            values.append(rows["r"].copy())
            previous, start = (date[-1], bins[-1]), start + len(rows)
    if block is None or start % len(block) or block[0] == b"" or (block[1:] <= block[:-1]).any():
        return None
    date, bins = (np.concatenate(column) for column in zip(*heads))
    n_bins = int(np.argmax(date != date[0])) or len(date)
    n_days, offset, k = len(date) // n_bins, int(bins[0]), int(bins[0]) + n_bins - 1
    if (offset > 1 or k < 1 or len(date) % n_bins or max(map(len, date.tolist())) >= width
            or (date.reshape(n_days, n_bins) != date[::n_bins, None]).any()
            or (bins != np.tile(np.arange(offset, k + 1), n_days)).any()):
        return None
    try:
        dates = [_date_key(text.decode()) for text in date[::n_bins].tolist()]
    except ValueError:
        return None
    if any(later <= earlier for earlier, later in zip(dates, dates[1:])):
        return None
    values = np.concatenate(values).reshape(n_days, n_bins, len(block))  # frees the parts
    returns = np.ascontiguousarray(values.transpose(2, 0, 1))
    symbols = [symbol.decode() for symbol in block.tolist()]
    return ReturnPanel(returns, symbols, dates, k, offset == 0, _fresh=True)


def returns_from_prices(
    source: str | os.PathLike | IO[str], convention: str = RunConfig.price_convention
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
    _, (date_code, stamp_code, price, symbol_code) = read_columns(
        source,
        {
            "date": (str, dates.codes, dates.parse),
            "time": (str, stamps.codes, stamps.parse),
            "price": float,
            "symbol": (str, symbols.codes, symbols.parse),
        },
    )
    if not len(price):
        raise CompletenessError("no price rows")

    # Keys by the value they denote, in order: texts that differ only in
    # spacing or spelling (10:00 and 10:00:00) are one key.
    date_keys, day = _factorize(dates.parsed)
    stamp_keys, stamp = _factorize(stamps.parsed)
    symbol_keys, stock = _factorize(symbols.parsed)
    shape = (len(symbol_keys), len(date_keys), len(stamp_keys))
    n_stamps = shape[2]
    # Whether each (symbol, day, stamp) has a row, one row per (symbol, day);
    # before the cells, whose linear index would wrap on a grid too large.
    price_grid = "the price table", "(symbol, day, stamp)"
    occupied = _grid(shape, bool, *price_grid).reshape(-1, n_stamps)
    cell = _cells(shape, (stock, symbol_code), (day, date_code), (stamp, stamp_code))
    del symbol_code, date_code
    occupied.reshape(-1)[cell] = True
    # The first bad row wins; a bad price before a repeated stamp.
    bad = ~(np.isfinite(price) & (price > 0))
    bad_price = np.flatnonzero(bad).min(initial=len(price))
    repeated = np.count_nonzero(occupied) < len(cell)  # fewer cells than rows
    row = min(bad_price, _first_repeat(cell)) if repeated else bad_price
    if row < len(price):
        a, t, _ = np.unravel_index(cell[row], shape)
        stamp_text = list(stamps)[stamp_code[row]].strip()
        where = f"{symbol_keys[a]} {date_keys[t].isoformat()} {stamp_text}"
        if row == bad_price:
            kind = "non-positive" if np.isfinite(price[row]) else "non-finite"
            raise PriceDomainError(f"{kind} price {price[row]} for {where}")
        raise DuplicateRowError(f"duplicate stamp {where}")

    sizes = np.count_nonzero(occupied, axis=1)
    del stamp_code, bad
    present = sizes > 0
    if (sizes[present] != n_stamps).any():
        raise CompletenessError(
            "inconsistent time grids across symbol-days "
            f"(sizes {np.unique(sizes[present]).tolist()}); "
            "price ingestion requires one uniform bar clock"
        )
    if n_stamps < 2:
        raise CompletenessError("need at least two stamps per day")

    # The prices in one row per (symbol, day), one column per stamp, turned
    # into returns in place; an absent row holds ones and is never read out.
    returns = _grid(shape, float, *price_grid).reshape(occupied.shape)
    returns.fill(1.0)
    returns.reshape(-1)[cell] = price
    del cell, price
    # Column 0 is the return from the symbol's previous present day's last
    # price, in bin 1 (close_to_close) or bin 0 (bin_open); the bins after it
    # are within the day.
    stock, day = np.divmod(np.arange(len(returns), dtype=np.int32), len(date_keys))
    rows = np.flatnonzero(present)
    first = returns[rows[1:], 0] / returns[rows[:-1], -1] - 1.0
    for k in range(n_stamps - 1, 0, -1):  # last first, so each divides by a price
        returns[:, k] = returns[:, k] / returns[:, k - 1] - 1.0
    returns[rows[1:], 0] = first
    # the returns read out: every stamp of a present row, but column 0 of a
    # symbol's first one
    occupied[rows, 0] = np.r_[False, stock[rows[1:]] == stock[rows[:-1]]]
    values = returns[occupied]
    del returns
    bins = np.arange(n_stamps, dtype=np.int32) + (1 if convention == "close_to_close" else 0)
    day, bins, stock = (
        np.broadcast_to(labels, occupied.shape)[occupied]
        for labels in (day[:, None], bins, stock[:, None])
    )
    return ReturnColumns(date_keys, symbol_keys, day, bins, stock, values)


def validate_panel(
    panel: ReturnPanel, sanity_bound: float = RunConfig.sanity_bound
) -> ValidationReport:
    """Check panel invariants without raising; extreme cells become warnings.

    Violations cover structural problems (too few stocks or days, non-finite
    cells, unsorted or duplicate dates, duplicate symbols).  Cells with
    ``|return| > sanity_bound`` are listed as warnings only: suspicious, not
    invalid.  So is each (stock, bin) whose return is the same on every day:
    it has no dispersion, hence no kurtosis, and the stock kurtosis profile
    is NaN in its bin.
    """
    report = ValidationReport()
    arr = panel.returns
    if panel.n_stocks < 2:
        report.violations.append(f"need at least 2 stocks, have {panel.n_stocks}")
    if panel.n_days < 2:
        report.violations.append(f"need at least 2 days, have {panel.n_days}")

    def cells(mask, limit, what):
        """``what``, led by the count of ``mask``'s cells and followed by the
        first ``limit`` of them, named; a 2-d mask is over (stock, bin)."""
        days = [f"{d.isoformat()}, " for d in panel.dates] if mask.ndim == 3 else [""]
        locs = np.argwhere(mask.reshape(mask.shape[0], -1, mask.shape[-1]))
        shown = ", ".join(
            f"({panel.stock_ids[a]}, {days[t]}bin {panel.bin_numbers[c]})"
            for a, t, c in locs[:limit]
        )
        return f"{len(locs)} {what}: {shown}"

    bad = ~np.isfinite(arr)
    if bad.any():
        report.violations.append(cells(bad, 5, "non-finite cell(s)"))

    for i in range(1, panel.n_days):
        if panel.dates[i] <= panel.dates[i - 1]:
            report.violations.append(
                f"dates not strictly increasing at index {i} "
                f"({panel.dates[i - 1].isoformat()} -> {panel.dates[i].isoformat()})"
            )
    if len(set(panel.stock_ids)) != panel.n_stocks:
        report.violations.append("duplicate stock ids")

    # bool masks only: |arr| would be a panel-sized float temporary
    with np.errstate(invalid="ignore"):
        extreme = arr > sanity_bound
        extreme |= arr < -sanity_bound
    extreme[bad] = False
    if extreme.any():
        report.warnings.append(cells(extreme, 10, f"cell(s) with |return| > {sanity_bound:g}"))

    # per (stock, bin), with no panel-sized temporary; a panel of no days has no flat series
    flat = arr.max(axis=1, initial=-np.inf) == arr.min(axis=1, initial=np.inf)
    if flat.any():
        bins = ", ".join(map(str, panel.bin_numbers[flat.any(axis=0)]))
        what = f"(stock, bin) series with the same return on every day, in bin(s) {bins}"
        report.warnings.append(cells(flat, 10, what))
    return report


def write_return_records(
    panel: ReturnPanel, destination: str | os.PathLike | IO[str]
) -> np.ndarray:
    """Write a canonical panel (as :func:`load_panel` builds it) as a return
    table in (date, bin, symbol) order; return its returns as the table reads
    them back, shaped like ``panel.returns`` and C-contiguous, held by nothing
    else.  A non-finite return raises."""
    if not np.isfinite(panel.returns).all():  # the table's reader would reject it
        raise PanelFormatError(f"{destination}: a return is not finite")
    n_stocks, n_days, n_cols = panel.returns.shape
    shape = (n_days * n_cols, n_stocks)  # one row of symbols per (date, bin)
    read_back = write_table(
        destination,
        {
            "date": np.broadcast_to(np.repeat(np.arange(n_days), n_cols)[:, None], shape),
            "bin": np.broadcast_to(np.tile(np.arange(n_cols), n_days)[:, None], shape),
            "symbol": np.broadcast_to(np.arange(n_stocks), shape),
            "return": panel.returns.transpose(1, 2, 0).reshape(shape),
        },
        labels={"date": panel.dates, "bin": panel.bin_numbers, "symbol": panel.stock_ids},
    )["return"]
    # read back in the order of the transposed returns: a C-contiguous view
    return read_back.T.reshape(n_stocks, n_days, n_cols)
