"""Peak memory of the staged data path's reads.

A table read holds about one copy of the columns it returns plus one parse
chunk of ``CHUNK_BYTES``, and the price conversion about one copy more, so
on a table many chunks long the tracemalloc peak of either stays within a
small multiple of the returned columns' bytes.
"""

import datetime as dt
import os
import tracemalloc

import numpy as np
import pytest

from intraday.panel import read_return_records, returns_from_prices
from intraday.tableio import CHUNK_BYTES

# 100 symbols x 52 days x 78 five-minute bars: 405,600 rows, about 14 MB
SYMBOLS = [f"S{i:04d}" for i in range(100)]
DATES = [(dt.date(2020, 1, 6) + dt.timedelta(days=d)).isoformat() for d in range(52)]
STAMPS = [f"{9 + (30 + 5 * k) // 60:02d}:{(30 + 5 * k) % 60:02d}" for k in range(78)]


def _write_table(path, header, keys, values):
    """A table of (date, key, symbol, value) rows, dates outermost."""
    cells = ((d, k, s) for d in DATES for k in keys for s in SYMBOLS)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(header + "\n")
        handle.writelines(f"{d},{k},{s},{v:.10g}\n" for (d, k, s), v in zip(cells, values))
    assert os.path.getsize(path) > 10 * CHUNK_BYTES


def _peak_per_column_byte(read, path):
    """tracemalloc peak of ``read(path)`` over the bytes of the columns it returns."""
    tracemalloc.start()
    try:
        columns = read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = (columns.date_index, columns.bins, columns.symbol_index, columns.values)
    return peak / sum(a.nbytes for a in arrays)


def test_return_read_holds_one_copy_of_its_columns_and_a_chunk(tmp_path):
    path = tmp_path / "returns.csv"
    n_rows = len(DATES) * len(STAMPS) * len(SYMBOLS)
    values = np.random.default_rng(0).normal(0, 0.01, n_rows).tolist()
    _write_table(path, "date,bin,symbol,return", range(1, len(STAMPS) + 1), values)
    # 1.6 with 1 MiB chunks joined column by column
    assert _peak_per_column_byte(read_return_records, path) < 2.0


def test_price_conversion_holds_one_copy_of_its_columns_and_a_chunk(tmp_path):
    path = tmp_path / "prices.csv"
    n_rows = len(DATES) * len(STAMPS) * len(SYMBOLS)
    values = np.random.default_rng(0).uniform(10, 20, n_rows).tolist()
    _write_table(path, "date,time,symbol,price", STAMPS, values)
    # 1.7 with one bincount over the cells and no sort
    assert _peak_per_column_byte(returns_from_prices, path) < 2.25
