"""Bar-return rows as tests write them: (date, bin, symbol, value) tuples.

Rows reach the package as a return table's text, read back by
``read_return_records``, and come out of its columns again for comparison.
Symbols must need no quoting.
"""

import io

from intraday.panel import read_return_records


def read_rows(rows):
    """The columns of a return table holding ``rows`` in order."""
    lines = ["date,bin,symbol,return"]
    lines += [f"{d.isoformat()},{b},{s},{float(v)!r}" for d, b, s, v in rows]
    return read_return_records(io.StringIO("\n".join(lines) + "\n"))


def rows_of(columns):
    """The rows ``columns`` hold, in order."""
    return list(
        zip(
            [columns.dates[i] for i in columns.date_index],
            columns.bins.tolist(),
            [columns.symbols[i] for i in columns.symbol_index],
            columns.values.tolist(),
        )
    )
