"""Delimited text tables with an explicit schema version.

Every stage output starts with ``# schema-version: 1`` followed by a
comma-separated header and data rows.  Floats print at 10 significant
digits with a ``.`` decimal mark regardless of locale, so identical inputs
produce byte-identical files.  Text cells are quoted CSV-style only when
they would otherwise be split or read as a comment, and tables written to
a path appear there only once complete.
"""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .config import FLOAT_FORMAT, format_float
from .errors import SchemaError

SCHEMA_VERSION = 1
_PREFIX = "# schema-version:"
_QUOTE_TRIGGERS = (",", '"', "\r", "\n")


def format_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int,)) and not isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if value is None:
        return "nan"
    text = str(value)
    if text.startswith("#") or any(c in text for c in _QUOTE_TRIGGERS):
        return '"' + text.replace('"', '""') + '"'
    return text


def format_floats(values) -> tuple[list[str], np.ndarray]:
    """Each value's table text, and the values as a reader parses them back
    from it: 10 significant digits, -0 read as 0, shaped like ``values``."""
    values = np.asarray(values, dtype=np.float64)
    # ``format_float`` without a Python call per value; + 0.0 folds -0
    texts = list(map(FLOAT_FORMAT.__mod__, (values.ravel() + 0.0).tolist()))
    parsed = np.fromiter(map(float, texts), np.float64, len(texts))
    return texts, parsed.reshape(values.shape)


@contextmanager
def open_output(destination: str | os.PathLike | IO[str]) -> Iterator[IO[str]]:
    """Text handle for writing a table to ``destination``.

    A path is written through a temporary file in the same directory that
    replaces the destination only when the block completes, so a failed
    write leaves any earlier file intact and no partial file behind.
    """
    if not isinstance(destination, (str, os.PathLike)):
        yield destination
        return
    path = os.fspath(destination)
    head, tail = os.path.split(path)
    temp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(temp, "w", newline="", encoding="utf-8") as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        if os.path.exists(temp):
            os.remove(temp)
        raise


def write_table(
    destination: str | os.PathLike | IO[str],
    header: Sequence[str],
    rows: Iterable[Sequence],
) -> None:
    with open_output(destination) as handle:
        handle.write(f"{_PREFIX} {SCHEMA_VERSION}\n")
        handle.write(",".join(header) + "\n")
        for row in rows:
            if len(row) != len(header):
                raise ValueError(
                    f"row width {len(row)} does not match header width {len(header)}"
                )
            handle.write(",".join(format_cell(v) for v in row) + "\n")


def read_table(
    source: str | os.PathLike | IO[str], expect_columns: Sequence[str] | None = None
) -> tuple[list[str], list[list[str]]]:
    """Read a versioned table; wrong or missing version is a schema error.

    Lines starting with ``#`` after the version line are comments, except
    inside a quoted cell; the rest is parsed as CSV, so quoted cells
    round-trip.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", newline="", encoding="utf-8") as handle:
            return _read_versioned(handle, expect_columns)
    return _read_versioned(source, expect_columns)


def _read_versioned(source: IO[str], expect_columns: Sequence[str] | None):
    first = source.readline()
    if not first.startswith(_PREFIX):
        raise SchemaError("missing '# schema-version' line")
    version_text = first[len(_PREFIX) :].strip()
    try:
        version = int(version_text)
    except ValueError:
        raise SchemaError(f"bad schema version {version_text!r}") from None
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"schema version {version} unsupported (expected {SCHEMA_VERSION})"
        )
    rows = [row for row in csv.reader(_data_lines(source)) if row]
    if not rows:
        raise SchemaError("table has no header row")
    header = rows[0]
    if expect_columns is not None:
        missing = [c for c in expect_columns if c not in header]
        if missing:
            raise SchemaError(f"table lacks required column(s) {missing}")
    return header, rows[1:]


def _data_lines(lines: Iterable[str]) -> Iterator[str]:
    """The lines that are not comments.  A line starting with ``#`` is a
    comment only where a record starts, not inside a quoted cell, which
    holds an odd number of quote characters up to its line break."""
    quoted = False
    for line in lines:
        if quoted or not line.startswith("#"):
            yield line
            quoted ^= line.count('"') % 2 == 1


def column(
    header: list[str], rows: list[list[str]], name: str, kind=float
) -> list:
    """Extract one typed column from read_table output."""
    try:
        i = header.index(name)
    except ValueError:
        raise SchemaError(f"no column {name!r} in table") from None
    return [kind(row[i]) for row in rows]
