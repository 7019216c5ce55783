"""Delimited text tables: the one table reader and the one table writer.

:func:`read_columns` reads every table with one grammar.  The header is
the first record that is neither blank nor a comment; a comment is a
record whose raw first line starts with ``#``, so a quoted ``"#A"`` is data.
Quoting is RFC 4180 as :mod:`csv` reads it, fields are stripped, extra
columns are ignored, and a bad row is reported with its line number.
Stage tables start with ``# schema-version: 1``, checked by a versioned read.

:func:`write_table` writes every table from columns.  Floats print at 10
significant digits with a ``.`` decimal mark regardless of locale, so
identical inputs produce byte-identical files; ints and bools print as
integers, and text is quoted CSV-style only when it would otherwise be
split or read as a comment.  A table written to a path appears there only
once complete.
"""

from __future__ import annotations

import csv
import itertools
import os
from contextlib import contextmanager, nullcontext
from typing import IO, Callable, Iterator, Sequence

import numpy as np

from .config import FLOAT_FORMAT
from .errors import PanelFormatError, SchemaError

SCHEMA_VERSION = 1
#: Text read per parsing chunk, in bytes of whole lines.
CHUNK_BYTES = 4 << 20
#: Rows formatted per block of a table write.
WRITE_BLOCK_ROWS = 1 << 16
_PREFIX = "# schema-version:"
_QUOTE_TRIGGERS = (",", '"', "\r", "\n")
#: Characters that a plain comma split does not read the way ``csv`` does.
_CSV_ONLY = ('"', "\r", "\0")


def format_cell(value) -> str:
    """``str(value)`` as a table cell, quoted CSV-style only when it would
    otherwise be split or read as a comment."""
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


class _Cells(dict):
    """Each distinct value's :func:`format_cell` text, formatted once."""

    def __missing__(self, value) -> str:
        text = self[value] = format_cell(value)
        return text


def write_table(
    destination: str | os.PathLike | IO[str], columns: dict[str, Sequence]
) -> dict[str, np.ndarray]:
    """Write ``columns``, one 1-D column per header name, as a versioned table.

    A column's dtype decides its format: floats at :data:`FLOAT_FORMAT`,
    ints and bools as integers, anything else as text by :func:`format_cell`.
    Rows are formatted in blocks of :data:`WRITE_BLOCK_ROWS`.  Returns each
    float column as a reader parses it back.  A finite value whose text reads
    back as non-finite raises :class:`PanelFormatError` before a path
    destination is replaced.
    """
    arrays = {name: np.asarray(values) for name, values in columns.items()}
    arrays |= {name: a.astype(np.int64) for name, a in arrays.items() if a.dtype == bool}
    lengths = {len(array) for array in arrays.values()} or {0}
    if len(lengths) > 1:
        raise ValueError(f"column lengths differ: {sorted(lengths)}")
    (n_rows,) = lengths
    written = {name: np.empty(n_rows) for name, a in arrays.items() if a.dtype.kind == "f"}
    cells = _Cells()
    with open_output(destination) as handle:
        handle.write(f"{_PREFIX} {SCHEMA_VERSION}\n")
        handle.write(",".join(arrays) + "\n")
        for start in range(0, n_rows, WRITE_BLOCK_ROWS):
            block = slice(start, start + WRITE_BLOCK_ROWS)
            texts = []
            for name, array in arrays.items():
                if name in written:
                    text, written[name][block] = format_floats(array[block])
                else:
                    text = list(map(cells.__getitem__, array[block].tolist()))
                texts.append(text)
            handle.write("\n".join(map(",".join, zip(*texts))) + "\n")
        for name, values in written.items():
            if (np.isfinite(arrays[name]) & ~np.isfinite(values)).any():
                raise PanelFormatError(f"{destination}: a {name} rounds to a non-finite value")
    return written


def _is_comment(line: str) -> bool:
    """Whether a record whose first line is ``line`` is a comment.  The raw
    line decides, so a quoted first cell such as ``"#A"`` is data."""
    return line.lstrip().startswith("#")


def _check_version(line: str) -> None:
    if not line.startswith(_PREFIX):
        raise SchemaError("missing '# schema-version' line")
    version_text = line[len(_PREFIX) :].strip()
    try:
        version = int(version_text)
    except ValueError:
        raise SchemaError(f"bad schema version {version_text!r}") from None
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"schema version {version} unsupported (expected {SCHEMA_VERSION})"
        )


def _header(handle: IO[str], error: type[Exception]) -> tuple[list[str], int]:
    """The first record that is neither blank nor a comment, its fields
    stripped, and the number of lines read up to its end."""
    line_num = 0
    while line := handle.readline():
        reader = csv.reader(itertools.chain([line], handle))
        row = next(reader)
        line_num += reader.line_num
        if row and not _is_comment(line):
            return [name.strip() for name in row], line_num
    raise error("empty input, no header row found")


def _positions(header: list[str], names, error: type[Exception]) -> list[int]:
    """The header position of each of ``names``, all of which it must hold."""
    missing = [name for name in names if name not in header]
    if missing:
        raise error(f"header {header} lacks required column(s) {missing}")
    return [header.index(name) for name in names]


def _table_chunks(
    handle: IO[str], line_num: int, width: int, order: list[int]
) -> Iterator[tuple[list[list[str]] | None, Iterator[tuple[int, list[str]]]]]:
    """Yield the data rows after the header chunk by chunk, as ``(tokens, rows)``.

    ``rows`` yields ``(line_number, fields)`` for each row that is neither
    blank nor a comment, the fields stripped and in ``order``, and raises
    :class:`PanelFormatError` at a row without ``width`` fields.  ``tokens``
    holds the unstripped text of each column in ``order`` for bulk
    conversion, or None when some row of the chunk has the wrong width.
    """
    while lines := handle.readlines(CHUNK_BYTES):
        text = "".join(lines)
        if any(c in text for c in _CSV_ONLY):
            # A quoted field may run past the chunk: the reader then takes
            # the lines it needs from the handle.
            reader = csv.reader(itertools.chain(lines, handle))
            rows = []
            start = 0  # the index of the line the next record starts on
            for row in reader:
                if row and not _is_comment(lines[start]):
                    rows.append((line_num + reader.line_num, row))
                start = reader.line_num
                if start >= len(lines):
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


def _typed(kind: type, name: str) -> tuple[Callable, Callable]:
    """``(convert, parse)`` of a column of ``kind``: int, float or stripped
    text.  A bad text is reported as ``bad <name> '<text>'``."""
    cast = str.strip if kind is str else kind
    dtype = {int: np.int64, float: np.float64, str: object}[kind]

    def convert(texts: list[str]) -> np.ndarray:
        return np.fromiter(map(cast, texts), dtype, len(texts))

    def parse(text: str):
        try:
            return convert([text])
        except (ValueError, OverflowError):
            raise ValueError(f"bad {name} {text!r}") from None

    return convert, parse


def _raise_first_bad_row(rows, parses) -> None:
    """Check rows one at a time and raise for the first bad one."""
    for line_num, fields in rows:
        for parse, text in zip(parses, fields):
            try:
                parse(text)
            except ValueError as exc:
                raise PanelFormatError(str(exc), line_num) from None
    raise RuntimeError("a chunk failed its bulk checks but none of its rows did")


def read_columns(
    source: str | os.PathLike | IO[str],
    columns: dict[str, type | tuple[Callable, Callable]] | None = None,
    versioned: bool = False,
) -> tuple[list[str], list[np.ndarray]]:
    """Read a table's header and the named columns, one array each.

    ``columns`` maps each name to ``int``, ``float``, ``str`` (stripped
    text) or a pair ``(convert, parse)``: ``convert`` turns a chunk's texts
    into an array, ``parse`` one stripped text, and each raises ValueError
    (``convert`` also OverflowError) on a bad text.  None reads every column
    as text.  A chunk that fails is checked row by row, and the first bad row
    raises :class:`PanelFormatError` with its line number.  A ``versioned``
    table must start with the ``# schema-version`` line, and a missing header
    or column is then a :class:`SchemaError`.
    """
    error = SchemaError if versioned else PanelFormatError
    if isinstance(source, (str, os.PathLike)):
        # utf-8-sig: a table saved with a byte-order mark reads like one without
        source = open(source, newline="", encoding="utf-8-sig")
    else:
        source = nullcontext(source)
    with source as handle:
        if versioned:
            _check_version(handle.readline())
        header, line_num = _header(handle, error)
        if columns is None:
            order = list(range(len(header)))
            specs = [_typed(str, name) for name in header]
        else:
            order = _positions(header, columns, error)
            specs = [
                spec if isinstance(spec, tuple) else _typed(spec, name)
                for name, spec in columns.items()
            ]
        converts, parses = zip(*specs)
        parts = [[convert([]) for convert in converts]]
        line_num += versioned  # the version line is line 1
        for tokens, rows in _table_chunks(handle, line_num, len(header), order):
            if tokens is None:
                _raise_first_bad_row(rows, parses)
            try:
                parts.append([convert(texts) for convert, texts in zip(converts, tokens)])
            except (ValueError, OverflowError):
                _raise_first_bad_row(rows, parses)
    return header, [np.concatenate(column) for column in zip(*parts)]


def read_table(
    source: str | os.PathLike | IO[str], expect_columns: Sequence[str] | None = None
) -> tuple[list[str], list[list[str]]]:
    """Read a versioned table as its header and rows of text, every field
    stripped.  A wrong or missing version line, header or expected column is
    a :class:`SchemaError`."""
    header, texts = read_columns(source, versioned=True)
    _positions(header, expect_columns or (), SchemaError)
    return header, list(map(list, zip(*(text.tolist() for text in texts))))


def column(header: list[str], rows: list[list[str]], name: str, kind=float) -> list:
    """Extract one typed column from read_table output."""
    try:
        i = header.index(name)
    except ValueError:
        raise SchemaError(f"no column {name!r} in table") from None
    return [kind(row[i]) for row in rows]
