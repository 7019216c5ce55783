"""Delimited text tables: the one table reader and the one table writer.

:func:`read_columns` reads every table with one grammar.  The header is
the first record that is neither blank nor a comment; a comment is a
record whose raw first line starts with ``#``, so a quoted ``"#A"`` is data.
Quoting is RFC 4180 as :mod:`csv` reads it, fields are stripped, extra
columns are ignored, and a bad row is reported with its line number.
Stage tables start with ``# schema-version: 1``, checked by a versioned read.
The rows are read in chunks of :data:`CHUNK_BYTES` (256 KiB) of whole lines:
numpy's C parser reads a plain chunk (ASCII, no quote or NUL, and no CR but
in a CRLF line end) and :mod:`csv` any other.  A chunk that either rejects
is read row by row with Python's ``int`` and ``float``, which name the first
bad row, so the grammar is Python's whichever parser ran.  Columns grow in
place chunk by chunk, so a read holds one copy of them plus one chunk.
A :func:`finite` column rejects NaN and infinite values.

:func:`open_input` opens what :func:`read_columns` and the ``key = value``
reader read: UTF-8, a byte-order mark skipped, and any other bytes an
error naming the file.

:func:`write_table` writes every table from columns.  Floats print at 10
significant digits (``%.10g`` byte for byte, from an exact vectorized kernel
with a per-value fallback) with a ``.`` decimal mark regardless of locale, so
identical inputs produce byte-identical files; ints and bools print as
integers, and text is quoted CSV-style only when it would otherwise be split
or read as a comment.  A table written to a path appears there only once complete.
It returns each float column as the text reads back, in the memory order of
the column given, so a transposed column's read-back transposes back to a
C-contiguous array without a copy.
"""

from __future__ import annotations

import csv
import functools
import itertools
import os
import warnings
from contextlib import ExitStack, contextmanager
from typing import IO, Callable, Iterator, Sequence

import numpy as np

from .config import FLOAT_FORMAT
from .errors import PanelFormatError, SchemaError

SCHEMA_VERSION = 1
#: Text read per parsing chunk, in bytes of whole lines.
CHUNK_BYTES = 1 << 18
#: Rows formatted per block of a table write.
WRITE_BLOCK_ROWS = 1 << 14
_PREFIX = "# schema-version:"
#: The first line of every table :func:`write_table` writes.
VERSION_LINE = f"{_PREFIX} {SCHEMA_VERSION}\n"
_QUOTE_TRIGGERS = (",", '"', "\r", "\n")
#: Characters that a plain comma split does not read the way ``csv`` does;
#: a CR is one of them unless it ends a CRLF line end.
_CSV_ONLY = ('"', "\0")
_BLANK = ("\n", "\r\n")
_DTYPES = {int: np.int64, float: np.float64, str: object}


def format_cell(value) -> str:
    """``str(value)`` as a table cell, quoted CSV-style only when it would
    otherwise be split or read as a comment."""
    text = str(value)
    if text.startswith("#") or any(c in text for c in _QUOTE_TRIGGERS):
        return '"' + text.replace('"', '""') + '"'
    return text


def _text_rows(texts, width: int = 0) -> np.ndarray:
    """UTF-8 rows of ``texts`` padded to ``width`` or more by 0xFF, which no UTF-8 text holds."""
    encoded = [text.encode() for text in texts]
    width = max([width, *map(len, encoded)])
    padded = b"".join(code.ljust(width, b"\xff") for code in encoded)
    return np.frombuffer(padded, np.uint8).reshape(len(encoded), width)


_POW10 = np.array([float(10**k) for k in range(23)])  # each exact in float64
#: Four-byte chunks as uint32: "0000".."9999", then "e-13".."e+31", then "-." and pads.
_CHUNKS = np.concatenate([
    np.arange(10**4, dtype=np.uint16)[:, None] // np.uint16([1000, 100, 10, 1]) % 10 + ord("0"),
    _text_rows([f"e{i:+03d}" for i in range(-13, 32)] + ["-."]),
], dtype=np.uint8).view(np.uint32)[:, 0]


def _layout(case: int, zeros: int, sign: int) -> list[int]:
    """A text as positions in chunks ``00ABCDEFGHIJe+XY-.~~``, padded to 17: mantissa digits
    ``A``..``J`` less the last ``zeros``, in fixed notation at exponent ``case - 4`` for case
    0..13, in scientific notation for 14, or zero for 15."""
    body = "0" * max(0, 4 - case) + "ABCDEFGHIJ"
    point = case - 3 if 4 <= case < 14 else 1  # characters before the point
    fraction = body[point : len(body) - zeros]
    text = "-" * sign + body[:point] + "." * bool(fraction) + fraction + "e+XY" * (case == 14)
    return ["00ABCDEFGHIJe+XY-.~".index(c) for c in ("0" if case == 15 else text).ljust(17, "~")]


#: Layout ``20 * case + 2 * zeros + sign``.
_LAYOUTS = np.array([_layout(*key) for key in itertools.product(range(16), range(10), range(2))])


def _float_texts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The :data:`FLOAT_FORMAT` text rows of ``values`` (-0 as 0), and the values they read as.

    With ``s = 9 - floor(log10 |x|)`` and ``|s| <= 22``, ``y = |x| * 10**s`` errs by
    under 2**-20, as ``10**s`` is exact, so ``m = rint(y)`` is the text's mantissa
    where ``1e9 <= y``, ``m < 1e10`` and ``y`` is not within 2**-18 of a tie; ``m /
    10**s`` reads it back exactly (Clinger's fast path).  Other values are formatted
    and parsed one at a time."""
    x = np.asarray(values, np.float64).ravel() + 0.0
    size = np.abs(x)
    with np.errstate(all="ignore"):
        exp = np.floor(np.log10(size))
        fast = np.abs(9 - exp) <= 22
        exp[~fast] = 0
        power, up = _POW10[np.abs(9 - exp).astype(np.intp)], exp <= 9
        y = np.where(up, size * power, size / power)
        m = np.rint(y)
        fast = fast & (y >= 1e9) & (m < 1e10) & (np.abs(np.abs(y - m) - 0.5) > 2**-18) | (x == 0)
        back = np.copysign(np.where(up, m / power, m * power), x)
    m[~fast] = 1e9
    case = np.where(x == 0, 15, np.where((exp < -4) | (exp > 9), 14, exp + 4)).astype(np.intp)
    # the mantissa's digits in chunks of 2, 4 and 4: each quotient's floor is exact
    high, mid = np.floor(m / 1e8), np.floor(m / 1e4)
    chunks = [high, mid - high * 1e4, m - mid * 1e4, np.where(case == 14, exp, 0) + 10013]
    source = _CHUNKS[np.stack(chunks + [np.full_like(m, 10045)], axis=1).astype(np.intp)]
    zeros = np.argmax(source.view(np.uint8)[:, 11:1:-1] != ord("0"), axis=1)
    index = np.take(_LAYOUTS, 20 * case + 2 * zeros + (x < 0), axis=0)
    text = np.take(source.view(np.uint8), index + np.arange(0, 20 * len(x), 20)[:, None])
    texts = list(map(FLOAT_FORMAT.__mod__, x[~fast].tolist()))
    text[~fast], back[~fast] = _text_rows(texts, 17), list(map(float, texts))
    return text, back.reshape(np.shape(values))


@contextmanager
def open_input(source: str | os.PathLike | IO[str]) -> Iterator[IO[str]]:
    """Text handle for reading ``source``, a path or a handle as it is.

    A path is read as UTF-8, where a byte-order mark is skipped (a file
    saved with one reads like one without), and is closed when the block
    ends.  Text that is not UTF-8 raises :class:`PanelFormatError` naming
    the input.
    """
    with ExitStack() as stack:
        if isinstance(source, (str, os.PathLike)):
            source = stack.enter_context(open(source, newline="", encoding="utf-8-sig"))
        try:
            yield source
        except UnicodeDecodeError as exc:
            name = getattr(source, "name", "input")
            raise PanelFormatError(f"{name}: not UTF-8 text ({exc.reason})") from None


@contextmanager
def open_output(destination: str | os.PathLike | IO[str]) -> Iterator[IO[str]]:
    """Text handle for writing a table to ``destination``.

    A path is written through a temporary file in the same directory that
    replaces the destination only when the block completes, so a failed
    write leaves no partial file behind and the destination as the call
    found it (a CLI stage removes its files before it writes them).
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


def _cells(values: np.ndarray) -> np.ndarray:
    """Each value's :func:`format_cell` text row, quoted once per distinct ``str``."""
    index: dict[str, int] = {}
    codes = [index.setdefault(str(v), len(index)) for v in values.tolist()]
    return np.take(_text_rows(map(format_cell, index)), codes, axis=0)


def write_table(
    destination: str | os.PathLike | IO[str],
    columns: dict[str, Sequence],
    labels: dict[str, Sequence] | None = None,
) -> dict[str, np.ndarray]:
    """Write ``columns``, one array per header name, as a versioned table.

    The rows are the cells of columns of one shape in C order, formatted in
    blocks of whole first-axis entries, about :data:`WRITE_BLOCK_ROWS` rows.
    A column's dtype decides its format: floats at :data:`FLOAT_FORMAT`,
    ints and bools as integers, anything else as text by :func:`format_cell`;
    a column named in ``labels`` holds codes into that name's labels.  Returns
    every column as written: a float column as a reader parses it back, in
    the column's memory order, any other as given, bools as ints.  A finite
    value whose text reads back as non-finite raises
    :class:`PanelFormatError` before a path destination is replaced.
    """
    arrays = {name: np.asarray(values) for name, values in columns.items()}
    arrays |= {name: a.astype(np.int64) for name, a in arrays.items() if a.dtype == bool}
    shapes = {array.shape for array in arrays.values()} or {(0,)}
    if len(shapes) > 1:
        raise ValueError(f"column lengths differ: {sorted(shapes)}")
    (shape,) = shapes
    written = {name: np.empty_like(a, float) for name, a in arrays.items() if a.dtype.kind == "f"}
    step = max(1, WRITE_BLOCK_ROWS // max(1, int(np.prod(shape[1:]))))
    label_texts = {name: _text_rows(map(format_cell, v)) for name, v in (labels or {}).items()}
    with open_output(destination) as handle:
        handle.write(VERSION_LINE + ",".join(arrays) + "\n")
        for start in range(0, shape[0], step):
            block = slice(start, start + step)
            fields = []
            for name, array in arrays.items():
                if name in written:
                    text, written[name][block] = _float_texts(array[block])
                elif name in label_texts:
                    text = np.take(label_texts[name], array[block].ravel(), axis=0)
                else:
                    text = _cells(array[block].ravel())
                fields += [text, np.full((len(text), 1), ord(","), np.uint8)]
            fields[-1][:] = ord("\n")
            rows = np.concatenate(fields, axis=1)
            handle.write(rows[rows != 255].tobytes().decode())
        for name, values in written.items():
            if (np.isfinite(arrays[name]) & ~np.isfinite(values)).any():
                raise PanelFormatError(f"{destination}: a {name} rounds to a non-finite value")
    return arrays | written


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


def _parsed(kind: type, texts) -> np.ndarray:
    """``texts`` parsed by Python's ``int``, ``float`` or ``str``."""
    return np.fromiter(map(kind, texts), _DTYPES[kind], len(texts))


def load_lines(lines: list[str], dtype: np.dtype) -> np.ndarray:
    """Plain comma-separated ``lines`` as one record of the structured
    ``dtype`` each, by numpy's C parser, which skips blank lines.  It raises
    ValueError for a line or text it rejects, and DeprecationWarning where
    numpy 1.x would parse an int field's ``1.0`` through a float."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(lines, dtype, delimiter=",", comments=None, quotechar=None, ndmin=1)


def _numpy_fields(lines: list[str], width: int, kinds: dict[int, type]) -> list[np.ndarray]:
    """Columns ``kinds`` of ``lines``, none blank, each parsed as its kind by
    :func:`load_lines`."""
    dtype = np.dtype([(f"f{i}", _DTYPES[kinds.get(i, str)]) for i in range(width)])
    table = load_lines(lines, dtype)
    # copies, so that a column does not keep the whole chunk alive
    return [np.ascontiguousarray(table[f"f{i}"]) for i in kinds]


def _python_fields(rows: list, width: int, kinds: dict[int, type]) -> list[np.ndarray]:
    """Columns ``kinds`` of csv ``rows``, each parsed as its kind by Python."""
    if any(len(row) != width for _, row in rows):
        raise ValueError("a row has the wrong field count")
    return [_parsed(kind, [row[i] for _, row in rows]) for i, kind in kinds.items()]


def _table_chunks(
    handle: IO[str], line_num: int, width: int, kinds: dict[int, type]
) -> Iterator[tuple[Callable[[], list[np.ndarray]], Iterator[tuple[int, list[str]]]]]:
    """Yield the data rows after the header chunk by chunk, as ``(fields, rows)``.

    ``rows`` yields ``(line_number, fields)`` for each row that is neither
    blank nor a comment.  ``fields()`` parses the columns of the whole chunk
    that ``kinds`` maps by position, each as its kind (text unstripped), or
    raises ValueError.
    """
    while lines := handle.readlines(CHUNK_BYTES):
        text = "".join(lines)
        # not ASCII: numpy 2.4's int parser can crash on a character past U+FFFF;
        # numpy strips a CR only as part of a CRLF line end
        lone_cr = "\r" in text and text.count("\r") != text.count("\r\n")
        if lone_cr or not text.isascii() or any(c in text for c in _CSV_ONLY):
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
            fields = functools.partial(_python_fields, rows, width, kinds)
        else:
            first = line_num + 1
            line_num += len(lines)
            numbered = zip(itertools.count(first), lines)
            # ("\n\n" in text is slower than this list scan: "\n" is too common)
            if "#" in text or "\n" in lines or ("\r" in text and "\r\n" in lines):
                numbered = [
                    (num, line)
                    for num, line in numbered
                    if line not in _BLANK and not _is_comment(line)
                ]
                lines = [line for _, line in numbered]
                if not lines:
                    continue
            fields = functools.partial(_numpy_fields, lines, width, kinds)
            rows = ((num, line.rstrip("\r\n").split(",")) for num, line in numbered)
        yield fields, rows


def _typed(kind: type, name: str) -> tuple[type, Callable, Callable]:
    """The spec of a column of ``kind``: int, float or stripped text.  A bad
    text is reported as ``bad <name> '<text>'``."""

    def parse(text: str):
        try:
            return _parsed(kind, [text])
        except (ValueError, OverflowError):
            raise ValueError(f"bad {name} {text!r}") from None

    def strip(texts):
        return np.fromiter(map(str.strip, texts), object, len(texts))

    return kind, strip if kind is str else np.asarray, parse


def finite(name: str) -> tuple[type, Callable, Callable]:
    """The spec of a float column that holds only finite values.  A
    non-finite text is reported as ``non-finite <name> '<text>'``."""
    _, _, parse = _typed(float, name)

    def convert(values: np.ndarray) -> np.ndarray:
        if not np.isfinite(values).all():
            raise ValueError(f"non-finite {name}")
        return values

    def check(text: str) -> None:
        if not np.isfinite(parse(text)).all():
            raise ValueError(f"non-finite {name} {text!r}")

    return float, convert, check


def _row_by_row(rows, width: int, order: list[int], specs) -> list[np.ndarray]:
    """Check rows one at a time, each field stripped, and raise for the first
    bad one; if none is, the columns as Python's int and float parse them."""
    columns = [[] for _ in specs]
    for line_num, row in rows:
        if len(row) != width:
            raise PanelFormatError(f"expected {width} fields, got {len(row)}", line_num)
        for i, (_, _, parse), column in zip(order, specs, columns):
            column.append(row[i].strip())
            try:
                parse(column[-1])
            except ValueError as exc:
                raise PanelFormatError(str(exc), line_num) from None
    return [convert(_parsed(kind, texts)) for (kind, convert, _), texts in zip(specs, columns)]


def read_columns(
    source: str | os.PathLike | IO[str],
    columns: dict[str, type | tuple[type, Callable, Callable]],
    versioned: bool = False,
) -> tuple[list[str], list[np.ndarray]]:
    """Read a table's header and the named columns, one array each.

    ``columns`` maps each name to ``int``, ``float``, ``str`` (stripped
    text) or a triple ``(kind, convert, parse)``: ``kind`` is one of those
    three, ``convert`` turns a chunk's column parsed as ``kind`` (text
    unstripped, in an object array) into the column's array, and ``parse``
    checks one stripped text; each raises ValueError on a bad value, and
    ``convert`` gives one dtype for every chunk, its empty column's.  A chunk
    that fails is checked row by row, and the first bad row raises
    :class:`PanelFormatError` with its line number.  A ``versioned`` table
    must start with the ``# schema-version`` line, and a missing header or
    column is then a :class:`SchemaError`.
    """
    error = SchemaError if versioned else PanelFormatError
    with open_input(source) as handle:
        if versioned:
            _check_version(handle.readline())
        header, line_num = _header(handle, error)
        order = _positions(header, columns, error)
        specs = [
            spec if isinstance(spec, tuple) else _typed(spec, name)
            for name, spec in columns.items()
        ]
        kinds = {i: kind for i, (kind, _, _) in zip(order, specs)}
        result = [convert(_parsed(kind, [])) for kind, convert, _ in specs]
        line_num += versioned  # the version line is line 1
        for fields, rows in _table_chunks(handle, line_num, len(header), kinds):
            try:
                chunk = [convert(f) for (_, convert, _), f in zip(specs, fields())]
            except (ValueError, OverflowError, DeprecationWarning):
                chunk = _row_by_row(rows, len(header), order, specs)
            for column, part in zip(result, chunk):
                column.resize(len(column) + len(part), refcheck=False)
                column[len(column) - len(part) :] = part
    return header, result

