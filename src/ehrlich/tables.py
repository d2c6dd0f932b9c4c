"""The one versioned table format every CSV of the package uses.

A table is a ``# <kind> v<N>`` version line, ``# key=value`` metadata
lines, a comma-separated column header and comma-separated rows: bools
as 0/1, ints as ``str``, floats as ``repr`` (so they read back exactly,
-0.0 and infinities included) and string columns as they are; a text
cell holding ``,``, ``#`` or a line break is an InvalidParamsError.
:func:`format_table` writes one, its rows by :func:`format_rows` (which
also writes sequence files), and :func:`read_table` reads one back,
parsing the body with ``np.loadtxt``; comment and empty lines in the
body are skipped. :func:`is_table` tells a table's kind from its first
line. Both read UTF-8; any other bytes are a ParseError, and a missing
path or a directory is an InvalidParamsError.

The writer builds text in blocks of rows, and as bytes. Each column of a
block becomes a uint8 matrix of fixed-width cells, padded with a byte
UTF-8 never uses: ints through a table of 4-digit groups, bools as
"0"/"1", and floats and strings through a table of their distinct texts
(a float's ``fmt`` is called once per distinct 64-bit pattern). One
concatenate lays the cells and separators out row by row, and one
``bytes.translate`` drops the padding. The run record's JSON mirror is
written by the same code, with JSON's number text for floats: each evals
column is one line, its items joined by bare commas, so a 1M-row mirror
is about the size of its CSV (24.2 MB against 23.8 MB) and builds in
about 0.11 s, where one indented line per value made 59.1 MB in 0.18 s.
"""

from __future__ import annotations

import contextlib
import itertools
import re
import warnings
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import InvalidParamsError, ParseError

# Cells per text block: few enough that a block's byte matrices stay in
# cache and add next to nothing to the peak memory of a large table's text.
_BLOCK_CELLS = 1 << 14

# The byte that pads cells. UTF-8 text never contains it, so deleting it
# from a block's bytes never deletes content (NUL included).
_PAD = b"\xff"

# What a text cell may not hold: loadtxt splits a row at "," and at line
# breaks, and reads from "#" on as a comment.
_ROW_BREAKERS = re.compile(r"[,#\r\n]")


def _digit_table() -> np.ndarray:
    """The texts of 0..9999 as 4 bytes in one uint32 each: entries 0-9999
    without leading zeros, padded on the left, and 10000-19999 zero-filled."""
    numbers = np.arange(10_000, dtype=np.int32)[:, None]
    place = 10 ** np.arange(3, -1, -1, dtype=np.int32)
    digits = numbers // place % 10 + ord("0")
    leading = np.where(numbers < place, _PAD[0], digits)
    leading[0, -1] = ord("0")
    return np.concatenate([leading, digits]).astype(np.uint8).view(np.uint32).ravel()


# A number's lowest 4-digit group writes 0 as "0"; a higher group of 0 is
# above the number's leading digit and writes nothing. A sign entry is
# "-" or nothing.
_NOTHING, _MINUS = np.frombuffer(_PAD * 4 + b"-" + _PAD * 3, np.uint32)
_LOW_GROUP = _digit_table()
_HIGH_GROUP = _LOW_GROUP.copy()
_HIGH_GROUP[0] = _NOTHING


def format_table(kind: str, version: int, columns: Mapping[str, Sequence],
                 meta: Mapping[str, object] | None = None) -> str:
    """The text of a table with the given columns, in header order.

    Metadata values are written with ``str``, which for a Python float is
    its ``repr``.
    """
    head = [f"# {kind} v{version}",
            *(f"# {key}={value}" for key, value in (meta or {}).items()),
            ",".join(columns), ""]
    return "".join(["\n".join(head), *_row_blocks(columns.values(), repr, ",", "\n")])


def format_rows(columns: Iterable[Sequence]) -> str:
    """A table body: one comma-separated line, ending in a newline, per row.

    Numbers are written as in :func:`format_table`; a 2-D column of shape
    (N, k) is k adjacent columns. With no rows the body is "".
    """
    return "".join(_row_blocks(columns, repr, ",", "\n"))


def _row_blocks(columns: Iterable[Sequence], fmt, sep: str, end: str) -> list[str]:
    """The text of ``columns``' rows in blocks of about ``_BLOCK_CELLS`` cells.

    Cells in a row are joined by ``sep`` and every row ends in ``end``.
    Floats are written by ``fmt``, ints in decimal, bools as 0/1 and
    strings as they are.
    """
    columns = [_as_column(values) for values in columns]
    if not columns or not len(columns[0]):
        return []
    step = max(1, _BLOCK_CELLS * len(columns[0]) // sum(column.size for column in columns))
    return [_join_cells([_cells(column[start:start + step], fmt) for column in columns],
                        sep, end)
            for start in range(0, len(columns[0]), step)]


def _encode(text: str) -> bytes:
    return text.encode("utf-8", "surrogatepass")


def _as_column(values: Sequence) -> np.ndarray:
    """``values`` as a bool, int64, uint64, float64 or (strings) object array.

    Strings are kept as the objects given: a numpy string array would drop
    their trailing NULs.
    """
    column = np.asarray(values)
    if column.dtype.kind in "OSU":
        return np.array(list(values), dtype=object)
    wide = {"b": bool, "i": np.int64, "u": np.uint64, "f": np.float64}[column.dtype.kind]
    return column.astype(wide, copy=False)


def _cells(column: np.ndarray, fmt) -> np.ndarray:
    """The (n, k, w) uint8 texts of an (n,) or (n, k) column, padded to a
    common width w with ``_PAD``."""
    column = column.reshape(len(column), -1)
    if column.dtype == bool:
        return (column.view(np.uint8) + ord("0"))[:, :, None]
    if column.dtype.kind in "iu":
        return _int_cells(column)
    if column.dtype == object:
        distinct: dict[str, int] = {}
        inverse = np.fromiter((distinct.setdefault(text, len(distinct))
                               for text in column.ravel().tolist()), np.intp, column.size)
        texts = list(distinct)
        bad = next((text for text in texts if _ROW_BREAKERS.search(text)), None)
        if bad is not None:
            raise InvalidParamsError(
                f"a table cell must not contain ',', '#' or a line break, got {bad!r}")
    else:
        # one fmt call per distinct 64-bit pattern, so -0.0 and 0.0 keep their own text
        bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
        texts = map(fmt, bits.view(column.dtype).tolist())
    table = _text_table([_encode(text) for text in texts])
    # each text as one void item, so the gather moves whole cells
    cells = np.take(table.view(f"V{table.shape[1]}").ravel(), inverse.reshape(column.shape))
    return cells.view(np.uint8).reshape(column.shape + (-1,))


def _int_cells(column: np.ndarray) -> np.ndarray:
    """Decimal texts of an (n, k) int64 or uint64 block, four digits per
    table entry.

    Magnitudes are taken as uint64, where the int64 minimum's negation is
    its magnitude.
    """
    magnitude = column.astype(np.uint64)
    negative = column < 0
    sign = bool(negative.any())
    if sign:
        np.negative(magnitude, out=magnitude, where=negative)
    largest = int(magnitude.max(initial=0))
    groups = max(1, -(-len(str(largest)) // 4))
    if largest < 2**32:
        magnitude = magnitude.astype(np.uint32)
    base = magnitude.dtype.type(10_000)
    cells = np.empty(column.shape + (sign + groups,), np.uint32)
    if sign:
        cells[:, :, 0] = np.where(negative, _MINUS, _NOTHING)
    rest = magnitude
    for group in range(groups):
        high = rest // base
        entry = rest - high * base
        entry += base * (high > 0)
        np.take(_HIGH_GROUP if group else _LOW_GROUP, entry,
                out=cells[:, :, sign + groups - 1 - group])
        rest = high
    return cells.view(np.uint8)


def _text_table(texts: list[bytes]) -> np.ndarray:
    """(len(texts), w) uint8: each text left-aligned and padded with ``_PAD``
    to the longest text's width (at least 1, the size of a void item)."""
    lengths = np.fromiter(map(len, texts), np.intp, len(texts))
    table = np.full((len(texts), int(lengths.max(initial=1))), _PAD[0], np.uint8)
    table[np.arange(table.shape[1]) < lengths[:, None]] = np.frombuffer(b"".join(texts), np.uint8)
    return table


def _join_cells(cells: list[np.ndarray], sep: str, end: str) -> str:
    """One block's text: each row's cells joined by ``sep``, ended by ``end``.

    One concatenate lays the cells and separators out row by row, and one
    pass over the bytes drops the padding.
    """
    rows = cells[0].shape[0]

    def repeated(text: str) -> np.ndarray:
        data = np.frombuffer(_encode(text), np.uint8)
        return np.broadcast_to(data, (rows, data.size))

    sep_column = repeated(sep)
    pieces = []
    for block in cells:
        for k in range(block.shape[1]):
            pieces += [block[:, k], sep_column]
    pieces[-1] = repeated(end)
    data = np.concatenate(pieces, axis=1).tobytes().translate(None, _PAD)
    return data.decode("utf-8", "surrogatepass")


def read_table(path: str | Path, kind: str, version: int, dtype: np.dtype,
               what: str) -> tuple[dict[str, str], np.ndarray]:
    """Read a table written by :func:`format_table`: (metadata, rows).

    The column header must be ``dtype``'s field names joined by commas.
    A wrong header, a malformed row (its message names the file line), an
    int field holding a float, or no rows at all raise ParseError.
    """
    with _open_utf8(path, what) as handle:
        meta, header, lines_read = _read_header(handle, kind, version)
        expected = ",".join(dtype.names)
        if header != expected:
            raise ParseError(f"{what} column header must be {expected!r}")
        start = handle.tell()
        try:
            rows = _loadtxt(handle, dtype)
        except ValueError as exc:
            handle.seek(start)
            raise _bad_line_error(handle, dtype, what, lines_read + 1, exc) from None
    if rows.size == 0:
        raise ParseError(f"{what} has no data rows")
    return meta, rows


def is_table(path: str | Path, kind: str) -> bool:
    """True when the file at ``path`` starts with a ``kind`` version line."""
    with _open_utf8(path, f"{kind} file") as handle:
        return handle.readline().startswith(f"# {kind} v")


def _open_input(path: str | Path, what: str) -> TextIO:
    """``path`` opened as UTF-8 text; a missing path or a directory is an
    InvalidParamsError naming ``what``."""
    try:
        return open(path, encoding="utf-8")
    except (FileNotFoundError, NotADirectoryError):
        raise InvalidParamsError(f"{what} not found: {path}") from None
    except IsADirectoryError:
        raise InvalidParamsError(f"{what} is a directory: {path}") from None


@contextlib.contextmanager
def _open_utf8(path: str | Path, what: str) -> Iterator[TextIO]:
    """``path`` opened by :func:`_open_input`; any bytes read from it that
    are not UTF-8 are a ParseError naming ``what``."""
    try:
        with _open_input(path, what) as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} is not UTF-8 text: {path} ({exc.reason})") from None


def _read_header(handle: TextIO, kind: str,
                 version: int) -> tuple[dict[str, str], str, int]:
    """Read a table's version line, metadata lines and column header.

    Returns (metadata, column header, lines read) and leaves ``handle``
    at the first data row; the column header is "" when the file has none.
    """
    first = handle.readline().rstrip("\n")
    if not first.startswith(f"# {kind} v"):
        raise ParseError(f"missing '# {kind} v<N>' version header")
    got = first[len(f"# {kind} v"):].strip()
    if got != str(version):
        raise ParseError(f"unsupported {kind} version {got!r} (expected {version})")
    meta: dict[str, str] = {}
    lines_read = 1
    for line in iter(handle.readline, ""):
        lines_read += 1
        if line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            if sep:
                meta[key.strip()] = value.strip()
        elif line.strip():
            return meta, line.rstrip("\n"), lines_read
    return meta, "", lines_read


def _loadtxt(lines, dtype: np.dtype) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(lines, delimiter=",", dtype=dtype, ndmin=1)


def _bad_line_error(handle: TextIO, dtype: np.dtype, what: str, line_number: int,
                    exc: ValueError) -> ParseError:
    """Locate the first line loadtxt rejects: re-parse in chunks, then line by line.

    loadtxt numbers rows from the start of its input, skipping comment and
    empty lines, so its own row number is not a file line.
    """
    while chunk := list(itertools.islice(handle, 4096)):
        try:
            _loadtxt(chunk, dtype)
        except ValueError:
            for offset, line in enumerate(chunk):
                try:
                    _loadtxt([line], dtype)
                except ValueError as line_exc:
                    fields = line.count(",") + 1
                    message = (f"expected {len(dtype.names)} fields, got {fields}"
                               if fields != len(dtype.names)
                               else re.sub(r" at row \d+", "", str(line_exc)))
                    return ParseError(
                        f"malformed {what} data line {line_number + offset}: {message}")
        line_number += len(chunk)
    return ParseError(f"malformed {what} data: {exc}")
