"""The one versioned table format every CSV of the package uses.

A table is a ``# <kind> v<N>`` version line, ``# key=value`` metadata
lines, a comma-separated column header and comma-separated rows: bools
as 0/1, ints as ``str``, floats as ``repr`` (so they read back exactly,
-0.0 and infinities included) and string columns as they are.
:func:`format_table` writes one, its rows by :func:`format_rows` (which
also writes sequence files), and :func:`read_table` reads one back,
parsing the body with ``np.loadtxt``; comment and empty lines in the
body are skipped. :func:`is_table` tells a table's kind from its first
line. Both read UTF-8; any other bytes are a ParseError.
"""

from __future__ import annotations

import contextlib
import itertools
import re
import warnings
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import ParseError

# Rows per text block: small enough that a block's per-row strings stay well
# below the text of a table of a few hundred thousand rows.
_BLOCK_ROWS = 1 << 14


def format_table(kind: str, version: int, columns: Mapping[str, Sequence],
                 meta: Mapping[str, object] | None = None) -> str:
    """The text of a table with the given columns, in header order.

    Metadata values are written with ``str``, which for a Python float is
    its ``repr``.
    """
    head = [f"# {kind} v{version}",
            *(f"# {key}={value}" for key, value in (meta or {}).items()),
            ",".join(columns)]
    return "".join(["\n".join(head), "\n", *_row_parts(columns.values())])


def format_rows(columns: Iterable[Sequence]) -> str:
    """A table body: one comma-separated line, ending in a newline, per row.

    Numbers are written as in :func:`format_table`; with no rows the body
    is "".
    """
    return "".join(_row_parts(columns))


def _row_parts(columns: Iterable[Sequence]):
    """The body's text in blocks of rows, for one join with what precedes it.

    Joining the header and the blocks at once, not the header and a
    joined body, spares a copy of the whole body.
    """
    blocks = (_text_blocks(_as_column(values), repr) for values in columns)
    for texts in zip(*blocks):
        yield "\n".join(map(",".join, zip(*texts)))
        yield "\n"


def _as_column(values: Sequence) -> np.ndarray:
    """``values`` as a bool, int64, float64 or (for anything else) object array."""
    column = np.asarray(values)
    wide = {"b": bool, "i": np.int64, "u": np.int64, "f": np.float64}.get(column.dtype.kind)
    return column.astype(wide or object, copy=False)


def _text_blocks(column: np.ndarray, fmt):
    """``_texts`` of ``column`` in blocks of ``_BLOCK_ROWS`` elements.

    The writers join each block's texts as it comes, so no list of one
    text per row of the whole table is ever built.
    """
    for start in range(0, column.shape[0], _BLOCK_ROWS):
        yield _texts(column[start:start + _BLOCK_ROWS], fmt)


def _texts(column: np.ndarray, fmt) -> list[str]:
    """``fmt`` of every number, bools as 0/1; strings as they are.

    A numeric column calls ``fmt`` once per distinct 64-bit pattern, not
    per value, so -0.0 and 0.0 keep their own text.
    """
    if column.dtype == object:
        return column.tolist()
    if column.dtype == bool:
        column = column.astype(np.int64)
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    texts = np.array(list(map(fmt, bits.view(column.dtype).tolist())), dtype=object)
    return texts[inverse].tolist()


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


@contextlib.contextmanager
def _open_utf8(path: str | Path, what: str) -> Iterator[TextIO]:
    """``path`` opened as UTF-8 text; any other bytes read from it are a
    ParseError naming ``what``."""
    try:
        with open(path, encoding="utf-8") as handle:
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
