"""Instance documents and sequence files.

Instance documents are versioned JSON holding everything needed to
re-evaluate an instance without regenerating it: params, transition
entries and mask (row-major), motifs, offsets, and the verified
optimum. Parsing re-validates every type invariant and names the
violated one on failure.

Sequence files are plain text: one sequence per line, comma-separated
integers, with an optional trailing ",score" column. They are parsed by
``np.loadtxt`` and written by the table writer of :mod:`ehrlich.tables`.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np

from .errors import InvalidParamsError, ParseError, require
from .function import (
    PARAM_KEYS,
    EhrlichFunction,
    EhrlichParams,
    SpacedMotifs,
    TransitionMatrix,
    check_ergodic,
)
from .tables import _open_input, format_rows

FORMAT_VERSION = 1

_INT64 = np.iinfo(np.int64)
# What an array field of each dtype may hold: (description, element test).
# JSON booleans are Python ints, so the tests compare types exactly.
_ELEMENTS = {
    np.int64: ("integers", lambda x: type(x) is int and _INT64.min <= x <= _INT64.max),
    np.float64: ("numbers", lambda x: type(x) is float
                 or (type(x) is int and abs(x) <= sys.float_info.max)),
    bool: ("booleans", lambda x: type(x) is bool or (type(x) is int and x in (0, 1))),
}


def _param(raw: dict, short: str):
    value = raw[short]
    integral = PARAM_KEYS[short][1]
    if type(value) is not int and (integral or type(value) is not float):
        kind = "an integer" if integral else "a number"
        raise ParseError(f"instance param {short!r} must be {kind}, got {value!r}")
    return value


def _field_array(doc: dict, field: str, dtype, ndim: int) -> np.ndarray:
    """``doc[field]`` as an ndim array; another shape or element is a ParseError."""
    value = doc[field]
    rows = value if ndim == 2 else [value]
    if not isinstance(value, list) or not all(isinstance(row, list) for row in rows):
        shape = "a list of lists" if ndim == 2 else "a list"
        raise ParseError(f"instance field {field!r} must be {shape}")
    lengths = sorted({len(row) for row in rows})
    if len(lengths) > 1:
        raise ParseError(f"instance field {field!r} is ragged: rows of lengths {lengths}")
    kind, accepts = _ELEMENTS[dtype]
    for row in rows:
        for item in row:
            if not accepts(item):
                raise ParseError(f"instance field {field!r} must hold {kind}, got {item!r}")
    return np.array(value, dtype=dtype)


def serialize_instance(function: EhrlichFunction) -> str:
    """Render an instance as a JSON document (round-trips exactly)."""
    params = function.params
    doc = {
        "version": FORMAT_VERSION,
        "name": function.name,
        "params": {short: getattr(params, field) for short, (field, _) in PARAM_KEYS.items()},
        "transition": function.transition.entries.tolist(),
        "mask": function.transition.mask.tolist(),
        "motifs": function.motifs.motifs.tolist(),
        "offsets": function.motifs.offsets.tolist(),
        "optimum": function.optimum.tolist(),
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_instance(document: str) -> EhrlichFunction:
    """Parse and fully validate an instance document."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ParseError(f"instance document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("instance document must be a JSON object")

    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise ParseError(
            f"unsupported instance document version {version!r}, expected {FORMAT_VERSION}"
        )
    for key in ("params", "transition", "mask", "motifs", "offsets", "optimum"):
        if key not in doc:
            raise ParseError(f"instance document missing field {key!r}")

    raw = doc["params"]
    if not isinstance(raw, dict):
        raise ParseError("instance params must be a JSON object")
    missing = sorted(set(PARAM_KEYS) - set(raw))
    if missing:
        raise ParseError(f"instance params missing keys: {', '.join(missing)}")
    params = EhrlichParams(**{field: _param(raw, short) for short, (field, _) in PARAM_KEYS.items()})

    name = doc.get("name")
    if name is not None and name != params.name:
        raise ParseError(
            f"instance name {name!r} does not match params-derived name {params.name!r}"
        )

    transition = TransitionMatrix(
        entries=_field_array(doc, "transition", np.float64, 2),
        mask=_field_array(doc, "mask", bool, 2),
    )
    if transition.vocab_size != params.vocab_size:
        raise InvalidParamsError(
            f"transition matrix is {transition.vocab_size}x{transition.vocab_size} "
            f"but vocab_size is {params.vocab_size}"
        )
    if not check_ergodic(transition):
        raise InvalidParamsError("transition matrix is not ergodic")
    motifs = SpacedMotifs(
        motifs=_field_array(doc, "motifs", np.int64, 2),
        offsets=_field_array(doc, "offsets", np.int64, 2),
    )
    return EhrlichFunction(
        params=params,
        transition=transition,
        motifs=motifs,
        optimum=_field_array(doc, "optimum", np.int64, 1),
    )


def write_instance(function: EhrlichFunction, path: str | Path) -> None:
    write_text(path, serialize_instance(function))


def read_instance(path: str | Path) -> EhrlichFunction:
    return parse_instance(read_text(path, "instance document"))


_WRITE_SLICE = 1 << 20  # characters encoded per write


def write_text(path: str | Path, text: str, mode: str = "w") -> None:
    """Write ``text`` to ``path`` as UTF-8, whatever the locale, opened with
    ``mode`` (``"x"`` refuses an existing file). It is written in slices of
    ``_WRITE_SLICE`` characters, so no encoded copy of the whole text is held.
    """
    with open(path, mode, encoding="utf-8") as handle:
        for start in range(0, len(text), _WRITE_SLICE):
            handle.write(text[start:start + _WRITE_SLICE])


def read_text(path: str | Path, what: str) -> str:
    """The text of a UTF-8 file; any other bytes are a ParseError naming
    ``what``, and a missing path or a directory an InvalidParamsError."""
    try:
        with _open_input(path, what) as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{what} is not UTF-8 text: {path} (byte {exc.start}: {exc.reason})"
        ) from None


def parse_sequences(
    text: str, length: int, vocab_size: int | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Parse a sequence file into (tokens, scores-or-None).

    Each non-blank line must have ``length`` token fields, or ``length +
    1`` fields where the last is a score, the same count on every line.
    A token is ``[+-]?[0-9]+`` and fits in int64, a score is an ASCII
    float literal (``inf`` and ``nan`` included); either may be padded by
    ASCII whitespace. There are no comment lines. Errors name the
    offending line and column (1-based).

    The body is parsed by ``np.loadtxt``; only when that fails does a
    per-line scan run, to name the first offending line.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return np.zeros((0, length), dtype=np.int64), None
    fields = lines[0].count(",") + 1
    body = "\n".join(lines)
    try:
        # loadtxt's usecols make every row hold at least ``fields`` fields,
        # and the comma count then makes it hold exactly that many.
        if fields not in (length, length + 1) or body.count(",") != len(lines) * (fields - 1):
            raise ValueError("field counts differ")
        # numpy strips Unicode whitespace around a number, the grammar only
        # ASCII whitespace.
        if not body.isascii():
            raise ValueError("non-ASCII text")
        tokens = _loadtxt(lines, np.int64, range(length))
        scores = _loadtxt(lines, np.float64, [length])[:, 0] if fields > length else None
        if tokens.min() < 0 or (vocab_size is not None and tokens.max() >= vocab_size):
            raise ValueError("token out of range")
    except ValueError as exc:
        raise _scan_error(text, length, vocab_size, exc) from None
    return tokens, scores


# The sequence-file grammar, as the scan checks it field by field. numpy's
# parser accepts exactly these fields of ASCII text: it strips the ASCII
# characters ``str.isspace`` holds, and reads no ``_`` and no hex.
_SPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"
_TOKEN = re.compile(r"[+-]?[0-9]+")
_SCORE = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf(?:inity)?|nan)",
    re.IGNORECASE,
)
_INT64_MAX = np.iinfo(np.int64).max


def _loadtxt(lines: list[str], dtype, usecols) -> np.ndarray:
    return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                      usecols=usecols, ndmin=2)


def _scan_error(text: str, length: int, vocab_size: int | None,
                exc: ValueError) -> ParseError:
    """The error of the first line of ``text`` that breaks the grammar.

    Called only once the numpy parse has failed, so some line breaks it;
    ``exc`` names the failure should none be found.
    """
    have_scores: bool | None = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) not in (length, length + 1):
            return ParseError(
                f"line {line_no}: expected {length} tokens (plus optional score), "
                f"got {len(fields)} fields"
            )
        with_score = len(fields) > length
        if have_scores is None:
            have_scores = with_score
        elif have_scores != with_score:
            return ParseError(
                f"line {line_no}: inconsistent column count (score column must be "
                "present on every line or on none)"
            )
        for col, field in enumerate(fields[:length], start=1):
            field = field.strip(_SPACE)
            try:
                token = int(field) if _TOKEN.fullmatch(field) else None
            except ValueError:  # more digits than int() converts
                token = None
            if token is not None and (
                token < 0 or (vocab_size is not None and token >= vocab_size)
            ):
                return ParseError(
                    f"line {line_no}, column {col}: token {token} out of range "
                    f"[0, {vocab_size})"
                )
            if token is None or token > _INT64_MAX:
                return ParseError(f"line {line_no}, column {col}: malformed token {field!r}")
        if with_score and not _SCORE.fullmatch(score := fields[length].strip(_SPACE)):
            return ParseError(
                f"line {line_no}, column {length + 1}: malformed score {score!r}"
            )
    return ParseError(f"malformed sequence file: {exc}")


def format_sequences(tokens: np.ndarray, scores: np.ndarray | None = None) -> str:
    """Render sequences (and optional scores) in the line format.

    The (N, L) token block goes to the writer every table of the package
    uses as one 2-D int column; each distinct score is formatted once,
    by ``repr``.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    require(tokens.ndim == 2 and tokens.shape[1] > 0,
            f"tokens must be an (N, L) array with L >= 1, got shape {tokens.shape}")
    columns = [tokens]
    if scores is not None:
        scores = np.asarray(scores, dtype=np.float64)
        require(scores.shape == tokens.shape[:1],
                f"scores must have shape {tokens.shape[:1]}, got {scores.shape}")
        columns.append(scores)
    return format_rows(columns)
