"""Run records and benchmark reports.

A solver run is persisted as an append-only per-evaluation log (one row
per oracle call, in call order) plus a small metadata block. Everything
a report prints — regret curves, uniqueness and feasibility rates,
margin-reward summaries, hypervolumes — is recomputed from those rows,
so a record file is the single source of truth for a run.

Both file formats carry an explicit version so old records stay readable
after schema changes: every CSV is a :mod:`ehrlich.tables` table, which
starts with a ``# <kind> v<N>`` line, and the JSON mirror stores
``format`` and ``version`` fields.
"""

from __future__ import annotations

import errno
import hashlib
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import InvalidParamsError, ParseError, require, require_integers
from .function import regret_of_value, token_dtype
from .instance_io import read_text, write_text
from .losses import margin_reward
from .tables import _row_blocks, format_table, read_table

RUN_RECORD_VERSION = 1
REGRET_CURVE_VERSION = 1
PARETO_REPORT_VERSION = 1

# A run record's metadata lines, in file order: (key, RunRecord attribute, type).
_RUN_META = (
    ("run_id", "run_id", str),
    ("instance", "instance_name", str),
    ("instance_seed", "instance_seed", int),
    ("solver", "solver", str),
    ("config_hash", "config_hash", str),
    ("duration_seconds", "duration_seconds", float),
)
# Its row columns, in file order: (name, RunRecord attribute, the dtype kinds
# its JSON list may hold). A column of floats is read as float64, any other as
# int64.
_RUN_COLUMNS = (
    ("eval_index", "eval_index", "i"),
    ("round", "rounds", "i"),
    ("value", "values", "if"),
    ("feasible", "feasible", "ib"),
    ("unique", "unique", "ib"),
)
_RUN_DTYPE = np.dtype([(name, np.float64 if "f" in kinds else np.int64)
                       for name, _, kinds in _RUN_COLUMNS])
_CURVE_DTYPE = np.dtype([("evals_used", np.int64), ("min_regret", np.float64)])
_PARETO_DTYPE = np.dtype([("label", object), ("budget", np.float64),
                          ("min_regret", np.float64)])


def config_hash(config: Mapping) -> str:
    """12-hex-digit digest of a configuration mapping.

    Keys are sorted and values serialized canonically, so two configs
    hash equal iff they are the same mapping (up to key order).
    """
    require(isinstance(config, Mapping),
            f"config must be a mapping, got {type(config).__name__}")
    canonical = json.dumps(dict(config), sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def unique_flags(tokens: np.ndarray, seen: dict[bytes, int] | None = None,
                 first: np.ndarray | None = None) -> np.ndarray:
    """True at each row's first occurrence in the array, and not among the
    row bytes already in ``seen``.

    ``seen`` maps each distinct row's bytes to its label, in insertion
    order with increasing labels. The rows of this call are labelled
    ``start, start + 1, ...`` from one past ``seen``'s last label, and each
    row not yet in ``seen`` is added under its own label; ``first``, an
    (n,) int64 array, if given, receives every row's label in ``seen``. A
    row is flagged exactly when its label is its own.

    The one uniqueness rule: rows are equal when their bytes are, so one
    ``seen`` must only ever see rows of one dtype. Batches streamed
    through one ``seen`` get the flags of their concatenation.
    """
    tokens = np.asarray(tokens)
    require(tokens.ndim == 2, f"tokens must be 2-D, got shape {tokens.shape}")
    seen = {} if seen is None else seen
    n, width = tokens.shape[0], tokens.shape[1] * tokens.itemsize
    require(isinstance(seen, dict),
            f"seen must be a dict from row bytes to labels, got {type(seen).__name__}")
    require(first is None or np.shape(first) == (n,),
            f"first must have shape ({n},), got {np.shape(first)}")
    keys = (np.ascontiguousarray(tokens).view(f"V{width}").ravel().tolist() if width
            else [b""] * n)
    start = next(reversed(seen.values()), -1) + 1
    labels = np.fromiter(map(seen.setdefault, keys, range(start, start + n)),
                         dtype=np.int64, count=n)
    if first is not None:
        first[...] = labels
    return labels == np.arange(start, start + n)


class EvalLedger:
    """Oracle wrapper that logs every scored batch in call order.

    Duck-types the parts of the function interface the solvers use
    (``params``, ``transition``, ``initial_solution``,
    ``evaluate_batch``), so it can stand in for the function itself.
    A batch the wrapped function rejects is not recorded.

    A run's record is built from its one ledger: values, first-occurrence
    flags and per-batch round labels all come from here. The ledger keeps
    no copy of the scored rows. Its uniqueness table, the ``seen`` dict of
    :func:`unique_flags`, holds each distinct row once, as bytes in the
    instance's token dtype (``function.token_dtype``: uint8 when v <= 256,
    else uint16); each evaluation adds only its value, its row's label in
    that table and its flag, 17 bytes. :meth:`tokens` rebuilds the rows
    from the two.
    """

    def __init__(self, function):
        self._function = function
        self._dtype = token_dtype(function.params.vocab_size)
        self._labels: list[np.ndarray] = []
        self._values: list[np.ndarray] = []
        self._unique: list[np.ndarray] = []
        self._seen: dict[bytes, int] = {}

    @property
    def params(self):
        return self._function.params

    @property
    def transition(self):
        return self._function.transition

    def initial_solution(self) -> np.ndarray:
        return self._function.initial_solution()

    def evaluate_batch(self, tokens: np.ndarray) -> np.ndarray:
        values = self._function.evaluate_batch(tokens)
        # the function has checked every token, so this conversion is exact
        rows = np.asarray(tokens, dtype=self._dtype)
        labels = np.empty(rows.shape[0], dtype=np.int64)
        self._unique.append(unique_flags(rows, self._seen, first=labels))
        self._labels.append(labels)
        self._values.append(np.array(values, dtype=np.float64))
        return values

    @property
    def num_evals(self) -> int:
        return sum(len(v) for v in self._values)

    @property
    def num_calls(self) -> int:
        return len(self._values)

    def tokens(self, dtype=np.int64) -> np.ndarray:
        """Every recorded row, in call order, as int64 or ``dtype``."""
        length = self._function.params.length
        if not self._labels:
            return np.zeros((0, length), dtype=dtype)
        distinct = np.frombuffer(b"".join(self._seen), dtype=self._dtype)
        distinct = distinct.reshape(len(self._seen), length).astype(dtype)
        # the table's labels increase in insertion order, so a label's
        # position among them is its distinct row
        table = np.fromiter(self._seen.values(), dtype=np.int64, count=len(self._seen))
        return distinct[np.searchsorted(table, np.concatenate(self._labels))]

    def values(self) -> np.ndarray:
        if not self._values:
            return np.zeros(0, dtype=np.float64)
        return np.concatenate(self._values)

    def unique(self) -> np.ndarray:
        """First-occurrence flags of the recorded rows: ``unique_flags(self.tokens())``."""
        if not self._unique:
            return np.zeros(0, dtype=bool)
        return np.concatenate(self._unique)

    def call_rounds(self) -> np.ndarray:
        """Round label per evaluation: the 0-based index of its batch."""
        return np.repeat(np.arange(len(self._values), dtype=np.int64),
                         [len(v) for v in self._values])


@dataclass(frozen=True)
class RunRecord:
    """Per-evaluation log of one solver run.

    ``eval_index`` is 1-based and strictly increasing; ``rounds`` labels
    each evaluation with the solver phase that issued it (0 for a
    pre-solve phase, then 1, 2, ... — for a plain GA run each step is
    its own round). ``feasible`` must be False exactly where ``values``
    is -inf, and ``unique`` marks the first occurrence of each distinct
    sequence within the run.
    """

    run_id: str
    instance_name: str
    instance_seed: int
    solver: str
    config_hash: str
    eval_index: np.ndarray
    rounds: np.ndarray
    values: np.ndarray
    feasible: np.ndarray
    unique: np.ndarray
    duration_seconds: float

    def __post_init__(self) -> None:
        for name in (attr for _, attr, kind in _RUN_META if kind is str):
            text = getattr(self, name)
            require(isinstance(text, str), f"{name} must be a string, got {type(text).__name__}")
            # a metadata line holds one line, and its reader strips the value
            require("\n" not in text and "\r" not in text,
                    f"{name} must not contain a line break, got {text!r}")
            require(text == text.strip(),
                    f"{name} must not start or end with whitespace, got {text!r}")
        require(bool(self.run_id), "run_id must be nonempty")
        # the run_id names the record's files, inside their directory
        require("/" not in self.run_id and "\0" not in self.run_id
                and not self.run_id.startswith("."),
                f"run_id must not contain '/' or NUL or start with '.', got {self.run_id!r}")
        try:
            os.fsencode(self.run_id)
        except UnicodeEncodeError:
            raise InvalidParamsError(
                f"run_id {self.run_id!r} cannot be a file name in the filesystem encoding "
                f"({sys.getfilesystemencoding()})") from None
        object.__setattr__(self, "eval_index", np.asarray(self.eval_index, dtype=np.int64))
        object.__setattr__(self, "rounds", np.asarray(self.rounds, dtype=np.int64))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        object.__setattr__(self, "feasible", np.asarray(self.feasible, dtype=bool))
        object.__setattr__(self, "unique", np.asarray(self.unique, dtype=bool))
        n = self.eval_index.shape[0]
        require(n >= 1, "a run record needs at least one evaluation")
        for _, name, _ in _RUN_COLUMNS[1:]:
            require(
                getattr(self, name).shape == (n,),
                f"{name} must have shape ({n},), got {getattr(self, name).shape}",
            )
        # slices, not diff: no int64 temporaries the length of the record
        require(
            bool(np.all(self.eval_index[1:] > self.eval_index[:-1]))
            and int(self.eval_index[0]) >= 1,
            "eval_index must be strictly increasing and start at >= 1",
        )
        require(bool(np.all(self.rounds[1:] >= self.rounds[:-1])),
                "rounds must be nondecreasing")
        neg_inf = np.isneginf(self.values)
        require(not np.isnan(self.values).any(), "values must not contain NaN")
        require(not np.isposinf(self.values).any(), "values must not contain +inf")
        require(
            bool(np.all(neg_inf == ~self.feasible)),
            "feasible must be False exactly where value is -inf",
        )
        require(
            float(self.duration_seconds) >= 0.0,
            f"duration_seconds must be >= 0, got {self.duration_seconds}",
        )

    @property
    def num_evals(self) -> int:
        return int(self.eval_index.shape[0])

    @property
    def eval_rate(self) -> float:
        """Evaluations per second; inf for an instantaneous run."""
        if self.duration_seconds == 0.0:
            return float("inf")
        return self.num_evals / float(self.duration_seconds)

    @property
    def best_value(self) -> float:
        return float(self.values.max())

    @property
    def min_regret(self) -> float:
        return regret_of_value(self.best_value)

    def _meta(self) -> dict:
        return {key: getattr(self, attr) for key, attr, _ in _RUN_META}

    def to_csv(self) -> str:
        columns = {name: getattr(self, attr) for name, attr, _ in _RUN_COLUMNS}
        return format_table("run-record", RUN_RECORD_VERSION, columns, self._meta())

    def to_json(self) -> str:
        """The JSON mirror: the metadata laid out as ``json.dumps(meta,
        indent=2)``, one key a line, then the ``evals`` object with one line
        per column, ``    "name": [1,2,3],``, whose list is written as
        ``json.dumps(column, separators=(",", ":"))`` writes it.

        A 1M-row GA record's mirror is about the size of its CSV (24.2 MB
        against 23.8 MB), and builds in about 0.11 s (2 cores). Mirrors in
        the first layout, one indented line per value, hold the same JSON
        value and read the same.
        """
        head = json.dumps({"format": "run-record", "version": RUN_RECORD_VERSION,
                           **self._meta()}, indent=2)
        # head ends with "\n}"; the evals object goes in as its last member
        parts = [head[:-2], ',\n  "evals": {\n']
        for name, attr, _ in _RUN_COLUMNS:
            parts.append(f'    "{name}": [')
            parts += _row_blocks([getattr(self, attr)], _json_number, ",", ",")
            # a column's trailing comma becomes its closing bracket
            parts[-1] = parts[-1][:-1]
            parts.append("],\n")
        parts[-1] = "]\n  }\n}\n"
        return "".join(parts)


def _json_number(x: float) -> str:
    """``json.dumps(x)`` for a float: its ``repr``, or ``Infinity`` and the like."""
    return repr(x) if math.isfinite(x) else json.dumps(x)


def make_run_record(
    run_id: str,
    instance_name: str,
    instance_seed: int,
    solver: str,
    config: Mapping,
    *,
    values: np.ndarray,
    rounds: np.ndarray,
    duration_seconds: float,
    tokens: np.ndarray | None = None,
    unique: np.ndarray | None = None,
) -> RunRecord:
    """Assemble a record from raw batches, deriving flags and the hash.

    Give exactly one of ``tokens``, the scored rows from which the unique
    flags are derived, and ``unique``, the flags themselves (as
    :meth:`EvalLedger.unique` streams them).
    """
    require((tokens is None) != (unique is None),
            "give exactly one of tokens= and unique=")
    require_integers(instance_seed=instance_seed)
    require(isinstance(duration_seconds, numbers.Real),
            f"duration_seconds must be a number, got {duration_seconds!r}")
    values = np.asarray(values, dtype=np.float64)
    return RunRecord(
        run_id=run_id,
        instance_name=instance_name,
        instance_seed=int(instance_seed),
        solver=solver,
        config_hash=config_hash(config),
        eval_index=np.arange(1, values.shape[0] + 1, dtype=np.int64),
        rounds=rounds,
        values=values,
        feasible=~np.isneginf(values),
        unique=unique_flags(tokens) if unique is None else unique,
        duration_seconds=float(duration_seconds),
    )


def read_run_record(path: str | Path) -> RunRecord:
    """Parse a run-record CSV written by :func:`write_run_record`."""
    meta, rows = read_table(path, "run-record", RUN_RECORD_VERSION, _RUN_DTYPE, "run record")
    for key, _, _ in _RUN_META:
        if key not in meta:
            raise ParseError(f"run record is missing metadata line '# {key}=...'")
    return RunRecord(**{attr: _meta_value(meta, key, kind) for key, attr, kind in _RUN_META},
                     **{attr: rows[name] for name, attr, _ in _RUN_COLUMNS})


def _meta_value(meta: dict[str, str], key: str, convert):
    """``convert`` of a run record's metadata value; a value it rejects is
    a ParseError naming the key."""
    try:
        return convert(meta[key])
    except ValueError:
        raise ParseError(
            f"run record metadata '{key}' is not a valid {convert.__name__}: "
            f"{meta[key]!r}") from None


def read_run_record_json(path: str | Path) -> RunRecord:
    """Parse the JSON mirror written by :func:`write_run_record`.

    A file that is not UTF-8 JSON, a missing field and a field of the
    wrong type are ParseErrors; rows a RunRecord rejects are
    InvalidParamsErrors, as from :func:`read_run_record`.
    """
    try:
        payload = json.loads(read_text(path, "run-record JSON"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"run-record JSON is malformed: {path} ({exc})") from None
    if not isinstance(payload, dict):
        raise ParseError(f"run-record JSON must hold an object, got {type(payload).__name__}")
    if payload.get("format") != "run-record":
        raise ParseError(f"not a run-record JSON file: format={payload.get('format')!r}")
    if payload.get("version") != RUN_RECORD_VERSION:
        raise ParseError(
            f"unsupported run-record version {payload.get('version')!r}"
        )
    # a float field may be written as a JSON integer
    meta = {attr: _json_field(payload, key, (int, float) if kind is float else kind)
            for key, attr, kind in _RUN_META}
    evals = _json_field(payload, "evals", dict)
    columns = {attr: _json_column(evals, name, kinds) for name, attr, kinds in _RUN_COLUMNS}
    for key, attr, kind in _RUN_META:
        try:
            meta[attr] = kind(meta[attr])
        except OverflowError:
            raise ParseError(f"run-record JSON field {key!r} is out of range") from None
    return RunRecord(**meta, **columns)


def _json_field(payload: dict, key: str, kind):
    """``payload[key]``, which must be an instance of ``kind`` (a bool is
    not a number); anything else is a ParseError."""
    if key not in payload:
        raise ParseError(f"run-record JSON is missing field {key!r}")
    value = payload[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ParseError(f"run-record JSON field {key!r} has the wrong type: "
                         f"{type(value).__name__}")
    return value


def _json_column(evals: dict, name: str, kinds: str) -> np.ndarray:
    """``evals[name]`` as a 1-D array whose dtype kind is in ``kinds``
    (an int beyond int64 makes a list uint64, float or object); anything
    else is a ParseError."""
    if name not in evals:
        raise ParseError(f"run-record JSON evals are missing {name!r}")
    try:
        column = np.asarray(evals[name])
    except ValueError:
        column = None  # a ragged list
    if column is None or column.ndim != 1 or (column.size and column.dtype.kind not in kinds):
        what = "numbers" if "f" in kinds else "integers"
        raise ParseError(f"run-record JSON evals {name!r} must be a flat list of {what}")
    return column


def new_record_paths(directory: str | Path, run_id: str) -> tuple[Path, Path]:
    """The paths of ``run_id``'s record CSV and JSON mirror in ``directory``;
    FileExistsError if either exists, as records are append-only."""
    paths = (Path(directory) / f"{run_id}.csv", Path(directory) / f"{run_id}.json")
    for path in paths:
        if path.exists():
            raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(path))
    return paths


def write_run_record(record: RunRecord, directory: str | Path) -> Path:
    """Write ``<run_id>.csv`` and ``<run_id>.json`` into ``directory``.

    Records are append-only: writing a run_id whose CSV or JSON file
    already exists in the directory raises FileExistsError, before either
    file is written, instead of overwriting history. Both files are UTF-8.
    """
    # refuse before writing either file, so a refusal never leaves half a record
    csv_path, json_path = new_record_paths(directory, record.run_id)
    Path(directory).mkdir(parents=True, exist_ok=True)
    # one file's text at a time: the CSV's is dropped before the mirror's is built
    write_text(csv_path, record.to_csv(), "x")
    write_text(json_path, record.to_json(), "x")
    return csv_path


@dataclass(frozen=True)
class RegretCurve:
    """Best-so-far regret as a staircase over evaluation count.

    Points are (evals_used, min regret after that many evaluations),
    stored at change points plus the final evaluation. Regret counts
    feasible evaluations only and is +inf before the first one.
    """

    evals: np.ndarray
    regrets: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "evals", np.asarray(self.evals, dtype=np.int64))
        object.__setattr__(self, "regrets", np.asarray(self.regrets, dtype=np.float64))
        require(self.evals.ndim == 1 and self.evals.shape == self.regrets.shape,
                "evals and regrets must be 1-D and the same length")
        require(self.evals.shape[0] >= 1, "a regret curve needs at least one point")
        require(bool(np.all(np.diff(self.evals) > 0)) and int(self.evals[0]) >= 1,
                "evals must be strictly increasing and start at >= 1")
        finite = self.regrets[np.isfinite(self.regrets)]
        require(not np.isnan(self.regrets).any(), "regrets must not contain NaN")
        require(finite.size == 0 or bool(np.all(finite >= -1e-12)),
                "regret must be nonnegative")
        # direct comparison, not diff: inf - inf is NaN but inf <= inf holds,
        # and a never-feasible run is a legitimate all-inf staircase
        require(bool(np.all(self.regrets[1:] <= self.regrets[:-1])),
                "min regret must be nonincreasing in evaluations")

    @classmethod
    def from_values(cls, values: np.ndarray) -> "RegretCurve":
        values = np.asarray(values)
        require(values.ndim == 1 and values.size >= 1 and values.dtype.kind in "iuf",
                f"values must be a nonempty 1-D array of numbers, got {values.dtype} "
                f"of shape {values.shape}")
        values = values.astype(np.float64, copy=False)
        best = np.maximum.accumulate(values)
        regrets = regret_of_value(best)
        change = np.ones(values.shape[0], dtype=bool)
        change[1:] = regrets[1:] != regrets[:-1]
        change[-1] = True
        idx = np.flatnonzero(change)
        return cls(evals=idx + 1, regrets=regrets[idx])

    @classmethod
    def from_record(cls, record: RunRecord) -> "RegretCurve":
        return cls.from_values(record.values)

    @property
    def final_regret(self) -> float:
        return float(self.regrets[-1])

    def regret_at(self, evals: int | np.ndarray) -> np.ndarray | float:
        """Staircase lookup: regret after ``evals`` evaluations."""
        evals = np.asarray(evals, dtype=np.int64)
        pos = np.searchsorted(self.evals, evals, side="right") - 1
        out = np.where(pos < 0, np.inf, self.regrets[np.clip(pos, 0, None)])
        return float(out) if out.ndim == 0 else out

    def to_csv(self) -> str:
        return format_table("regret-curve", REGRET_CURVE_VERSION,
                            {"evals_used": self.evals, "min_regret": self.regrets})


def read_regret_curve(path: str | Path) -> RegretCurve:
    _, rows = read_table(path, "regret-curve", REGRET_CURVE_VERSION, _CURVE_DTYPE,
                         "regret curve")
    return RegretCurve(evals=rows["evals_used"], regrets=rows["min_regret"])


@dataclass(frozen=True)
class ParetoPoint:
    label: str
    budget: float
    min_regret: float

    def __post_init__(self) -> None:
        require(bool(self.label), "label must be nonempty")
        # a table field holds no separator, comment mark or line break
        require(not any(c in self.label for c in ",#\r\n"),
                f"label must not contain ',', '#' or a line break, got {self.label!r}")
        require(float(self.budget) > 0, f"budget must be > 0, got {self.budget}")
        require(
            float(self.min_regret) >= 0 and not np.isnan(self.min_regret),
            f"min_regret must be >= 0, got {self.min_regret}",
        )


@dataclass(frozen=True)
class ParetoReport:
    """(budget, min regret) points grouped by configuration label.

    The hypervolume of a point set is the mean over its points of
    budget x min_regret — the average area dominated per point. A curve
    pinned at regret 1 for every budget therefore has hypervolume equal
    to the mean of its budgets.
    """

    points: tuple[ParetoPoint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        require(len(self.points) >= 1, "a report needs at least one point")

    @classmethod
    def from_arrays(cls, labels: Sequence[str], budgets: Sequence[float],
                    regrets: Sequence[float]) -> "ParetoReport":
        require(len(labels) == len(budgets) == len(regrets),
                "labels, budgets, and regrets must be the same length")
        return cls(points=tuple(
            ParetoPoint(label=l, budget=float(b), min_regret=float(r))
            for l, b, r in zip(labels, budgets, regrets)
        ))

    @property
    def labels(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for point in self.points:
            seen.setdefault(point.label, None)
        return tuple(seen)

    def hypervolume(self, label: str | None = None) -> float:
        chosen = [p for p in self.points if label is None or p.label == label]
        require(bool(chosen), f"no points with label {label!r}")
        volume = float(np.mean([p.budget * p.min_regret for p in chosen]))
        # budget > 0 and regret >= 0 are enforced per point, so this
        # cannot go negative; guard anyway since it is the contract.
        require(volume >= 0.0, f"hypervolume must be >= 0, got {volume}")
        return volume

    def to_csv(self) -> str:
        return format_table("pareto-report", PARETO_REPORT_VERSION, {
            "label": [p.label for p in self.points],
            "budget": [p.budget for p in self.points],
            "min_regret": [p.min_regret for p in self.points],
        })


def read_pareto_report(path: str | Path) -> ParetoReport:
    _, rows = read_table(path, "pareto-report", PARETO_REPORT_VERSION, _PARETO_DTYPE,
                         "pareto report")
    return ParetoReport.from_arrays(rows["label"], rows["budget"], rows["min_regret"])


@dataclass(frozen=True)
class RoundSummary:
    """Diagnostics for one solver round, recomputed from the raw log.

    ``mean_margin_reward``/``max_margin_reward`` score each evaluation
    in the round against the best feasible value seen in *earlier*
    rounds (the incumbent the round started from), with -inf scores
    treated as 0 on both sides.
    """

    round_index: int
    num_evals: int
    unique_pct: float
    feasible_pct: float
    mean_margin_reward: float
    max_margin_reward: float
    min_regret: float


def round_summaries(record: RunRecord) -> list[RoundSummary]:
    """Per-round table for a record; every field derives from its rows.

    Rounds are nondecreasing, so each round is one contiguous run of rows.
    """
    summaries: list[RoundSummary] = []
    incumbent = float("-inf")
    rounds = record.rounds
    starts = np.flatnonzero(rounds[1:] != rounds[:-1]) + 1
    bounds = zip([0, *starts.tolist()], [*starts.tolist(), record.num_evals])
    for start, stop in bounds:
        values = record.values[start:stop]
        rewards = np.atleast_1d(margin_reward(incumbent, values))
        feasible = record.feasible[start:stop]
        incumbent = max(incumbent, float(values.max()))
        summaries.append(RoundSummary(
            round_index=int(rounds[start]),
            num_evals=stop - start,
            unique_pct=float(record.unique[start:stop].mean() * 100.0),
            feasible_pct=float(feasible.mean() * 100.0),
            mean_margin_reward=float(rewards.mean()),
            max_margin_reward=float(rewards.max()),
            min_regret=regret_of_value(incumbent),
        ))
    return summaries
