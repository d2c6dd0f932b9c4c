"""Run records and benchmark reports.

A solver run is persisted as an append-only per-evaluation log (one row
per oracle call, in call order) plus a small metadata block. Everything
a report prints — regret curves, uniqueness and feasibility rates,
margin-reward summaries, hypervolumes — is recomputed from those rows,
so a record file is the single source of truth for a run.

Both file formats carry an explicit version line so old records stay
readable after schema changes: CSV files start with a ``# <kind> v<N>``
comment, and the JSON mirror stores ``format`` and ``version`` fields.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ParseError, require
from .losses import margin_reward

RUN_RECORD_VERSION = 1
REGRET_CURVE_VERSION = 1
PARETO_REPORT_VERSION = 1

_RUN_COLUMNS = ("eval_index", "round", "value", "feasible", "unique")


def config_hash(config: Mapping) -> str:
    """12-hex-digit digest of a configuration mapping.

    Keys are sorted and values serialized canonically, so two configs
    hash equal iff they are the same mapping (up to key order).
    """
    canonical = json.dumps(dict(config), sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def unique_flags(tokens: np.ndarray) -> np.ndarray:
    """True at each row's first occurrence within the array."""
    tokens = np.asarray(tokens)
    require(tokens.ndim == 2, f"tokens must be 2-D, got shape {tokens.shape}")
    flags = np.zeros(tokens.shape[0], dtype=bool)
    seen: set[bytes] = set()
    for i, row in enumerate(tokens):
        key = row.tobytes()
        if key not in seen:
            seen.add(key)
            flags[i] = True
    return flags


class EvalLedger:
    """Oracle wrapper that logs every scored batch in call order.

    Duck-types the parts of the function interface the solvers use
    (``params``, ``transition``, ``initial_solution``,
    ``evaluate_batch``), so it can stand in for the function itself.
    A batch the wrapped function rejects is not recorded.
    """

    def __init__(self, function):
        self._function = function
        self._tokens: list[np.ndarray] = []
        self._values: list[np.ndarray] = []

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
        self._tokens.append(np.array(tokens, dtype=np.int64))
        self._values.append(np.array(values, dtype=np.float64))
        return values

    @property
    def num_evals(self) -> int:
        return sum(len(v) for v in self._values)

    @property
    def num_calls(self) -> int:
        return len(self._values)

    def tokens(self) -> np.ndarray:
        if not self._tokens:
            return np.zeros((0, self._function.params.length), dtype=np.int64)
        return np.concatenate(self._tokens, axis=0)

    def values(self) -> np.ndarray:
        if not self._values:
            return np.zeros(0, dtype=np.float64)
        return np.concatenate(self._values)

    def call_rounds(self) -> np.ndarray:
        """Round label per evaluation: the 0-based index of its batch."""
        if not self._values:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(
            [np.full(len(v), i, dtype=np.int64) for i, v in enumerate(self._values)]
        )


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
        require(bool(self.run_id), "run_id must be nonempty")
        object.__setattr__(self, "eval_index", np.asarray(self.eval_index, dtype=np.int64))
        object.__setattr__(self, "rounds", np.asarray(self.rounds, dtype=np.int64))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        object.__setattr__(self, "feasible", np.asarray(self.feasible, dtype=bool))
        object.__setattr__(self, "unique", np.asarray(self.unique, dtype=bool))
        n = self.eval_index.shape[0]
        require(n >= 1, "a run record needs at least one evaluation")
        for name in ("rounds", "values", "feasible", "unique"):
            require(
                getattr(self, name).shape == (n,),
                f"{name} must have shape ({n},), got {getattr(self, name).shape}",
            )
        require(
            bool(np.all(np.diff(self.eval_index) > 0)) and int(self.eval_index[0]) >= 1,
            "eval_index must be strictly increasing and start at >= 1",
        )
        require(bool(np.all(np.diff(self.rounds) >= 0)), "rounds must be nondecreasing")
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
        if not self.feasible.any():
            return float("-inf")
        return float(self.values[self.feasible].max())

    @property
    def min_regret(self) -> float:
        best = self.best_value
        return float("inf") if best == float("-inf") else 1.0 - best

    def to_csv(self) -> str:
        lines = [
            f"# run-record v{RUN_RECORD_VERSION}",
            f"# run_id={self.run_id}",
            f"# instance={self.instance_name}",
            f"# instance_seed={self.instance_seed}",
            f"# solver={self.solver}",
            f"# config_hash={self.config_hash}",
            f"# duration_seconds={self.duration_seconds!r}",
            ",".join(_RUN_COLUMNS),
        ]
        for i in range(self.num_evals):
            lines.append(
                f"{int(self.eval_index[i])},{int(self.rounds[i])},{float(self.values[i])!r},"
                f"{int(self.feasible[i])},{int(self.unique[i])}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "format": "run-record",
            "version": RUN_RECORD_VERSION,
            "run_id": self.run_id,
            "instance": self.instance_name,
            "instance_seed": self.instance_seed,
            "solver": self.solver,
            "config_hash": self.config_hash,
            "duration_seconds": self.duration_seconds,
            "evals": {
                "eval_index": self.eval_index.tolist(),
                "round": self.rounds.tolist(),
                "value": self.values.tolist(),
                "feasible": self.feasible.astype(int).tolist(),
                "unique": self.unique.astype(int).tolist(),
            },
        }
        return json.dumps(payload, indent=2) + "\n"


def make_run_record(
    run_id: str,
    instance_name: str,
    instance_seed: int,
    solver: str,
    config: Mapping,
    tokens: np.ndarray,
    values: np.ndarray,
    rounds: np.ndarray,
    duration_seconds: float,
) -> RunRecord:
    """Assemble a record from raw batches, deriving flags and the hash."""
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
        unique=unique_flags(tokens),
        duration_seconds=float(duration_seconds),
    )


def _parse_header(text: str, kind: str, version: int) -> tuple[dict, list[str]]:
    """Split a record file into (metadata, data lines), checking the version."""
    meta: dict[str, str] = {}
    data: list[str] = []
    lines = text.splitlines()
    if not lines or not lines[0].startswith(f"# {kind} v"):
        raise ParseError(f"missing '# {kind} v<N>' version line")
    got = lines[0][len(f"# {kind} v"):].strip()
    if got != str(version):
        raise ParseError(f"unsupported {kind} version {got!r} (expected {version})")
    for line in lines[1:]:
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
        elif line.strip():
            data.append(line)
    return meta, data


def read_run_record(path: str | Path) -> RunRecord:
    """Parse a run-record CSV written by :func:`write_run_record`."""
    meta, data = _parse_header(Path(path).read_text(), "run-record", RUN_RECORD_VERSION)
    for key in ("run_id", "instance", "instance_seed", "solver", "config_hash",
                "duration_seconds"):
        if key not in meta:
            raise ParseError(f"run record is missing metadata line '# {key}=...'")
    if not data or data[0].split(",") != list(_RUN_COLUMNS):
        raise ParseError(
            f"run record column header must be {','.join(_RUN_COLUMNS)!r}"
        )
    rows = []
    for line_no, line in enumerate(data[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(_RUN_COLUMNS):
            raise ParseError(
                f"data line {line_no}: expected {len(_RUN_COLUMNS)} fields, got {len(parts)}"
            )
        try:
            rows.append(
                (int(parts[0]), int(parts[1]), float(parts[2]), int(parts[3]), int(parts[4]))
            )
        except ValueError as exc:
            raise ParseError(f"data line {line_no}: {exc}") from None
    if not rows:
        raise ParseError("run record has no evaluation rows")
    cols = list(zip(*rows))
    return RunRecord(
        run_id=meta["run_id"],
        instance_name=meta["instance"],
        instance_seed=int(meta["instance_seed"]),
        solver=meta["solver"],
        config_hash=meta["config_hash"],
        eval_index=np.asarray(cols[0], dtype=np.int64),
        rounds=np.asarray(cols[1], dtype=np.int64),
        values=np.asarray(cols[2], dtype=np.float64),
        feasible=np.asarray(cols[3], dtype=bool),
        unique=np.asarray(cols[4], dtype=bool),
        duration_seconds=float(meta["duration_seconds"]),
    )


def read_run_record_json(path: str | Path) -> RunRecord:
    payload = json.loads(Path(path).read_text())
    if payload.get("format") != "run-record":
        raise ParseError(f"not a run-record JSON file: format={payload.get('format')!r}")
    if payload.get("version") != RUN_RECORD_VERSION:
        raise ParseError(
            f"unsupported run-record version {payload.get('version')!r}"
        )
    evals = payload["evals"]
    return RunRecord(
        run_id=payload["run_id"],
        instance_name=payload["instance"],
        instance_seed=int(payload["instance_seed"]),
        solver=payload["solver"],
        config_hash=payload["config_hash"],
        eval_index=np.asarray(evals["eval_index"], dtype=np.int64),
        rounds=np.asarray(evals["round"], dtype=np.int64),
        values=np.asarray(evals["value"], dtype=np.float64),
        feasible=np.asarray(evals["feasible"], dtype=bool),
        unique=np.asarray(evals["unique"], dtype=bool),
        duration_seconds=float(payload["duration_seconds"]),
    )


def write_run_record(record: RunRecord, directory: str | Path) -> Path:
    """Write ``<run_id>.csv`` and ``<run_id>.json`` into ``directory``.

    Records are append-only: writing a run_id that already exists in the
    directory raises FileExistsError instead of overwriting history.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    csv_path = directory / f"{record.run_id}.csv"
    json_path = directory / f"{record.run_id}.json"
    with open(csv_path, "x") as handle:
        handle.write(record.to_csv())
    with open(json_path, "x") as handle:
        handle.write(record.to_json())
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
        values = np.asarray(values, dtype=np.float64)
        require(values.ndim == 1 and values.size >= 1,
                "values must be a nonempty 1-D array")
        best = np.maximum.accumulate(values)
        regrets = np.where(np.isneginf(best), np.inf, 1.0 - best)
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
        lines = [f"# regret-curve v{REGRET_CURVE_VERSION}", "evals_used,min_regret"]
        for e, r in zip(self.evals, self.regrets):
            lines.append(f"{int(e)},{float(r)!r}")
        return "\n".join(lines) + "\n"


def read_regret_curve(path: str | Path) -> RegretCurve:
    _, data = _parse_header(Path(path).read_text(), "regret-curve", REGRET_CURVE_VERSION)
    if not data or data[0] != "evals_used,min_regret":
        raise ParseError("regret curve column header must be 'evals_used,min_regret'")
    evals, regrets = [], []
    for line_no, line in enumerate(data[1:], start=2):
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"data line {line_no}: expected 2 fields, got {len(parts)}")
        try:
            evals.append(int(parts[0]))
            regrets.append(float(parts[1]))
        except ValueError as exc:
            raise ParseError(f"data line {line_no}: {exc}") from None
    if not evals:
        raise ParseError("regret curve has no points")
    return RegretCurve(evals=np.asarray(evals), regrets=np.asarray(regrets))


@dataclass(frozen=True)
class ParetoPoint:
    label: str
    budget: float
    min_regret: float

    def __post_init__(self) -> None:
        require(bool(self.label), "label must be nonempty")
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
        lines = [f"# pareto-report v{PARETO_REPORT_VERSION}", "label,budget,min_regret"]
        for p in self.points:
            lines.append(f"{p.label},{p.budget!r},{p.min_regret!r}")
        return "\n".join(lines) + "\n"


def read_pareto_report(path: str | Path) -> ParetoReport:
    _, data = _parse_header(Path(path).read_text(), "pareto-report", PARETO_REPORT_VERSION)
    if not data or data[0] != "label,budget,min_regret":
        raise ParseError("pareto report column header must be 'label,budget,min_regret'")
    points = []
    for line_no, line in enumerate(data[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"data line {line_no}: expected 3 fields, got {len(parts)}")
        try:
            points.append(ParetoPoint(parts[0], float(parts[1]), float(parts[2])))
        except ValueError as exc:
            raise ParseError(f"data line {line_no}: {exc}") from None
    if not points:
        raise ParseError("pareto report has no points")
    return ParetoReport(points=tuple(points))


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
    """Per-round table for a record; every field derives from its rows."""
    summaries: list[RoundSummary] = []
    incumbent = float("-inf")
    for round_index in np.unique(record.rounds):
        in_round = record.rounds == round_index
        values = record.values[in_round]
        rewards = np.atleast_1d(margin_reward(incumbent, values))
        feasible = record.feasible[in_round]
        if feasible.any():
            incumbent = max(incumbent, float(values[feasible].max()))
        summaries.append(RoundSummary(
            round_index=int(round_index),
            num_evals=int(in_round.sum()),
            unique_pct=float(record.unique[in_round].mean() * 100.0),
            feasible_pct=float(feasible.mean() * 100.0),
            mean_margin_reward=float(rewards.mean()),
            max_margin_reward=float(rewards.max()),
            min_regret=float("inf") if incumbent == float("-inf") else 1.0 - incumbent,
        ))
    return summaries
