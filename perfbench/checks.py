"""Correctness checks on what the program wrote, from its files alone.

The parsers here read the on-disk formats directly (run-record CSV and
JSON mirror, regret curve, round report, round stats, scored sequence
files) without the package's own readers, and every check compares
against a property the method must have, never a stored copy of an
earlier output. A failed check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import refscore

RUN_COLUMNS = "eval_index,round,value,feasible,unique"
REPORT_COLUMNS = ("run_id,round,num_evals,unique_pct,feasible_pct,"
                  "mean_margin_reward,max_margin_reward,min_regret")
# Derived percentages and regrets are compared with this relative
# tolerance, so a reordered but equivalent summation still passes.
REL_TOL = 1e-12


class CheckFailed(Exception):
    """An output of the program violates a property it must have."""


def check(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _numbers(text: str, what: str) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.fromstring(text, dtype=np.float64, sep=",")
        except (ValueError, DeprecationWarning) as exc:
            raise CheckFailed(f"{what}: malformed number ({exc})") from None


def _split_header(text: str, kind: str) -> tuple[dict, list[str], str]:
    """(metadata, column header + data lines, data text) of a versioned CSV."""
    lines = text.split("\n")
    check(lines and lines[0] == f"# {kind} v1", f"missing '# {kind} v1' line")
    meta = {}
    at = 1
    while at < len(lines) and lines[at].startswith("#"):
        key, sep, value = lines[at][1:].strip().partition("=")
        if sep:
            meta[key.strip()] = value.strip()
        at += 1
    body = [line for line in lines[at:] if line]
    check(body, f"{kind} has no column header")
    return meta, body, "\n".join(body)


@dataclass
class Record:
    """One run record's rows, read from its CSV."""

    meta: dict
    eval_index: np.ndarray
    rounds: np.ndarray
    values: np.ndarray
    feasible: np.ndarray
    unique: np.ndarray
    rows_digest: str  # sha256 of the column header and data rows

    @property
    def num_evals(self) -> int:
        return int(self.values.shape[0])


def read_record_csv(path: str | Path) -> Record:
    meta, body, data_text = _split_header(Path(path).read_text(), "run-record")
    check(body[0] == RUN_COLUMNS, f"{path}: column header {body[0]!r}")
    rows = len(body) - 1
    check(rows >= 1, f"{path}: no evaluation rows")
    cells = _numbers(",".join(body[1:]), str(path))
    check(cells.shape[0] == 5 * rows, f"{path}: expected 5 fields on each of {rows} rows")
    cells = cells.reshape(rows, 5)
    ints = cells[:, [0, 1, 3, 4]]
    check(np.all(np.isfinite(ints)) and np.array_equal(ints, np.round(ints)),
          f"{path}: non-integer index, round or flag")
    return Record(
        meta=meta,
        eval_index=cells[:, 0].astype(np.int64),
        rounds=cells[:, 1].astype(np.int64),
        values=cells[:, 2],
        feasible=cells[:, 3].astype(np.int64),
        unique=cells[:, 4].astype(np.int64),
        rows_digest=hashlib.sha256(data_text.encode()).hexdigest(),
    )


def check_record_invariants(rec: Record) -> None:
    n = rec.num_evals
    check(np.array_equal(rec.eval_index, np.arange(1, n + 1)),
          "eval_index is not 1, 2, ..., N")
    check(np.all(np.diff(rec.rounds) >= 0), "round labels decrease")
    check(not np.isnan(rec.values).any() and not np.isposinf(rec.values).any(),
          "value is NaN or +inf")
    check(np.isin(rec.feasible, (0, 1)).all() and np.isin(rec.unique, (0, 1)).all(),
          "feasible/unique flags are not 0/1")
    check(np.array_equal(rec.feasible == 0, np.isneginf(rec.values)),
          "feasible flag disagrees with value -inf")
    check(rec.unique[0] == 1, "first evaluation is not marked unique")


def check_csv_matches_json(rec: Record, json_path: str | Path) -> None:
    payload = json.loads(Path(json_path).read_text())
    check(payload.get("format") == "run-record" and payload.get("version") == 1,
          f"{json_path}: not a run-record v1 mirror")
    for key, meta_key in (("run_id", "run_id"), ("instance", "instance"),
                          ("solver", "solver"), ("config_hash", "config_hash")):
        check(str(payload[key]) == rec.meta.get(meta_key),
              f"JSON {key}={payload[key]!r} but CSV has {rec.meta.get(meta_key)!r}")
    check(str(payload["instance_seed"]) == rec.meta.get("instance_seed"),
          "JSON and CSV instance_seed differ")
    check(float(payload["duration_seconds"]) == float(rec.meta["duration_seconds"]),
          "JSON and CSV duration_seconds differ")
    evals = payload["evals"]
    for key, column in (("eval_index", rec.eval_index), ("round", rec.rounds),
                        ("value", rec.values), ("feasible", rec.feasible),
                        ("unique", rec.unique)):
        mirrored = np.asarray(evals[key], dtype=column.dtype)
        check(np.array_equal(mirrored, column), f"JSON column {key!r} differs from the CSV")


@dataclass(frozen=True)
class RoundRow:
    round_index: int
    num_evals: int
    unique_pct: float
    feasible_pct: float
    min_regret: float


def round_table(rec: Record) -> list[RoundRow]:
    """Per-round evals, unique %, feasible % and min regret, from the rows."""
    starts = np.flatnonzero(np.r_[True, rec.rounds[1:] != rec.rounds[:-1]])
    ends = np.r_[starts[1:], rec.num_evals]
    best = np.maximum.accumulate(rec.values)
    table = []
    for start, end in zip(starts, ends):
        n = int(end - start)
        incumbent = float(best[end - 1])
        table.append(RoundRow(
            round_index=int(rec.rounds[start]),
            num_evals=n,
            unique_pct=int(rec.unique[start:end].sum()) / n * 100.0,
            feasible_pct=int(rec.feasible[start:end].sum()) / n * 100.0,
            min_regret=math.inf if incumbent == -math.inf else 1.0 - incumbent,
        ))
    return table


def read_report(path: str | Path) -> dict[str, list[RoundRow]]:
    """Round report CSV (``ehrlich report --out``) grouped by run_id."""
    _, body, _ = _split_header(Path(path).read_text(), "round-report")
    check(body[0] == REPORT_COLUMNS, f"{path}: column header {body[0]!r}")
    runs: dict[str, list[RoundRow]] = {}
    for line in body[1:]:
        parts = line.split(",")
        check(len(parts) == 8, f"{path}: expected 8 fields in {line!r}")
        try:
            row = RoundRow(int(parts[1]), int(parts[2]), float(parts[3]),
                           float(parts[4]), float(parts[7]))
        except ValueError:
            raise CheckFailed(f"{path}: malformed row {line!r}") from None
        runs.setdefault(parts[0], []).append(row)
    return runs


def _close(a: float, b: float) -> bool:
    return a == b or math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def check_report(rec: Record, report: dict[str, list[RoundRow]]) -> None:
    run_id = rec.meta["run_id"]
    check(run_id in report, f"report has no rows for {run_id}")
    got, want = report[run_id], round_table(rec)
    check(len(got) == len(want), f"report lists {len(got)} rounds, the rows hold {len(want)}")
    for g, w in zip(got, want):
        check(g.round_index == w.round_index and g.num_evals == w.num_evals,
              f"report round {g.round_index} ({g.num_evals} evals) vs rows "
              f"round {w.round_index} ({w.num_evals} evals)")
        for field in ("unique_pct", "feasible_pct", "min_regret"):
            check(_close(getattr(g, field), getattr(w, field)),
                  f"report round {g.round_index} {field}={getattr(g, field)!r}, "
                  f"rows give {getattr(w, field)!r}")


def check_curve(rec: Record, curve_path: str | Path) -> None:
    """The regret curve is the staircase of 1 - running max of the values."""
    _, body, _ = _split_header(Path(curve_path).read_text(), "regret-curve")
    check(body[0] == "evals_used,min_regret", f"{curve_path}: column header {body[0]!r}")
    cells = _numbers(",".join(body[1:]), str(curve_path)).reshape(-1, 2)
    evals = cells[:, 0].astype(np.int64)
    check(evals[0] == 1 and evals[-1] == rec.num_evals and np.all(np.diff(evals) > 0),
          "curve points do not run from eval 1 to the last eval")
    best = np.maximum.accumulate(rec.values)
    expected = np.where(np.isneginf(best), np.inf, 1.0 - best)
    staircase = cells[np.searchsorted(evals, np.arange(1, rec.num_evals + 1),
                                      side="right") - 1, 1]
    check(np.array_equal(staircase, expected),
          "regret curve differs from 1 - running max of the values")


def check_ga_run(rec: Record, budget: int, particles: int) -> None:
    """Budget of the evolutionary baseline run without early stopping.

    Round 0 is the single initial evaluation and round r the r-th step's
    full population. The run stops when one more step would exceed the
    budget.
    """
    n = rec.num_evals
    check(n <= budget, f"{n} evaluations exceed the budget {budget}")
    steps = (n - 1) // particles
    check(n == 1 + steps * particles, f"{n} evaluations is not 1 + steps x {particles}")
    expected_rounds = np.r_[0, np.repeat(np.arange(1, steps + 1), particles)]
    check(np.array_equal(rec.rounds, expected_rounds),
          "round labels are not 0 then one full population per step")
    check(n + particles > budget,
          f"run stopped at {n} evaluations with room for another step of {particles}")


def check_llome_rounds(rec: Record, stats_path: str | Path, evals_per_round: int) -> None:
    """Round stats of the bilevel loop against its record."""
    stats = json.loads(Path(stats_path).read_text())
    check(stats.get("format") == "round-stats", f"{stats_path}: not a round-stats file")
    rounds = stats["rounds"]
    oracle = [int(r["oracle_calls"]) for r in rounds]
    check(rec.num_evals == int(stats["presolver_evals"]) + sum(oracle),
          f"record holds {rec.num_evals} rows, presolver {stats['presolver_evals']} "
          f"+ oracle calls {sum(oracle)}")
    labels, counts = np.unique(rec.rounds, return_counts=True)
    check(labels.tolist() == list(range(len(rounds) + 1))
          and counts.tolist() == [int(stats["presolver_evals"])] + oracle,
          "record rows per round label differ from presolver evals and oracle calls")
    finite = ~np.isneginf(rec.values)
    prior = float(stats["presolver_min_regret"])
    for r in rounds:
        index = int(r["round_index"])
        check(int(r["oracle_calls"]) <= evals_per_round,
              f"round {index}: {r['oracle_calls']} oracle calls > {evals_per_round}")
        check(int(r["num_selected"]) <= int(r["num_candidates"]) <= int(r["num_generated"]),
              f"round {index}: selected <= candidates <= generated fails")
        share = int(finite[rec.rounds == index].sum()) / int(r["oracle_calls"])
        check(_close(float(r["feasible_fraction"]), share),
              f"round {index}: feasible_fraction {r['feasible_fraction']!r}, record gives {share!r}")
        so_far = float(r["min_regret_so_far"])
        check(so_far <= prior, f"round {index}: min_regret_so_far rose to {so_far!r}")
        prior = so_far


# --- scores ---------------------------------------------------------------

def mask_array(inst: refscore.RefInstance) -> np.ndarray:
    mask = np.zeros((inst.vocab_size, inst.vocab_size), dtype=bool)
    for a, allowed in enumerate(inst.allowed):
        mask[a, sorted(allowed)] = True
    return mask


def check_score_properties(inst: refscore.RefInstance, tokens: np.ndarray,
                           values: np.ndarray) -> None:
    """Every row: -inf exactly when an adjacent pair is forbidden, and
    otherwise one of the products of c quantized levels."""
    check(values.shape == (tokens.shape[0],), f"{values.shape[0]} values for {tokens.shape[0]} rows")
    forbidden = ~mask_array(inst)[tokens[:, :-1], tokens[:, 1:]].all(axis=1)
    check(np.array_equal(np.isneginf(values), forbidden),
          "a value is -inf without a forbidden pair, or finite with one")
    levels = np.array(sorted(float(p) for p in refscore.level_products(inst)))
    finite = values[~forbidden]
    at = np.clip(np.searchsorted(levels, finite), 1, levels.size - 1)
    nearest = np.minimum(np.abs(finite - levels[at - 1]), np.abs(finite - levels[at]))
    check(not np.isnan(finite).any() and np.all(nearest <= REL_TOL),
          "a feasible value is not a product of quantized motif levels")


def check_reference(inst: refscore.RefInstance, tokens: np.ndarray,
                    values: np.ndarray) -> set[Fraction]:
    """Exact agreement with the reference scorer; returns the feasible levels seen."""
    seen = set()
    for row, value in zip(tokens, values):
        exact = refscore.score(inst, row)
        if exact is None:
            check(value == -math.inf, f"row {row.tolist()} is infeasible but scored {value!r}")
        else:
            check(_close(float(value), float(exact)),
                  f"row {row.tolist()} scored {value!r}, reference gives {exact}")
            seen.add(exact)
    return seen


def read_scored_sequences(path: str | Path, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Scored sequence file (``ehrlich eval --out``): tokens and scores."""
    lines = [line for line in Path(path).read_text().split("\n") if line]
    check(lines, f"{path}: empty")
    cells = _numbers(",".join(lines), str(path))
    check(cells.shape[0] == (length + 1) * len(lines),
          f"{path}: expected {length + 1} fields on each line")
    cells = cells.reshape(len(lines), length + 1)
    return cells[:, :length].astype(np.int64), cells[:, length]
