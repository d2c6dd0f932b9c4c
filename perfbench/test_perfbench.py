"""Tests of the benchmark's own checks.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import refscore  # noqa: E402
from ehrlich import EhrlichParams, cli, generate  # noqa: E402
from ehrlich.instance_io import write_instance  # noqa: E402
from workloads import markov_chains  # noqa: E402

INSTANCE = ("--name", "Ehr(4,16)-2-2-2", "--instance-seed", "1")


def _cli(*args: str) -> None:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        assert cli.main(list(args)) == 0, sink.getvalue()


def _reference_instance(tmp_path: Path, name: str, seed: int):
    fn = generate(EhrlichParams.from_name(name, seed=seed))
    path = tmp_path / "instance.json"
    write_instance(fn, path)
    return fn, refscore.load_instance(path)


@pytest.mark.parametrize("q", [1, 2])
def test_reference_scorer_agrees_with_enumeration(tmp_path, q):
    fn, inst = _reference_instance(tmp_path, f"Ehr(4,8)-2-2-{q}", seed=3)
    tokens = np.array(list(itertools.product(range(4), repeat=8)), dtype=np.int64)
    values = fn.evaluate_batch(tokens)
    exact = [refscore.score(inst, row) for row in tokens.tolist()]
    for row, value, ref in zip(tokens.tolist(), values, exact):
        assert (value == -math.inf) if ref is None else (value == float(ref)), row
    feasible = {ref for ref in exact if ref is not None}
    assert feasible <= refscore.level_products(inst)
    assert max(feasible) == 1 and len(feasible) >= 2
    assert refscore.score(inst, fn.optimum.tolist()) == 1
    checks.check_score_properties(inst, tokens, values)


def test_score_checks_reject_a_wrong_value(tmp_path):
    fn, inst = _reference_instance(tmp_path, "Ehr(4,8)-2-2-2", seed=3)
    tokens = np.array(list(itertools.product(range(4), repeat=8)), dtype=np.int64)[::7]
    values = fn.evaluate_batch(tokens)
    feasible = np.flatnonzero(values > -np.inf)
    infeasible = np.flatnonzero(values == -np.inf)
    for at, wrong in ((feasible[0], 0.3), (infeasible[0], 0.0), (feasible[0], -np.inf)):
        bad = values.copy()
        bad[at] = wrong
        with pytest.raises(checks.CheckFailed):
            checks.check_score_properties(inst, tokens, bad)
        with pytest.raises(checks.CheckFailed):
            checks.check_reference(inst, tokens[at:at + 1], bad[at:at + 1])
    on_grid = values.copy()
    on_grid[feasible[0]] = 1.0 if values[feasible[0]] != 1.0 else 0.0
    with pytest.raises(checks.CheckFailed):
        checks.check_reference(inst, tokens[feasible[:1]], on_grid[feasible[:1]])


def test_markov_chain_pool_is_feasible(tmp_path):
    fn, inst = _reference_instance(tmp_path, "Ehr(32,32)-4-4-4", seed=7)
    tokens = markov_chains(fn.transition.entries, 32, 2000, np.random.default_rng(0))
    assert fn.transition.mask[tokens[:, :-1], tokens[:, 1:]].all()
    assert np.unique(tokens[:, 0]).size == 32


# --- solver-run checks ------------------------------------------------------

def _rewrite(csv: Path, row: int, column: int, text: str) -> Path:
    """Copy of a run-record CSV with one field of one data row replaced."""
    lines = csv.read_text().split("\n")
    at = lines.index(checks.RUN_COLUMNS) + 1 + row
    fields = lines[at].split(",")
    fields[column] = text
    lines[at] = ",".join(fields)
    out = csv.with_name(f"corrupt-{row}-{column}-{csv.name}")
    out.write_text("\n".join(lines))
    return out


def _solver_run(out: Path, *args: str) -> tuple[Path, Path]:
    _cli(*args, "--seed-list", "0", "--out-dir", str(out))
    csv = next(p for p in out.glob("*.csv") if not p.name.endswith(".curve.csv"))
    report = out / "report" / "report.csv"
    report.parent.mkdir()
    _cli("report", "--records", str(csv), "--out", str(report))
    return csv, report


@pytest.fixture(scope="module")
def ga_run(tmp_path_factory):
    return _solver_run(tmp_path_factory.mktemp("ga"), "run-ga", *INSTANCE,
                       "--budget", "3001", "--particles", "100", "--no-early-stop")


@pytest.fixture(scope="module")
def llome_run(tmp_path_factory):
    return _solver_run(tmp_path_factory.mktemp("llome"), "run-llome", *INSTANCE,
                       "--rounds", "3", "--evals-per-round", "100", "--presolver-rounds", "2",
                       "--presolver-particles", "50", "--seeds-per-round", "20",
                       "--refine-iters", "2", "--samples-per-iter", "2")


def _first_row(rec, round_index):
    return int(np.flatnonzero(rec.rounds == round_index)[0])


def _corruptions(csv: Path, rec) -> dict[str, Path]:
    """One value raised to f = 1 early in the run, and one round label moved."""
    row = _first_row(rec, 1)
    assert rec.values[row] != 1.0
    return {
        "value": _rewrite(csv, row, 2, "1.0"),
        "round": _rewrite(csv, _first_row(rec, 2), 1, "1"),
    }


def test_ga_checks_pass_on_the_real_run(ga_run):
    csv, report = ga_run
    rec = checks.read_record_csv(csv)
    checks.check_record_invariants(rec)
    checks.check_csv_matches_json(rec, csv.with_suffix(".json"))
    checks.check_report(rec, checks.read_report(report))
    checks.check_curve(rec, csv.with_suffix(".curve.csv"))
    checks.check_ga_run(rec, 3001, 100)


@pytest.mark.parametrize("kind", ["value", "round"])
def test_ga_checks_reject_one_corrupted_field(ga_run, kind):
    csv, report = ga_run
    rec = checks.read_record_csv(csv)
    bad = checks.read_record_csv(_corruptions(csv, rec)[kind])
    assert bad.rows_digest != rec.rows_digest  # the same-seed comparison
    with pytest.raises(checks.CheckFailed):
        checks.check_csv_matches_json(bad, csv.with_suffix(".json"))
    with pytest.raises(checks.CheckFailed):
        checks.check_report(bad, checks.read_report(report))
    if kind == "value":
        with pytest.raises(checks.CheckFailed):
            checks.check_curve(bad, csv.with_suffix(".curve.csv"))
    else:
        with pytest.raises(checks.CheckFailed):
            checks.check_ga_run(bad, 3001, 100)


def test_ga_check_rejects_a_run_cut_short(ga_run):
    rec = checks.read_record_csv(ga_run[0])
    with pytest.raises(checks.CheckFailed):
        checks.check_ga_run(rec, 3101, 100)
    with pytest.raises(checks.CheckFailed):
        checks.check_ga_run(rec, 2901, 100)


def test_record_invariants_reject_a_value_that_contradicts_its_flag(ga_run):
    rec = checks.read_record_csv(ga_run[0])
    row = int(np.flatnonzero(rec.feasible)[0])
    bad = checks.read_record_csv(_rewrite(ga_run[0], row, 2, "-inf"))
    with pytest.raises(checks.CheckFailed):
        checks.check_record_invariants(bad)


def test_llome_checks_pass_on_the_real_run(llome_run):
    csv, report = llome_run
    rec = checks.read_record_csv(csv)
    checks.check_record_invariants(rec)
    checks.check_csv_matches_json(rec, csv.with_suffix(".json"))
    checks.check_report(rec, checks.read_report(report))
    checks.check_curve(rec, csv.with_suffix(".curve.csv"))
    checks.check_llome_rounds(rec, csv.with_suffix(".rounds.json"), 100)


def test_llome_checks_reject_one_corrupted_field(llome_run):
    csv, _ = llome_run
    rec = checks.read_record_csv(csv)
    stats = csv.with_suffix(".rounds.json")
    row = int(np.flatnonzero((rec.rounds == 1) & (rec.feasible == 1))[0])
    for bad_csv in (_rewrite(csv, row, 2, "-inf"), _rewrite(csv, _first_row(rec, 2), 1, "1")):
        with pytest.raises(checks.CheckFailed):
            checks.check_llome_rounds(checks.read_record_csv(bad_csv), stats, 100)
    with pytest.raises(checks.CheckFailed):
        checks.check_llome_rounds(rec, stats, 10)  # more oracle calls than allowed
