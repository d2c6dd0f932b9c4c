"""End-to-end command-line harness behavior, driven through main(argv)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ehrlich.cli as cli
import oracles
from ehrlich import (
    GAConfig,
    GeneratorCollapseError,
    LoopConfig,
    make_run_record,
    read_instance,
    read_run_record,
    round_summaries,
    write_run_record,
)
from ehrlich.tables import read_table

INSTANCE = "Ehr(4,8)-2-2-2"


@pytest.fixture(scope="module")
def instance_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("inst") / "inst.txt"
    rc = cli.main(["gen", "--name", INSTANCE, "--instance-seed", "0",
                   "--out", str(path)])
    assert rc == 0
    return path


class TestGen:
    def test_stdout_is_deterministic(self, capsys):
        assert cli.main(["gen", "--name", INSTANCE]) == 0
        first = capsys.readouterr().out
        assert cli.main(["gen", "--name", INSTANCE]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first  # nonempty document

    def test_explicit_fields_match_name(self, capsys):
        assert cli.main(["gen", "--name", INSTANCE]) == 0
        by_name = capsys.readouterr().out
        assert cli.main(["gen", "--v", "4", "--L", "8", "--c", "2",
                         "--k", "2", "--q", "2"]) == 0
        by_fields = capsys.readouterr().out
        assert by_name == by_fields

    def test_overcrowded_motifs_exit_2(self, capsys):
        rc = cli.main(["gen", "--v", "4", "--L", "3", "--c", "2",
                       "--k", "2", "--q", "2"])
        assert rc == 2
        assert "must be <= length" in capsys.readouterr().err

    def test_missing_fields_exit_2(self, capsys):
        rc = cli.main(["gen", "--v", "4", "--L", "8"])
        assert rc == 2
        assert "--c" in capsys.readouterr().err

    def test_different_seed_changes_document(self, capsys):
        cli.main(["gen", "--name", INSTANCE, "--instance-seed", "0"])
        doc0 = capsys.readouterr().out
        cli.main(["gen", "--name", INSTANCE, "--instance-seed", "1"])
        doc1 = capsys.readouterr().out
        assert doc0 != doc1

    def test_out_naming_a_directory_exit_2(self, tmp_path, capsys):
        rc = cli.main(["gen", "--name", INSTANCE, "--out", str(tmp_path)])
        assert rc == 2
        assert f"output file is a directory: {tmp_path}" in capsys.readouterr().err


class TestEval:
    def test_documented_optimum_scores_one(self, instance_file, tmp_path, capsys):
        doc = json.loads(instance_file.read_text())
        seqs = tmp_path / "seqs.txt"
        seqs.write_text(",".join(map(str, doc["optimum"])) + "\n")
        out = tmp_path / "scored.txt"
        rc = cli.main(["eval", "--instance", str(instance_file),
                       "--sequences", str(seqs), "--out", str(out)])
        assert rc == 0
        assert out.read_text().strip().endswith(",1.0")
        assert "min_regret=0" in capsys.readouterr().err

    def test_malformed_token_names_line_and_column(self, instance_file, tmp_path, capsys):
        seqs = tmp_path / "seqs.txt"
        seqs.write_text("0,1,2,3,0,1,2,3\n0,1,zebra,3,0,1,2,3\n")
        rc = cli.main(["eval", "--instance", str(instance_file),
                       "--sequences", str(seqs)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "column 3" in err

    def test_missing_sequence_file_exit_2(self, instance_file, capsys):
        rc = cli.main(["eval", "--instance", str(instance_file),
                       "--sequences", "/nonexistent/seqs.txt"])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_appends_score_column(self, instance_file, tmp_path, capsys):
        seqs = tmp_path / "seqs.txt"
        seqs.write_text("0,0,0,0,0,0,0,0\n")
        rc = cli.main(["eval", "--instance", str(instance_file),
                       "--sequences", str(seqs)])
        assert rc == 0
        line = capsys.readouterr().out.strip()
        fields = line.split(",")
        assert len(fields) == 9
        float(fields[-1])

    def test_non_utf8_sequence_file_exit_2(self, instance_file, tmp_path, capsys):
        seqs = tmp_path / "seqs.txt"
        seqs.write_bytes(b"\xff\xfe1,2\n")
        rc = cli.main(["eval", "--instance", str(instance_file),
                       "--sequences", str(seqs)])
        assert rc == 2
        assert "sequence file is not UTF-8 text" in capsys.readouterr().err

    def test_directory_as_sequence_file_exit_2(self, instance_file, tmp_path, capsys):
        rc = cli.main(["eval", "--instance", str(instance_file),
                       "--sequences", str(tmp_path)])
        assert rc == 2
        assert "sequence file is a directory" in capsys.readouterr().err

    def test_directory_as_instance_exit_2(self, tmp_path, capsys):
        seqs = tmp_path / "seqs.txt"
        seqs.write_text("0,0,0,0,0,0,0,0\n")
        rc = cli.main(["eval", "--instance", str(tmp_path), "--sequences", str(seqs)])
        assert rc == 2
        assert "instance file is a directory" in capsys.readouterr().err

    def test_out_naming_a_directory_exit_2(self, instance_file, tmp_path, capsys):
        seqs = tmp_path / "seqs.txt"
        seqs.write_text("0,0,0,0,0,0,0,0\n")
        rc = cli.main(["eval", "--instance", str(instance_file),
                       "--sequences", str(seqs), "--out", str(tmp_path)])
        assert rc == 2
        assert f"output file is a directory: {tmp_path}" in capsys.readouterr().err

    @pytest.mark.parametrize("field,tamper", [
        ("motifs", lambda doc: doc["motifs"][0].append(0)),
        ("offsets", lambda doc: doc["offsets"][1].pop()),
        ("optimum", lambda doc: doc["optimum"].__setitem__(0, 10 ** 20)),
        ("'v'", lambda doc: doc["params"].__setitem__("v", "four")),
        # truncates to the documented token, so only a type check catches it
        ("optimum", lambda doc: doc["optimum"].__setitem__(0, doc["optimum"][0] + 0.9)),
    ], ids=["ragged-motifs", "ragged-offsets", "huge-token", "string-param", "float-token"])
    def test_malformed_instance_field_exit_2(self, instance_file, tmp_path, capsys,
                                             field, tamper):
        doc = json.loads(instance_file.read_text())
        tamper(doc)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        seqs = tmp_path / "seqs.txt"
        seqs.write_text("0,0,0,0,0,0,0,0\n")
        rc = cli.main(["eval", "--instance", str(path), "--sequences", str(seqs)])
        assert rc == 2
        assert field in capsys.readouterr().err

    def test_scored_file_matches_reference_writer(self, instance_file, tmp_path, capsys):
        rows = np.random.default_rng(3).integers(0, 4, size=(50, 8))
        seqs = tmp_path / "seqs.txt"
        seqs.write_text(oracles.format_sequences(rows))
        out = tmp_path / "scored.txt"
        rc = cli.main(["eval", "--instance", str(instance_file),
                       "--sequences", str(seqs), "--out", str(out)])
        assert rc == 0
        values = read_instance(instance_file).evaluate_batch(rows)
        assert out.read_text() == oracles.format_sequences(rows, values)


def run_ga_args(out_dir, budget="600", seeds="2", extra=()):
    return ["run-ga", "--name", INSTANCE, "--budget", budget,
            "--seeds", seeds, "--particles", "50",
            "--out-dir", str(out_dir), *extra]


def _solver_not_called(*args, **kwargs):
    raise AssertionError("the solver ran")


@pytest.mark.parametrize("argv, existing, solver", [
    (run_ga_args("{out}", seeds="1"), "ga-ehr-4-8-2-2-2-i0-s0.csv", "run_ga"),
    (["run-llome", "--name", INSTANCE, "--out-dir", "{out}"],
     "llome-ehr-4-8-2-2-2-i0-s0.json", "run_presolver"),
    (["sweep", "--axis", "q", "--values", "2", "--name", INSTANCE, "--budget", "300",
      "--particles", "50", "--out-dir", "{out}"],
     "sweep-q2-ehr-4-8-2-2-2-i0-s0.csv", "run_ga"),
], ids=["run-ga", "run-llome", "sweep"])
def test_existing_record_refused_before_the_solve(tmp_path, capsys, monkeypatch,
                                                  argv, existing, solver):
    (tmp_path / existing).write_text("kept\n")
    monkeypatch.setattr(cli, solver, _solver_not_called)
    rc = cli.main([arg.format(out=tmp_path) for arg in argv])
    assert rc == 2
    assert f"refusing to overwrite existing record: [Errno 17] File exists: " \
        f"'{tmp_path / existing}'" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == [existing]
    assert (tmp_path / existing).read_text() == "kept\n"


class TestRunGa:
    def test_writes_record_curve_and_json(self, tmp_path, capsys):
        rc = cli.main(run_ga_args(tmp_path))
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("ga-ehr-4-8-2-2-2-i0-s") == 2
        for seed in (0, 1):
            base = tmp_path / f"ga-ehr-4-8-2-2-2-i0-s{seed}"
            record = read_run_record(base.with_suffix(".csv"))
            assert record.solver == "ga"
            assert record.instance_name == INSTANCE
            assert record.num_evals <= 600
            _, curve = read_table(base.with_suffix(".curve.csv"), "regret-curve", 1, np.dtype(
                [("evals_used", np.int64), ("min_regret", np.float64)]), "regret curve")
            assert curve["evals_used"][-1] == record.num_evals
            assert curve["min_regret"][-1] == record.min_regret
            assert base.with_suffix(".json").exists()

    def test_identical_runs_reproduce_identical_logs(self, tmp_path, capsys):
        assert cli.main(run_ga_args(tmp_path / "a", seeds="1")) == 0
        assert cli.main(run_ga_args(tmp_path / "b", seeds="1")) == 0
        capsys.readouterr()
        one = read_run_record(tmp_path / "a" / "ga-ehr-4-8-2-2-2-i0-s0.csv")
        two = read_run_record(tmp_path / "b" / "ga-ehr-4-8-2-2-2-i0-s0.csv")
        assert np.array_equal(one.values, two.values)
        assert np.array_equal(one.unique, two.unique)
        assert one.config_hash == two.config_hash

    def test_rerun_into_same_dir_refuses_overwrite(self, tmp_path, capsys):
        assert cli.main(run_ga_args(tmp_path, seeds="1")) == 0
        rc = cli.main(run_ga_args(tmp_path, seeds="1"))
        assert rc == 2
        assert "refusing to overwrite" in capsys.readouterr().err

    def test_budget_must_cover_one_step(self, tmp_path, capsys):
        rc = cli.main(run_ga_args(tmp_path, budget="10"))
        assert rc == 2
        assert "budget" in capsys.readouterr().err

    def test_repeated_seed_refused_before_any_run(self, tmp_path, capsys):
        rc = cli.main(run_ga_args(tmp_path, extra=["--seed-list", "1,1"]))
        assert rc == 2
        assert "--seed-list repeats 1" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_seed_list_overrides_count(self, tmp_path, capsys):
        rc = cli.main(run_ga_args(tmp_path, extra=["--seed-list", "7"]))
        assert rc == 0
        assert (tmp_path / "ga-ehr-4-8-2-2-2-i0-s7.csv").exists()

    def test_env_var_supplies_out_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path))
        rc = cli.main(["run-ga", "--name", INSTANCE, "--budget", "100",
                       "--particles", "50"])
        assert rc == 0
        assert (tmp_path / "ga-ehr-4-8-2-2-2-i0-s0.csv").exists()

    def test_out_dir_naming_a_file_exit_2(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("not a directory\n")
        rc = cli.main(run_ga_args(target, seeds="1"))
        assert rc == 2
        err = capsys.readouterr().err
        assert f"output path is not a directory: {target}" in err
        assert "refusing to overwrite" not in err
        assert target.read_text() == "not a directory\n"

    def test_out_dir_under_a_file_exit_2_before_running(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "file.txt"
        target.write_text("not a directory\n")
        monkeypatch.setattr(cli, "run_ga", None)  # any run would fail here
        rc = cli.main(run_ga_args(target / "sub", seeds="1"))
        assert rc == 2
        err = capsys.readouterr().err
        assert f"output path is not a directory: {target / 'sub'} ({target} is a file)" in err
        assert target.read_text() == "not a directory\n"

    def test_instance_file_input(self, instance_file, tmp_path, capsys):
        rc = cli.main(["run-ga", "--instance", str(instance_file),
                       "--budget", "100", "--particles", "50",
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        record = read_run_record(tmp_path / "ga-ehr-4-8-2-2-2-i0-s0.csv")
        assert record.instance_name == INSTANCE


class TestRunLlome:
    def test_small_run_writes_rounds(self, tmp_path, capsys):
        rc = cli.main([
            "run-llome", "--name", "Ehr(4,16)-2-2-2", "--instance-seed", "1",
            "--rounds", "3", "--evals-per-round", "300",
            "--presolver-rounds", "4", "--presolver-particles", "60",
            "--seeds-per-round", "30", "--refine-iters", "4",
            "--samples-per-iter", "4", "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        base = tmp_path / "llome-ehr-4-16-2-2-2-i1-s0"
        record = read_run_record(base.with_suffix(".csv"))
        assert record.solver == "llome-baseline"
        # presolver evaluations are round 0, loop rounds 1..3
        assert set(record.rounds.tolist()) == {0, 1, 2, 3}
        presolver_evals = int((record.rounds == 0).sum())
        assert presolver_evals == 1 + 3 * 60
        for r in (1, 2, 3):
            assert (record.rounds == r).sum() <= 300
        stats = json.loads(base.with_suffix(".rounds.json").read_text())
        assert stats["format"] == "round-stats"
        assert stats["presolver_evals"] == presolver_evals
        assert [s["round_index"] for s in stats["rounds"]] == [1, 2, 3]
        assert [s["oracle_calls"] for s in stats["rounds"]] == [
            int((record.rounds == r).sum()) for r in (1, 2, 3)
        ]

    def test_collapse_maps_to_exit_3(self, tmp_path, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise GeneratorCollapseError("round 1: filtering removed every candidate")

        monkeypatch.setattr(cli, "run_llome", explode)
        rc = cli.main([
            "run-llome", "--name", "Ehr(4,16)-2-2-2",
            "--presolver-rounds", "2", "--presolver-particles", "30",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 3
        assert "solver abort" in capsys.readouterr().err

    def test_abort_on_second_seed_keeps_first_seed_files(self, tmp_path, capsys, monkeypatch):
        args = ["run-llome", "--name", "Ehr(4,16)-2-2-2", "--instance-seed", "1",
                "--rounds", "2", "--evals-per-round", "200", "--presolver-rounds", "2",
                "--presolver-particles", "30", "--seeds-per-round", "20",
                "--refine-iters", "2", "--samples-per-iter", "4"]
        assert cli.main([*args, "--seed-list", "0", "--out-dir", str(tmp_path / "alone")]) == 0
        real_run_llome = cli.run_llome
        calls = []

        def second_collapses(*a, **kw):
            calls.append(1)
            if len(calls) == 2:
                raise GeneratorCollapseError("round 1: filtering removed every candidate")
            return real_run_llome(*a, **kw)

        monkeypatch.setattr(cli, "run_llome", second_collapses)
        rc = cli.main([*args, "--seeds", "2", "--out-dir", str(tmp_path / "both")])
        assert rc == 3
        assert "solver abort" in capsys.readouterr().err
        stem = "llome-ehr-4-16-2-2-2-i1-s0"
        suffixes = (".csv", ".json", ".curve.csv", ".rounds.json")
        assert sorted(p.name for p in (tmp_path / "both").iterdir()) == sorted(
            stem + suffix for suffix in suffixes)
        for suffix in suffixes:
            alone, both = ((tmp_path / d / (stem + suffix)).read_text().splitlines()
                           for d in ("alone", "both"))
            # the same files as a run of seed 0 alone, apart from the wall time
            assert [l for l in alone if "duration_seconds" not in l] == \
                [l for l in both if "duration_seconds" not in l]

    @pytest.mark.parametrize("temperatures", ["inf", "1.0,-0.5", "nan"])
    def test_temperatures_a_proposer_refuses_exit_2_before_any_oracle_call(
            self, tmp_path, capsys, monkeypatch, temperatures):
        monkeypatch.setattr(cli, "run_presolver", _solver_not_called)
        rc = cli.main(["run-llome", "--name", "Ehr(4,16)-2-2-2",
                       "--temperatures", temperatures, "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "base_temperatures must be finite and >= 0" in capsys.readouterr().err
        assert not tmp_path.exists() or not any(tmp_path.iterdir())

    def test_bad_temperatures_exit_2(self, tmp_path, capsys):
        rc = cli.main(["run-llome", "--name", "Ehr(4,16)-2-2-2",
                       "--temperatures", "hot,cold",
                       "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "--temperatures" in capsys.readouterr().err


def sweep_records_and_medians(out_dir, axis, value, marks):
    """The run records of one sweep cell, by seed, and their median regret
    at each mark, recomputed from the records' values."""
    runs = [path for path in sorted(out_dir.glob(f"sweep-{axis}{value}-*-s*.csv"))
            if not path.name.endswith(".curve.csv")]
    records = [read_run_record(path) for path in runs]
    regrets = [oracles.regret_at_marks(record.values, marks) for record in records]
    return records, np.median(regrets, axis=0)


class TestSweep:
    def test_axis_tables_and_hypervolume(self, tmp_path, capsys):
        rc = cli.main([
            "sweep", "--axis", "q", "--values", "1,2",
            "--name", "Ehr(4,8)-2-2-1", "--budget", "300",
            "--seeds", "3", "--particles", "50",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hypervolume" in out
        table = (tmp_path / "sweep-q-table.csv").read_text().splitlines()
        assert table[0] == "# sweep-table v1"
        header = [l for l in table if not l.startswith("#")][0]
        assert header == "evals_used,q=1,q=2"
        _, points = read_table(tmp_path / "sweep-q-pareto.csv", "pareto-report", 1, np.dtype(
            [("label", object), ("budget", np.float64), ("min_regret", np.float64)]),
            "pareto report")
        assert set(points["label"]) == {"q=1", "q=2"}
        printed = dict(line.strip().split(": ") for line in out.splitlines()
                       if line.startswith("  q="))
        # each printed hypervolume is the mean of the stored budget x regret
        # products, and the stored points agree with a recomputation from the
        # persisted run records
        for value in (1, 2):
            label = f"q={value}"
            mine = points[points["label"] == label]
            assert printed[label] == f"{np.mean(mine['budget'] * mine['min_regret']):.6g}"
            marks = sorted({max(1, 300 * i // 10) for i in range(1, 11)})
            records, medians = sweep_records_and_medians(tmp_path, "q", value, marks)
            assert len(records) == 3
            assert mine["budget"].tolist() == marks
            assert mine["min_regret"].tolist() == medians.tolist()

    def test_runs_that_stop_at_the_optimum_take_their_last_regret(self, tmp_path, capsys):
        rc = cli.main(["sweep", "--axis", "q", "--values", "1,2", "--name", INSTANCE,
                       "--budget", "5000", "--particles", "50", "--seeds", "3",
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        capsys.readouterr()
        marks = cli._checkpoints(5000)
        _, table = read_table(tmp_path / "sweep-q-table.csv", "sweep-table", 1, np.dtype(
            [("evals_used", np.int64), ("q=1", np.float64), ("q=2", np.float64)]),
            "sweep table")
        assert table["evals_used"].tolist() == marks
        for value in (1, 2):
            records, medians = sweep_records_and_medians(tmp_path, "q", value, marks)
            # seed 2 stops at f = 1 before the last three marks
            stopped = records[2]
            assert stopped.min_regret == 0.0
            assert stopped.num_evals < marks[-3]
            assert table[f"q={value}"].tolist() == medians.tolist()

    def test_invalid_cell_exits_2_before_running(self, tmp_path, capsys):
        rc = cli.main([
            "sweep", "--axis", "k", "--values", "2,8",
            "--name", INSTANCE, "--budget", "300", "--particles", "50",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 2
        assert "must be <= length" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_repeated_value_refused_before_any_run(self, tmp_path, capsys):
        rc = cli.main(["sweep", "--axis", "q", "--values", "2,2",
                       "--name", INSTANCE, "--budget", "300", "--particles", "50",
                       "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "--values repeats 2" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_rejects_empty_values(self, tmp_path, capsys):
        rc = cli.main(["sweep", "--axis", "q", "--values", ",",
                       "--name", INSTANCE, "--budget", "300",
                       "--out-dir", str(tmp_path)])
        assert rc == 2


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    assert cli.main(run_ga_args(out, budget="300", seeds="1")) == 0
    return out


class TestReport:
    def test_round_table_matches_recomputation(self, run_dir, tmp_path, capsys):
        out = tmp_path / "summary.csv"
        rc = cli.main(["report", "--records-dir", str(run_dir), "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "ga-ehr-4-8-2-2-2-i0-s0" in printed
        record = read_run_record(run_dir / "ga-ehr-4-8-2-2-2-i0-s0.csv")
        summaries = round_summaries(record)
        rows = [l for l in out.read_text().splitlines() if not l.startswith(("#", "run_id"))]
        assert len(rows) == len(summaries)
        for row, summary in zip(rows, summaries):
            fields = row.split(",")
            assert int(fields[1]) == summary.round_index
            assert int(fields[2]) == summary.num_evals
            assert float(fields[3]) == summary.unique_pct
            assert float(fields[4]) == summary.feasible_pct
            assert float(fields[5]) == summary.mean_margin_reward
            assert float(fields[6]) == summary.max_margin_reward
            assert float(fields[7]) == summary.min_regret
        mirror = json.loads(out.with_suffix(".json").read_text())
        assert mirror["format"] == "round-report"
        assert len(mirror["rows"]) == len(summaries)

    def test_directory_scan_skips_non_record_csv(self, run_dir, capsys):
        rc = cli.main(["report", "--records-dir", str(run_dir)])
        assert rc == 0
        # the directory also holds .curve.csv files; none may be parsed as records
        assert "regret-curve" not in capsys.readouterr().err

    def test_directory_scan_skips_a_directory_named_like_a_csv(self, run_dir, tmp_path,
                                                               capsys):
        name = "ga-ehr-4-8-2-2-2-i0-s0.csv"
        (tmp_path / name).write_bytes((run_dir / name).read_bytes())
        (tmp_path / "x.csv").mkdir()
        rc = cli.main(["report", "--records-dir", str(tmp_path)])
        assert rc == 0
        assert "ga-ehr-4-8-2-2-2-i0-s0" in capsys.readouterr().out

    @pytest.mark.parametrize("run_id", ["a,b", "a#b"], ids=["comma", "hash"])
    def test_out_refuses_a_run_id_a_table_cannot_hold(self, tmp_path, capsys, run_id):
        # a "," would split the run's round-report rows, and a "#" cut them short
        record = make_run_record(run_id, INSTANCE, 0, "ga", {}, values=[0.5, 1.0],
                                 rounds=[0, 1], duration_seconds=0.0, unique=[True, True])
        path = write_run_record(record, tmp_path / "records")
        out = tmp_path / "report.csv"
        rc = cli.main(["report", "--records", str(path), "--out", str(out)])
        assert rc == 2
        assert "table cell must not contain" in capsys.readouterr().err
        assert not out.exists() and not out.with_suffix(".json").exists()

    def test_no_records_exit_2(self, tmp_path, capsys):
        rc = cli.main(["report", "--records-dir", str(tmp_path)])
        assert rc == 2

    def test_missing_records_dir_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        rc = cli.main(["report", "--records-dir", str(missing)])
        assert rc == 2
        assert f"records directory not found: {missing}" in capsys.readouterr().err

    def test_out_naming_a_directory_exit_2_before_printing(self, run_dir, tmp_path, capsys):
        rc = cli.main(["report", "--records-dir", str(run_dir), "--out", str(tmp_path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert f"output file is a directory: {tmp_path}" in captured.err
        assert captured.out == ""

    def test_out_mirror_naming_a_directory_exit_2_before_writing(self, run_dir, tmp_path,
                                                                 capsys):
        (tmp_path / "r.json").mkdir()
        rc = cli.main(["report", "--records-dir", str(run_dir),
                       "--out", str(tmp_path / "r.csv")])
        assert rc == 2
        assert f"output file is a directory: {tmp_path / 'r.json'}" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_out_under_a_file_exit_2_before_printing(self, run_dir, tmp_path, capsys):
        target = tmp_path / "file.txt"
        target.write_text("not a directory\n")
        rc = cli.main(["report", "--records-dir", str(run_dir),
                       "--out", str(target / "r.csv")])
        assert rc == 2
        captured = capsys.readouterr()
        assert f"output file's parent is not a directory: {target / 'r.csv'}" in captured.err
        assert captured.out == ""

    def test_missing_record_file_exit_2(self, capsys):
        rc = cli.main(["report", "--records", "/nonexistent/run.csv"])
        assert rc == 2

    def test_directory_as_record_file_exit_2(self, tmp_path, capsys):
        rc = cli.main(["report", "--records", str(tmp_path)])
        assert rc == 2
        assert "record file is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--records", "--records-dir"])
    def test_non_utf8_record_exit_2(self, tmp_path, capsys, flag):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"# run-record v1\n\xff\xfe\n")
        rc = cli.main(["report", flag, str(bad if flag == "--records" else tmp_path)])
        assert rc == 2
        assert "is not UTF-8 text" in capsys.readouterr().err

    def test_non_utf8_record_body_exit_2(self, run_dir, tmp_path, capsys):
        # valid header and rows, then (past the first read's buffer) a data
        # row that is not UTF-8
        good = (run_dir / "ga-ehr-4-8-2-2-2-i0-s0.csv").read_bytes()
        bad = tmp_path / "bad.csv"
        bad.write_bytes(good + b"\n" * 65536 + b"9\xff,0,0.5,1,1\n")
        rc = cli.main(["report", "--records", str(bad)])
        assert rc == 2
        assert "run record is not UTF-8 text" in capsys.readouterr().err

    def test_closed_stdout_exits_quietly(self, tmp_path):
        # one report line per round: far more than a pipe buffer holds
        n = 10_000
        record = make_run_record("many-rounds", INSTANCE, 0, "ga", {},
                                 values=np.linspace(0.0, 1.0, n), rounds=np.arange(n),
                                 duration_seconds=0.0, unique=np.ones(n, dtype=bool))
        path = write_run_record(record, tmp_path)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-c", "import sys; from ehrlich.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "report", "--records", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()  # as ``| head -1`` does after its line
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0, err.decode()
        assert first.startswith(b"run many-rounds:")
        assert err == b""

    @pytest.mark.parametrize("key,value", [("duration_seconds", "fast"),
                                           ("instance_seed", "1.5")])
    def test_malformed_metadata_number_exit_2(self, run_dir, tmp_path, capsys, key, value):
        lines = (run_dir / "ga-ehr-4-8-2-2-2-i0-s0.csv").read_text().splitlines(keepends=True)
        edited = [f"# {key}={value}\n" if line.startswith(f"# {key}=") else line
                  for line in lines]
        assert edited != lines
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(edited))
        rc = cli.main(["report", "--records", str(bad)])
        assert rc == 2
        assert f"'{key}' is not a valid" in capsys.readouterr().err


class TestParserSurface:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_unknown_axis_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["sweep", "--axis", "z", "--values", "1",
                      "--name", INSTANCE, "--budget", "100"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["run-ga", "sweep"])
    def test_ga_flag_defaults_are_the_config_defaults(self, command):
        args = cli.build_parser().parse_args(
            [command, "--name", INSTANCE, "--budget", "100", "--axis", "q", "--values", "1"]
            if command == "sweep" else [command, "--name", INSTANCE, "--budget", "100"])
        assert cli._ga_config(args, GAConfig.seed) == GAConfig()

    def test_loop_flag_defaults_are_the_config_defaults(self):
        args = cli.build_parser().parse_args(["run-llome", "--name", INSTANCE])
        assert cli._loop_config(args, LoopConfig.seed) == LoopConfig()

    def test_instance_round_trips_through_gen(self, instance_file, inst_4_8):
        function = read_instance(instance_file)
        assert function.params.name == INSTANCE
