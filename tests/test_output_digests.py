"""Byte identity of the command-line outputs.

Each test runs a small command and compares the sha256 of each file it
writes with a pinned digest. A record's ``duration_seconds`` line is the
only one left out, because it is a wall time. The digests were computed
with the string writers that formatted each distinct value in its own
Python call, so a writer change that moves any byte of a record, mirror,
curve, ``rounds.json``, sweep table, Pareto report, round report or
scored sequence file fails here; ``sweep``'s stdout is kept in a file and
pinned the same way. The JSON mirrors' digests were pinned again when the
mirror's evals went to one line per column.
"""

import contextlib
import hashlib
import io
import re

import numpy as np
import pytest

import ehrlich.cli as cli
from ehrlich import EhrlichParams, generate, read_run_record, sample_dmp, serialize_instance


def digest(path):
    lines = path.read_bytes().splitlines(keepends=True)
    kept = b"".join(line for line in lines if b"duration_seconds" not in line)
    return hashlib.sha256(kept).hexdigest()


def digests(directory, stem, suffixes):
    return {suffix: digest(directory / f"{stem}{suffix}") for suffix in suffixes}


# a record's or a mirror's duration line, which holds nothing else
DURATION_LINE = re.compile(rb'(# duration_seconds=|  "duration_seconds": )[0-9.e+-]+,?')


def run_digests(directory, stem, suffixes):
    """``digests`` of a run's files, after checking that the record and the
    mirror each have one line with ``duration_seconds`` and nothing else on
    it: a file with all its text on that line would digest as empty and pin
    nothing."""
    for suffix in (".csv", ".json"):
        lines = (directory / f"{stem}{suffix}").read_bytes().splitlines()
        (line,) = [line for line in lines if b"duration_seconds" in line]
        assert DURATION_LINE.fullmatch(line)
    return digests(directory, stem, suffixes)


RUN_GA = {
    ".csv": "e4cd005316500981acea274420638c25fbba0fd0ff10dfd54ba0a11cdc926d9c",
    ".json": "74ee83241bfa0a2326f955ba89255cbede9f5f9f89d63315d54539fe368ce8cd",
    ".curve.csv": "b7b7eeaf43862629ddb12b92cba0e54dfd4e740b01ebb2a534df7d86ccd47d95",
}

RUN_LLOME = {
    ".csv": "a29aed2a3ce72c4fa60f0194bb4988dcb1d3e7715d3395a48053afdb85eada92",
    ".json": "f2e68efb7f56df3e9515fa08a843d16f2a2cd6f2271bb8388e237f5cf931b707",
    ".curve.csv": "d254f3c02d2867267b5e1d1ecd77c5bc0b2fee3738aade34e0a9077be1be1101",
    ".rounds.json": "0ce9b6bf399ee05b7e6a3b7237d81487ae186f9518de225db175bc982e9aba89",
}

SWEEP_CELL = {
    ".csv": "cb77b3f0cb9e0eb490beba6085d203b4761937172407c611ba8c5591d7fd9159",
    ".json": "7ba1be9b79143680928f4d087e0a9ad6d54c11319a5e0ebf117be860c4d02456",
    ".curve.csv": "ebd58b566d1d6f70fa60f36ff120ae36c295404ce87c153d039d194e77e58e38",
}

SWEEP_TABLES = {
    "sweep-q-table.csv": "c8949e05e0a38e47dcd4d96b5f372276be91c027da87b4f9ab0117b24027d7db",
    "sweep-q-pareto.csv": "784a045c1b1db4f1d8d86390b5f646f69317db482435bb5eb930a92c346c4dc2",
}

# ``sweep``'s stdout: the medians table and one hypervolume line per value
SWEEP_STDOUT = "673c9bd1a9aa845492701aa187ba1d2cc6d2e798ba1a13157f0dfad5da5e4bd1"

REPORT = {
    ".csv": "6639bda4b821e2d927a534df02eb73e1b50496c74537bf1a8d324b3fd79725a7",
    ".json": "c82e92df58fd5fe58f434788cecafc2155bb33aa2e25d049088caf040efefe02",
}

# v = 300 > 256: tokens are uint16, not uint8, on every solver path
RUN_GA_V300 = {
    ".csv": "51cd0b4598701e7e55a49de4a4b2fdfc5846eeb2beea444d9b8f46db370c956d",
    ".json": "5596c647794d464fbf2dbb373564dadaa87aa19694d836bdca4f41eb7782c492",
    ".curve.csv": "3bb7792a863f2b80b1bbc0965873bc5e4b15b062291dd1abf40b1dd67d8f14df",
}

RUN_LLOME_V300 = {
    ".csv": "73851d8ea1c03963810704724bfd769f501e2b428e21baf01916f9af74aa19e1",
    ".json": "2b60842f96fd55d696dbfcd5f56410cbdbed2921de82323366ef82340a063668",
    ".curve.csv": "a2be3a47dcf5c86573726a55ea8ddd7c742bd89b50b90618024caee711bfcacd",
    ".rounds.json": "28559c35dd98a478518536769ecfea81c4e9e26c7c5c51946f65a27ae2164ce2",
}

EVAL = "5cbcd896a4d639524d7a191619a6015469aa5e3ac30f9b81d3173ea8f7dcfcf4"

# ``gen`` documents: the short parameter keys, their order and their values
GEN = {
    "Ehr(4,16)-2-2-2": (
        ["--name", "Ehr(4,16)-2-2-2"], "77301b3cbbe628737fa899cb645dae0e4ae1d1f578fc28c25c128baa38b4fecd"),
    "Ehr(4,16)-2-2-2 overrides": (
        ["--name", "Ehr(4,16)-2-2-2", "--feasible-fraction", "0.5", "--epistasis-factor", "1.5",
         "--softmax-temperature", "0.7"],
        "e613aa0ceb118bdba2a929b6608ca26564edea8da231208d6efed0dd1d3d6df7"),
    "Ehr(300,16)-2-2-2": (
        ["--name", "Ehr(300,16)-2-2-2"], "c1dd8d59f5b16019e2c79609c197facba97f8c2cd8862fc1c06220a006b69588"),
}

# config_hash under the default solver flags, which the digests above all override
DEFAULT_CONFIG_HASH = {"run-ga": "26a973e2e73e", "run-llome": "ffd4fae6f6ee"}


def test_run_ga_outputs(tmp_path, capsys):
    # 20,001 rows: more than one 2**14-row block of the table writer
    rc = cli.main(["run-ga", "--name", "Ehr(32,32)-4-4-4", "--instance-seed", "7",
                   "--budget", "20001", "--no-early-stop", "--seed-list", "3",
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    assert run_digests(tmp_path, "ga-ehr-32-32-4-4-4-i7-s3", RUN_GA) == RUN_GA


def test_run_llome_outputs(tmp_path, capsys):
    rc = cli.main(["run-llome", "--name", "Ehr(4,16)-2-2-2", "--instance-seed", "1",
                   "--rounds", "3", "--evals-per-round", "300", "--presolver-rounds", "3",
                   "--seed-list", "5", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert run_digests(tmp_path, "llome-ehr-4-16-2-2-2-i1-s5", RUN_LLOME) == RUN_LLOME


def test_run_ga_outputs_wide_vocabulary(tmp_path, capsys):
    rc = cli.main(["run-ga", "--name", "Ehr(300,16)-2-2-2", "--instance-seed", "2",
                   "--budget", "5000", "--particles", "200", "--mutation-prob", "0.05",
                   "--no-early-stop", "--seed-list", "3", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert run_digests(tmp_path, "ga-ehr-300-16-2-2-2-i2-s3", RUN_GA_V300) == RUN_GA_V300


def test_run_llome_outputs_wide_vocabulary(tmp_path, capsys):
    rc = cli.main(["run-llome", "--name", "Ehr(300,16)-2-2-2", "--instance-seed", "2",
                   "--rounds", "3", "--evals-per-round", "300", "--presolver-rounds", "3",
                   "--seed-list", "5", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert run_digests(tmp_path, "llome-ehr-300-16-2-2-2-i2-s5", RUN_LLOME_V300) == RUN_LLOME_V300


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(["sweep", "--axis", "q", "--values", "1,2", "--name", "Ehr(4,16)-2-2-2",
                       "--instance-seed", "1", "--budget", "2000", "--particles", "50",
                       "--seeds", "2", "--out-dir", str(out)])
    assert rc == 0
    # kept beside the tables; ``report`` reads only the run-record CSVs
    (out / "stdout.txt").write_text(stdout.getvalue())
    return out


def test_sweep_outputs(sweep_dir):
    assert run_digests(sweep_dir, "sweep-q2-ehr-4-16-2-2-2-i1-s1", SWEEP_CELL) == SWEEP_CELL
    assert {name: digest(sweep_dir / name) for name in SWEEP_TABLES} == SWEEP_TABLES


def test_sweep_stdout(sweep_dir):
    assert "hypervolume" in (sweep_dir / "stdout.txt").read_text()
    assert digest(sweep_dir / "stdout.txt") == SWEEP_STDOUT


def test_report_outputs(sweep_dir, tmp_path, capsys):
    # the four sweep records, 39 GA steps each
    out = tmp_path / "report.csv"
    rc = cli.main(["report", "--records-dir", str(sweep_dir), "--out", str(out)])
    assert rc == 0
    assert digests(tmp_path, "report", REPORT) == REPORT


def test_eval_output(tmp_path, capsys):
    # random rows (almost all infeasible), Markov-chain rows (feasible, with
    # intermediate values) and the optimum (1.0)
    function = generate(EhrlichParams.from_name("Ehr(32,32)-4-4-4", seed=7))
    rng = np.random.default_rng(11)
    tokens = np.concatenate([
        rng.integers(0, 32, size=(3000, 32)),
        np.stack([sample_dmp(function.transition, 32, seed) for seed in range(200)]),
        function.optimum[None, :],
    ])
    instance = tmp_path / "instance.txt"
    instance.write_text(serialize_instance(function))
    sequences = tmp_path / "sequences.txt"
    sequences.write_text("\n".join(",".join(map(str, row)) for row in tokens.tolist()) + "\n")
    out = tmp_path / "scored.txt"
    rc = cli.main(["eval", "--instance", str(instance), "--sequences", str(sequences),
                   "--out", str(out)])
    assert rc == 0
    assert digest(out) == EVAL


@pytest.mark.parametrize("case", GEN)
def test_gen_output(tmp_path, capsys, case):
    flags, expected = GEN[case]
    out = tmp_path / "instance.json"
    rc = cli.main(["gen", *flags, "--instance-seed", "1", "--out", str(out)])
    assert rc == 0
    assert digest(out) == expected


@pytest.mark.parametrize("command, flags", [
    ("run-ga", ["--budget", "1001"]),
    ("run-llome", []),
])
def test_default_flags_config_hash(tmp_path, capsys, command, flags):
    rc = cli.main([command, "--name", "Ehr(4,16)-2-2-2", "--instance-seed", "1", *flags,
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    (path,) = tmp_path.glob("*-s0.csv")
    assert read_run_record(path).config_hash == DEFAULT_CONFIG_HASH[command]
