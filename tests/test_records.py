"""Run records, regret curves, Pareto reports, and round summaries."""

import dataclasses
import gc
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ehrlich.cli as cli
import oracles
from ehrlich import (
    EhrlichParams,
    EvalLedger,
    GAConfig,
    InvalidParamsError,
    ParetoPoint,
    ParetoReport,
    ParseError,
    RegretCurve,
    RoundSummary,
    RunRecord,
    config_hash,
    generate,
    make_run_record,
    read_pareto_report,
    read_regret_curve,
    read_run_record,
    read_run_record_json,
    round_summaries,
    run_ga,
    unique_flags,
    write_run_record,
)
from ehrlich import instance_io, records
from ehrlich.instance_io import write_text
from ehrlich.losses import margin_reward


def test_record_tables_name_each_field_once_with_its_type():
    fields = {f.name: f.type for f in dataclasses.fields(RunRecord)}
    meta = [(attr, kind.__name__) for _, attr, kind in records._RUN_META]
    columns = [attr for _, attr, _ in records._RUN_COLUMNS]
    assert sorted([attr for attr, _ in meta] + columns) == sorted(fields)
    assert all(fields[attr] == kind for attr, kind in meta)
    assert all(fields[attr] == "np.ndarray" for attr in columns)


def small_record(values, rounds=None, tokens=None, duration=0.5):
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    if tokens is None:
        # distinct rows by default so unique flags are all True
        tokens = np.arange(n * 4).reshape(n, 4) % 7
    if rounds is None:
        rounds = np.zeros(n, dtype=np.int64)
    return make_run_record(
        run_id="test-run",
        instance_name="Ehr(4,8)-2-2-2",
        instance_seed=3,
        solver="ga",
        config={"budget": 100},
        tokens=tokens,
        values=values,
        rounds=rounds,
        duration_seconds=duration,
    )


# Reference writers and summariser: the straightforward per-row forms the
# vectorized code in ``records`` must match exactly.

def oracle_csv(record):
    lines = [
        "# run-record v1",
        f"# run_id={record.run_id}",
        f"# instance={record.instance_name}",
        f"# instance_seed={record.instance_seed}",
        f"# solver={record.solver}",
        f"# config_hash={record.config_hash}",
        f"# duration_seconds={record.duration_seconds!r}",
        "eval_index,round,value,feasible,unique",
    ]
    for i in range(record.num_evals):
        lines.append(
            f"{int(record.eval_index[i])},{int(record.rounds[i])},{float(record.values[i])!r},"
            f"{int(record.feasible[i])},{int(record.unique[i])}"
        )
    return "\n".join(lines) + "\n"


def _mirror_fields(record):
    meta = {
        "format": "run-record",
        "version": 1,
        "run_id": record.run_id,
        "instance": record.instance_name,
        "instance_seed": record.instance_seed,
        "solver": record.solver,
        "config_hash": record.config_hash,
        "duration_seconds": record.duration_seconds,
    }
    evals = {
        "eval_index": record.eval_index.tolist(),
        "round": record.rounds.tolist(),
        "value": record.values.tolist(),
        "feasible": record.feasible.astype(int).tolist(),
        "unique": record.unique.astype(int).tolist(),
    }
    return meta, evals


def oracle_json(record):
    """The mirror as written: the metadata as ``json.dumps(meta, indent=2)``,
    then one line per evals column holding its compact ``json.dumps`` list."""
    meta, evals = _mirror_fields(record)
    head = json.dumps(meta, indent=2).removesuffix("\n}")
    columns = [f'    {json.dumps(name)}: {json.dumps(column, separators=(",", ":"))}'
               for name, column in evals.items()]
    return head + ',\n  "evals": {\n' + ",\n".join(columns) + "\n  }\n}\n"


def oracle_json_indented(record):
    """The mirror in its first layout, every value on its own indented line;
    files in it are still read."""
    meta, evals = _mirror_fields(record)
    return json.dumps({**meta, "evals": evals}, indent=2) + "\n"


def oracle_round_summaries(record):
    """One boolean mask over all rows per round."""
    summaries = []
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


def mixed_record():
    """-inf, 0.0, -0.0, 2/3 and repeats over gapped rounds, with duplicate rows."""
    values = [-np.inf, 0.0, -0.0, 2.0 / 3.0, 2.0 / 3.0, 0.5, -np.inf, -0.0, 0.0, 1.0,
              0.1 + 0.2, 1e-300]
    rounds = [0, 0, 0, 1, 1, 1, 3, 3, 3, 7, 7, 7]
    tokens = np.array([[0, 1], [2, 3], [0, 1], [4, 5], [2, 3], [6, 7],
                       [8, 9], [0, 1], [10, 11], [12, 13], [12, 13], [1, 0]])
    return small_record(values, rounds=np.array(rounds), tokens=tokens, duration=1 / 3)


class TestConfigHash:
    def test_key_order_does_not_matter(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_different_configs_differ(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_twelve_hex_digits(self):
        digest = config_hash({"budget": 1000, "seed": 0})
        assert len(digest) == 12
        int(digest, 16)

    def test_handles_tuples_and_nested_values(self):
        digest = config_hash({"temps": (0.6, 0.8), "mode": "pairs"})
        assert digest == config_hash({"mode": "pairs", "temps": (0.6, 0.8)})


class TestUniqueFlags:
    def test_first_occurrence_wins(self):
        tokens = np.array([[0, 1], [2, 3], [0, 1], [2, 3], [4, 5]])
        assert unique_flags(tokens).tolist() == [True, True, False, False, True]

    def test_all_distinct(self):
        tokens = np.arange(12).reshape(4, 3)
        assert unique_flags(tokens).all()

    def test_rejects_flat_input(self):
        with pytest.raises(InvalidParamsError, match="2-D"):
            unique_flags(np.array([1, 2, 3]))


class TestEvalLedger:
    def test_proxies_and_capture(self, inst_4_8):
        ledger = EvalLedger(inst_4_8)
        assert ledger.params is inst_4_8.params
        assert np.array_equal(ledger.transition.mask, inst_4_8.transition.mask)
        x0 = ledger.initial_solution()
        values = ledger.evaluate_batch(x0[None, :])
        more = np.tile(x0, (3, 1))
        ledger.evaluate_batch(more)
        assert ledger.num_evals == 4
        assert ledger.num_calls == 2
        assert ledger.tokens().shape == (4, inst_4_8.params.length)
        assert np.array_equal(ledger.values()[:1], values)
        assert ledger.call_rounds().tolist() == [0, 1, 1, 1]

    def test_recorded_values_match_reevaluation(self, inst_4_8):
        ledger = EvalLedger(inst_4_8)
        run_ga(ledger, GAConfig(num_particles=30, seed=1), budget=150)
        again = inst_4_8.evaluate_batch(ledger.tokens())
        assert np.array_equal(ledger.values(), again)

    def test_empty_ledger(self, inst_4_8):
        ledger = EvalLedger(inst_4_8)
        assert ledger.num_evals == 0
        assert ledger.tokens().shape == (0, inst_4_8.params.length)
        assert ledger.values().shape == (0,)
        assert ledger.call_rounds().shape == (0,)


    def test_streamed_unique_matches_reference(self, inst_4_8, rng):
        # rows drawn from a small pool repeat within and across batches
        pool = rng.integers(0, inst_4_8.params.vocab_size, size=(12, inst_4_8.params.length))
        ledger = EvalLedger(inst_4_8)
        for size in rng.integers(1, 30, size=20):
            ledger.evaluate_batch(pool[rng.integers(0, len(pool), size=size)])
        flags = ledger.unique()
        assert flags.dtype == bool
        assert np.array_equal(flags, unique_flags(ledger.tokens()))
        assert flags.sum() == len(np.unique(ledger.tokens(), axis=0)) < ledger.num_evals

    @pytest.mark.parametrize("vocab", [256, 1024], ids=["uint8-edge", "uint16"])
    def test_tokens_are_the_scored_int64_rows(self, vocab, rng):
        function = generate(EhrlichParams.from_name(f"Ehr({vocab},8)-2-2-2", seed=0))
        batches = [rng.integers(0, vocab, size=(n, 8)) for n in (1, 5, 3)]
        batches[1][0] = vocab - 1
        batches[2][1, 3] = vocab - 1
        ledger = EvalLedger(function)
        for batch in batches:
            ledger.evaluate_batch(batch)
        tokens = ledger.tokens()
        assert tokens.dtype == np.int64
        assert np.array_equal(tokens, np.concatenate(batches))
        assert np.array_equal(ledger.unique(), unique_flags(tokens))

    @pytest.mark.parametrize("bad", [-1, 4], ids=["negative", "vocab-size"])
    def test_rejected_batch_leaves_no_trace(self, inst_4_8, bad):
        rows = np.array([[0, 1, 2, 3, 0, 1, 2, 3], [3, 3, 3, 3, 3, 3, 3, 3]])
        ledger = EvalLedger(inst_4_8)
        with pytest.raises(InvalidParamsError):
            ledger.evaluate_batch(np.vstack([rows, np.full((1, 8), bad)]))
        ledger.evaluate_batch(rows)
        assert ledger.num_calls == 1
        assert ledger.unique().tolist() == [True, True]
        assert np.array_equal(ledger.tokens(), rows)

    def test_empty_ledger_has_no_flags(self, inst_4_8):
        unique = EvalLedger(inst_4_8).unique()
        assert unique.shape == (0,) and unique.dtype == bool


class TestMakeRunRecord:
    def test_unique_flags_give_the_same_record(self, inst_4_8):
        ledger = EvalLedger(inst_4_8)
        run_ga(ledger, GAConfig(num_particles=20, seed=2), budget=200)
        common = dict(run_id="r", instance_name="n", instance_seed=0, solver="ga",
                      config={}, values=ledger.values(), rounds=ledger.call_rounds(),
                      duration_seconds=0.0)
        from_tokens = make_run_record(**common, tokens=ledger.tokens())
        from_flags = make_run_record(**common, unique=ledger.unique())
        assert not from_tokens.unique.all()
        assert from_flags.to_csv() == from_tokens.to_csv()

    @pytest.mark.parametrize("given", ["neither", "both"])
    def test_takes_exactly_one_of_tokens_and_unique(self, given):
        flags = {} if given == "neither" else dict(
            tokens=np.zeros((1, 4), dtype=np.int64), unique=np.ones(1, dtype=bool))
        with pytest.raises(InvalidParamsError, match="exactly one"):
            make_run_record("r", "n", 0, "ga", {}, values=[0.5], rounds=[0],
                            duration_seconds=0.0, **flags)


class TestBoundedMemory:
    """tracemalloc bounds on the record path (figures in the comments are
    what the streaming ledger and block-built writers measured)."""

    def test_ledger_keeps_narrow_rows(self, inst_32_32):
        # 200,001 evaluations at L = 32 are 51 MB as int64 rows; the ledger
        # keeps them as uint8 plus one flag per row and the distinct rows'
        # keys (12.2 MB measured)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ledger = EvalLedger(inst_32_32)
            run_ga(ledger, GAConfig(seed=0), budget=200_001, stop_on_optimum=False)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert ledger.num_evals == 200_001
        assert retained <= 20 * 2**20

    def test_ledger_grows_with_distinct_rows_not_evaluations(self, inst_32_32, rng):
        # 200,000 evaluations of 1000 distinct L = 32 rows: per evaluation the
        # ledger keeps a value, a label and a flag (17 B), and per distinct
        # row its bytes in the uniqueness table: 3.6 MB measured. A ledger
        # that also kept each scored row as uint8 held 8.4 MB.
        batch = rng.integers(0, inst_32_32.params.vocab_size, size=(1000, 32))
        inst_32_32.evaluate_batch(batch)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ledger = EvalLedger(inst_32_32)
            for _ in range(200):
                ledger.evaluate_batch(batch)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        distinct = len(np.unique(batch, axis=0))
        assert ledger.num_evals == 200_000 and ledger.unique().sum() == distinct
        assert retained <= 20 * ledger.num_evals + 256 * distinct

    @staticmethod
    def big_record(rng):
        n = 300_000
        values = rng.choice([-np.inf, 0.0, 0.25, 0.5, 0.5625, 0.75, 1.0], n)
        return RunRecord(
            run_id="big", instance_name="Ehr(32,32)-4-4-4", instance_seed=7, solver="ga",
            config_hash="0" * 12, eval_index=np.arange(1, n + 1),
            rounds=np.arange(n) // 1000, values=values, feasible=~np.isneginf(values),
            unique=rng.random(n) < 0.2, duration_seconds=1.5,
        )

    @pytest.mark.parametrize("writer, bound", [("to_csv", 4.0), ("to_json", 2.5)])
    def test_writer_peak_is_a_small_multiple_of_its_text(self, writer, bound, rng):
        # the text itself plus the blocks it is joined from: about 2.1x
        # (CSV) and 2.0x (JSON) measured on this record
        record = self.big_record(rng)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            text = getattr(record, writer)()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= bound * len(text)

    def test_mirror_is_about_the_size_of_the_csv(self, rng):
        # 1.04x on this record; 2.87x when every value had its own indented line
        record = self.big_record(rng)
        assert len(record.to_json()) <= 1.1 * len(record.to_csv())


class TestRunRecordValidation:
    def test_build_derives_flags(self):
        record = small_record([0.5, -np.inf, 0.75])
        assert record.feasible.tolist() == [True, False, True]
        assert record.unique.all()
        assert record.eval_index.tolist() == [1, 2, 3]
        assert record.num_evals == 3
        assert record.best_value == 0.75
        assert record.min_regret == 0.25

    def test_rejects_nonincreasing_eval_index(self):
        record = small_record([0.5, 0.75])
        with pytest.raises(InvalidParamsError, match="strictly increasing"):
            RunRecord(
                run_id="x", instance_name="n", instance_seed=0, solver="ga",
                config_hash="0" * 12, eval_index=[2, 2],
                rounds=record.rounds, values=record.values,
                feasible=record.feasible, unique=record.unique,
                duration_seconds=0.0,
            )

    def test_rejects_feasibility_flag_mismatch(self):
        record = small_record([0.5, -np.inf])
        with pytest.raises(InvalidParamsError, match="-inf"):
            RunRecord(
                run_id="x", instance_name="n", instance_seed=0, solver="ga",
                config_hash="0" * 12, eval_index=record.eval_index,
                rounds=record.rounds, values=record.values,
                feasible=[True, True], unique=record.unique,
                duration_seconds=0.0,
            )

    def test_rejects_nan_and_positive_inf(self):
        with pytest.raises(InvalidParamsError, match="NaN"):
            small_record([0.5, np.nan])
        with pytest.raises(InvalidParamsError, match=r"\+inf"):
            small_record([0.5, np.inf])

    def test_rejects_negative_duration(self):
        with pytest.raises(InvalidParamsError, match="duration"):
            small_record([0.5], duration=-1.0)

    def test_rejects_decreasing_rounds(self):
        with pytest.raises(InvalidParamsError, match="nondecreasing"):
            small_record([0.5, 0.5], rounds=np.array([1, 0]))

    def test_eval_rate(self):
        assert small_record([0.5, 0.5, 0.5, 0.5], duration=2.0).eval_rate == 2.0
        assert small_record([0.5], duration=0.0).eval_rate == float("inf")

    def test_never_feasible_run(self):
        record = small_record([-np.inf, -np.inf])
        assert record.best_value == float("-inf")
        assert record.min_regret == float("inf")


def record_with(**fields):
    """A valid two-row record with the given metadata fields replaced."""
    metadata = dict(run_id="r", instance_name="Ehr(4,8)-2-2-2", solver="ga",
                    config_hash="0" * 12)
    metadata.update(fields)
    return RunRecord(**metadata, instance_seed=3, eval_index=[1, 2], rounds=[0, 0],
                     values=[-np.inf, 0.5], feasible=[False, True], unique=[True, True],
                     duration_seconds=0.0)


class TestWriteText:
    """``instance_io.write_text``: the text's UTF-8 bytes, written in slices."""

    @pytest.mark.parametrize("text", [
        "",
        "abcd",  # exactly one slice
        "abcdefghi",
        "\u00e9" * 7 + "x",
        record_with(run_id="run-\u00e9", instance_name="Ehr \u2264", solver="g\u00e0").to_csv(),
        record_with(run_id="run-\u00e9", instance_name="Ehr \u2264", solver="g\u00e0").to_json(),
    ], ids=["empty", "one-slice", "three-slices", "non-ascii", "record-csv", "record-json"])
    def test_bytes_are_the_utf8_encoding(self, text, tmp_path, monkeypatch):
        monkeypatch.setattr(instance_io, "_WRITE_SLICE", 4)
        path = tmp_path / "out.txt"
        write_text(path, text)
        assert path.read_bytes() == text.encode("utf-8")

    def test_exclusive_mode_keeps_an_existing_file(self, tmp_path):
        path = tmp_path / "out.txt"
        write_text(path, "kept\n", "x")
        with pytest.raises(FileExistsError):
            write_text(path, "lost\n", "x")
        assert path.read_text(encoding="utf-8") == "kept\n"

    def test_peak_is_a_fraction_of_the_text(self, tmp_path):
        # a whole-text write holds an encoded copy (1.0x of the text
        # measured); two slices' worth, a slice and its bytes, is 0.16x
        text = "123456,17,0.5625,1,0\n" * (12 * 2**20 // 21)
        path = tmp_path / "big.txt"
        tracemalloc.start()
        try:
            write_text(path, text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size == len(text)
        assert peak < len(text) / 4


# Writes a record with non-ASCII metadata and checks that it reads back; the
# source is ASCII, so a C locale can decode it.
LOCALE_WRITE = r"""
import sys
import numpy as np
from ehrlich import make_run_record, read_run_record, read_run_record_json, write_run_record
record = make_run_record("run-1", "Ehr(4,8)-2-2-2 \u2264", 3, "ga-\u00e9", {},
                         values=[0.5, -np.inf], rounds=[0, 1], duration_seconds=0.5,
                         unique=[True, True])
path = write_run_record(record, sys.argv[1])
for back in (read_run_record(path), read_run_record_json(path.with_suffix(".json"))):
    assert back.to_csv() == record.to_csv()
"""


# (label, interpreter options, environment): a C locale without UTF-8 mode,
# whose filesystem encoding is ASCII, and UTF-8 mode
LOCALES = (("ascii", ["-X", "utf8=0"], {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}),
           ("utf8", ["-X", "utf8=1"], {}))


def run_python(options, locale_env, code, *args):
    """``code`` run by a new interpreter that imports this package."""
    src = str(Path(records.__file__).resolve().parents[1])
    env = dict(os.environ, **locale_env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *options, "-c", code, *args],
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    return proc.stdout.decode("ascii")


def test_record_bytes_do_not_depend_on_the_locale(tmp_path):
    outputs = {}
    for label, options, locale_env in LOCALES:
        out = tmp_path / label
        run_python(options, locale_env, LOCALE_WRITE, str(out))
        outputs[label] = [(out / f"run-1{suffix}").read_bytes() for suffix in (".csv", ".json")]
    assert outputs["ascii"] == outputs["utf8"]
    assert "solver=ga-\u00e9".encode("utf-8") in outputs["ascii"][0]


# Builds a record whose run_id is not ASCII, and writes it if that succeeds;
# prints the outcome as ASCII.
NON_ASCII_RUN_ID = r"""
import sys
import numpy as np
from ehrlich import InvalidParamsError, make_run_record, read_run_record, write_run_record
try:
    record = make_run_record("run-\u00e9", "Ehr(4,8)-2-2-2", 3, "ga", {}, values=[0.5],
                             rounds=[0], duration_seconds=0.5, unique=[True])
except InvalidParamsError as exc:
    outcome = f"refused: {exc}"
else:
    outcome = f"written: {read_run_record(write_run_record(record, sys.argv[1])).run_id}"
print(outcome.encode("ascii", "backslashreplace").decode("ascii"))
"""


def test_run_id_the_filesystem_encoding_cannot_hold_is_refused_when_built(tmp_path):
    outcomes = {label: run_python(options, locale_env, NON_ASCII_RUN_ID, str(tmp_path / label))
                for label, options, locale_env in LOCALES}
    assert outcomes["ascii"] == ("refused: run_id 'run-\\xe9' cannot be a file name in the "
                                 "filesystem encoding (ascii)\n")
    assert not (tmp_path / "ascii").exists()
    assert outcomes["utf8"] == "written: run-\\xe9\n"
    assert (tmp_path / "utf8" / "run-\u00e9.json").exists()


class TestRunRecordStringMetadata:
    """String metadata a record file could not hold, or that would name a
    file outside the record directory, is refused when the record is built."""

    @pytest.mark.parametrize("field", ["run_id", "instance_name", "solver", "config_hash"])
    @pytest.mark.parametrize("text", ["a\nb", "a\rb", "ab\n"], ids=["LF", "CR", "trailing-LF"])
    def test_line_break(self, field, text):
        with pytest.raises(InvalidParamsError, match=f"{field} must not contain a line break"):
            record_with(**{field: text})

    @pytest.mark.parametrize("field", ["run_id", "instance_name", "solver", "config_hash"])
    @pytest.mark.parametrize("text", [" padded ", " lead", "trail\t"], ids=["both", "lead", "tab"])
    def test_surrounding_whitespace(self, field, text):
        with pytest.raises(InvalidParamsError, match=f"{field} must not start or end"):
            record_with(**{field: text})

    @pytest.mark.parametrize("run_id", ["../escaped", "sub/x", "/abs"])
    def test_run_id_with_a_slash(self, run_id):
        with pytest.raises(InvalidParamsError, match="run_id must not contain '/'"):
            record_with(run_id=run_id)

    def test_run_id_with_nul(self):
        with pytest.raises(InvalidParamsError, match="run_id must not contain"):
            record_with(run_id="a\0b")

    @pytest.mark.parametrize("run_id", [".hidden", "..", "."])
    def test_run_id_with_a_leading_dot(self, run_id):
        with pytest.raises(InvalidParamsError, match="start with '.'"):
            record_with(run_id=run_id)

    def test_non_string_field(self):
        with pytest.raises(InvalidParamsError, match="solver must be a string"):
            record_with(solver=5)

    def test_inner_space_dot_and_non_ascii_are_kept(self, tmp_path):
        record = record_with(run_id="run é.v2 x", instance_name="a b", solver="g\0a")
        path = write_run_record(record, tmp_path)
        assert path.name == "run é.v2 x.csv"
        back = read_run_record(path)
        assert (back.run_id, back.instance_name, back.solver) == ("run é.v2 x", "a b", "g\0a")


class TestReadRunRecordJson:
    """Each malformed mirror is a ParseError, not a raw decode, key or type error."""

    @pytest.mark.parametrize("edit, message", [
        (lambda data: data[:len(data) // 2], "malformed"),
        (lambda data: data.replace(b'"evals"', b'"other"'), "missing field 'evals'"),
        (lambda data: data.replace(b"Ehr(4,8)", b"Ehr\xff(4,8)"), "not UTF-8"),
        (lambda data: data.replace(b'"instance_seed": 3', b'"instance_seed": "x"'),
         "'instance_seed' has the wrong type"),
        (lambda data: b"[]", "must hold an object"),
        (lambda data: data.replace(b'"round": [', b'"round": [[1], '), "'round' must be a flat"),
        (lambda data: data.replace(b'"eval_index": [1', b'"eval_index": [1.5'),
         "'eval_index' must be a flat list of integers"),
        (lambda data: data.replace(b'"unique"', b'"uniq"'), "evals are missing 'unique'"),
        (lambda data: data.replace(b'"duration_seconds": 0.5',
                                   b'"duration_seconds": ' + b"9" * 400),
         "'duration_seconds' is out of range"),
    ], ids=["truncated", "no-evals", "non-utf8", "string-seed", "top-level-list",
            "ragged-column", "float-index", "missing-column", "huge-duration"])
    def test_malformed_mirror(self, tmp_path, edit, message):
        path = write_run_record(small_record([0.5, -np.inf]), tmp_path).with_suffix(".json")
        bad = tmp_path / "bad.json"
        bad.write_bytes(edit(path.read_bytes()))
        assert bad.read_bytes() != path.read_bytes()
        with pytest.raises(ParseError, match=message):
            read_run_record_json(bad)


class TestRunRecordPersistence:
    def test_csv_round_trip_is_exact(self, tmp_path):
        record = small_record([0.5, -np.inf, 2.0 / 3.0], rounds=np.array([0, 1, 1]))
        path = write_run_record(record, tmp_path)
        back = read_run_record(path)
        assert back.run_id == record.run_id
        assert back.instance_name == record.instance_name
        assert back.instance_seed == record.instance_seed
        assert back.solver == record.solver
        assert back.config_hash == record.config_hash
        assert back.duration_seconds == record.duration_seconds
        assert np.array_equal(back.eval_index, record.eval_index)
        assert np.array_equal(back.rounds, record.rounds)
        assert np.array_equal(back.values, record.values)
        assert np.array_equal(back.feasible, record.feasible)
        assert np.array_equal(back.unique, record.unique)

    def test_json_mirror_round_trip(self, tmp_path):
        record = small_record([0.25, -np.inf])
        path = write_run_record(record, tmp_path)
        back = read_run_record_json(path.with_suffix(".json"))
        assert np.array_equal(back.values, record.values)
        assert back.config_hash == record.config_hash

    def test_version_line_is_first(self, tmp_path):
        path = write_run_record(small_record([0.5]), tmp_path)
        assert path.read_text().splitlines()[0] == "# run-record v1"

    def test_write_builds_each_text_once(self, tmp_path, monkeypatch):
        calls = []
        for name in ("to_csv", "to_json"):
            def counted(record, _original=getattr(RunRecord, name), _name=name):
                calls.append(_name)
                return _original(record)
            monkeypatch.setattr(RunRecord, name, counted)
        write_run_record(small_record([0.5, 0.25]), tmp_path)
        assert calls == ["to_csv", "to_json"]

    def test_append_only(self, tmp_path):
        record = small_record([0.5])
        write_run_record(record, tmp_path)
        with pytest.raises(FileExistsError):
            write_run_record(record, tmp_path)

    @pytest.mark.parametrize("existing", ["csv", "json"])
    def test_refusal_writes_nothing(self, tmp_path, existing):
        record = small_record([0.5])
        (tmp_path / f"test-run.{existing}").write_text("kept\n")
        with pytest.raises(FileExistsError):
            write_run_record(record, tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [f"test-run.{existing}"]
        assert (tmp_path / f"test-run.{existing}").read_text() == "kept\n"

    def test_read_rejects_wrong_version(self, tmp_path):
        path = write_run_record(small_record([0.5]), tmp_path)
        text = path.read_text().replace("# run-record v1", "# run-record v9")
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        with pytest.raises(ParseError, match="version"):
            read_run_record(bad)

    def test_read_rejects_missing_metadata(self, tmp_path):
        path = write_run_record(small_record([0.5]), tmp_path)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("# solver=")]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="solver"):
            read_run_record(bad)

    def test_read_rejects_malformed_row(self, tmp_path):
        path = write_run_record(small_record([0.5]), tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text(path.read_text() + "not,a,valid,row,here\n")
        with pytest.raises(ParseError, match="data line"):
            read_run_record(bad)


class TestRunRecordBytes:
    """The writers' output equals the per-row reference writers byte for byte."""

    @pytest.mark.parametrize("make", [mixed_record, lambda: small_record([0.25])],
                             ids=["mixed", "one-row"])
    def test_writers_match_reference(self, make, tmp_path):
        record = make()
        assert record.to_csv() == oracle_csv(record)
        assert record.to_json() == oracle_json(record)
        # a record read back holds strided column views; same bytes again
        back = read_run_record(write_run_record(record, tmp_path))
        assert back.to_csv() == oracle_csv(record)
        assert back.to_json() == oracle_json(record)

    @pytest.mark.parametrize("make", [mixed_record, lambda: small_record([0.25])],
                             ids=["mixed", "one-row"])
    def test_indented_mirror_still_reads(self, make, tmp_path):
        record = make()
        path = tmp_path / "indented.json"
        path.write_text(oracle_json_indented(record))
        back = read_run_record_json(path)
        assert back.to_json() == record.to_json()
        assert back.to_csv() == record.to_csv()

    def test_json_escapes_metadata(self):
        record = RunRecord(
            run_id='run "é"', instance_name="Ehr(4,8)-2-2-2", instance_seed=3,
            solver="ga\\x", config_hash="0" * 12, eval_index=[1, 2],
            rounds=[0, 0], values=[-np.inf, 0.5], feasible=[False, True],
            unique=[True, True], duration_seconds=0.0,
        )
        assert record.to_json() == oracle_json(record)
        assert json.loads(record.to_json())["run_id"] == 'run "é"'


def mixed_floats(n):
    """n floats cycling through -inf, -0.0, 2/3, inf, 0.0, 0.1 + 0.2 and 1e-300."""
    pool = [-np.inf, -0.0, 2.0 / 3.0, np.inf, 0.0, 0.1 + 0.2, 1e-300]
    return np.array([pool[i % len(pool)] for i in range(n)])


class TestTableBytes:
    """Every table the package writes equals its hand-written reference writer."""

    def test_regret_curve(self):
        curve = RegretCurve(evals=[1, 3, 4, 9], regrets=[np.inf, 2.0 / 3.0, 1e-300, -0.0])
        assert curve.to_csv() == oracles.curve_csv(curve)
        curve = RegretCurve.from_record(mixed_record())
        assert curve.to_csv() == oracles.curve_csv(curve)

    def test_pareto_report(self):
        report = ParetoReport.from_arrays(
            ["q=1", "q=1", "q=2", "q=2"], [1.0, 2.0 / 3.0, 1e-300, 3.0],
            [np.inf, -0.0, 2.0 / 3.0, 0.0])
        assert report.to_csv() == oracles.pareto_csv(report)

    def test_round_report(self, tmp_path, capsys):
        csv_path = write_run_record(mixed_record(), tmp_path)
        out = tmp_path / "report.csv"
        assert cli.main(["report", "--records", str(csv_path), "--out", str(out)]) == 0
        rows = [("test-run", s) for s in round_summaries(mixed_record())]
        assert out.read_text() == oracles.round_report_csv(rows)

    def test_sweep_table(self, tmp_path, monkeypatch, capsys):
        # each run's record is made up, so the medians cover inf, 1 - 1/3 and 0.0
        runs = {}

        def fake_execute(function, run_id, solver, config, solve, out_dir):
            budget = config["budget"]
            values = np.full(budget, -np.inf)
            values[budget // 2:] = 1.0 / 3.0
            values[-2:] = 1.0
            runs[run_id] = record = small_record(values, tokens=np.zeros((budget, 2)))
            return record

        monkeypatch.setattr(cli, "_execute", fake_execute)
        rc = cli.main(["sweep", "--name", "Ehr(4,8)-2-2-2", "--instance-seed", "3",
                       "--axis", "q", "--values", "1,2", "--budget", "20",
                       "--particles", "20", "--seeds", "2", "--out-dir", str(tmp_path)])
        assert rc == 0
        marks = cli._checkpoints(20)
        medians = {}
        for value in (1, 2):
            at_marks = [RegretCurve.from_record(record).regret_at(np.asarray(marks))
                        for run_id, record in runs.items() if run_id.startswith(f"sweep-q{value}-")]
            medians[value] = np.median(np.stack(at_marks), axis=0)
        assert {float(m) for column in medians.values() for m in column} == {
            np.inf, 1.0 - 1.0 / 3.0, 0.0}
        expected = oracles.sweep_table_csv("q", "Ehr(4,8)-2-2-2", 3, 20, [0, 1], marks, medians)
        assert (tmp_path / "sweep-q-table.csv").read_text() == expected
        report = read_pareto_report(tmp_path / "sweep-q-pareto.csv")
        assert (tmp_path / "sweep-q-pareto.csv").read_text() == oracles.pareto_csv(report)


class TestReadRunRecord:
    @pytest.mark.parametrize("edited", [
        "6,1,0.5,1",
        "6,1,half,1,1",
        "6,1,0.5,1.0,1",
    ], ids=["short-row-mid-file", "non-numeric-value", "float-in-int-column"])
    def test_rejects_malformed_data_line(self, tmp_path, edited):
        text = write_run_record(mixed_record(), tmp_path).read_text()
        assert "\n6,1,0.5,1,1\n" in text
        bad = tmp_path / "bad.csv"
        bad.write_text(text.replace("\n6,1,0.5,1,1\n", f"\n{edited}\n"))
        with pytest.raises(ParseError, match="data line"):
            read_run_record(bad)

    @pytest.mark.parametrize("edited", ["6,1,0.5,1", "6,1,half,1,1"],
                             ids=["short-row", "non-numeric-value"])
    def test_error_names_the_file_line(self, tmp_path, edited):
        # loadtxt counts rows after the column header, 1-based for a wrong
        # field count and 0-based for a bad value, skipping comment and
        # empty lines; the message must name the line of the file.
        lines = write_run_record(mixed_record(), tmp_path).read_text().splitlines()
        at = lines.index("6,1,0.5,1,1")
        assert at + 1 == 14
        lines[at] = edited
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"data line 14: "):
            read_run_record(bad)
        lines[10:10] = ["# a comment in the body", ""]
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"data line 16: "):
            read_run_record(bad)

    def test_rejects_header_without_rows(self, tmp_path):
        lines = write_run_record(mixed_record(), tmp_path).read_text().splitlines()
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines[:8]) + "\n")
        with pytest.raises(ParseError, match="no data rows"):
            read_run_record(bad)

    def test_accepts_trailing_blank_line(self, tmp_path):
        path = write_run_record(mixed_record(), tmp_path)
        padded = tmp_path / "padded.csv"
        padded.write_text(path.read_text() + "\n")
        assert read_run_record(padded).to_csv() == oracle_csv(mixed_record())


class TestRoundSummariesMatchReference:
    @pytest.mark.parametrize("values, rounds", [
        ([0.25, 0.5, -np.inf, 0.75, 0.75, 0.5], [0, 0, 2, 5, 5, 5]),
        ([0.5, -np.inf, 0.25, 1.0], [1, 2, 3, 4]),
        ([0.5, 0.25, -np.inf, -np.inf, -np.inf, 0.75], [0, 0, 1, 1, 1, 2]),
    ], ids=["gapped-labels", "single-eval-rounds", "all-infeasible-round"])
    def test_cases(self, values, rounds):
        tokens = np.array([[0, 1], [0, 1], [2, 3], [4, 5], [2, 3], [6, 7]])[:len(values)]
        record = small_record(values, rounds=np.array(rounds), tokens=tokens)
        assert round_summaries(record) == oracle_round_summaries(record)

    def test_random_records(self, rng):
        levels = np.array([-np.inf, 0.0, -0.0, 1 / 3, 2 / 3, 0.1, 1.0])
        for _ in range(20):
            n = int(rng.integers(1, 3000))
            rounds = np.sort(rng.integers(0, 40, size=n))
            record = small_record(levels[rng.integers(0, levels.size, size=n)],
                                  rounds=rounds, tokens=rng.integers(0, 3, size=(n, 3)))
            assert round_summaries(record) == oracle_round_summaries(record)
            assert record.to_csv() == oracle_csv(record)
            assert record.to_json() == oracle_json(record)


class TestRegretCurve:
    def test_staircase_from_values(self):
        curve = RegretCurve.from_values(np.array([-np.inf, -np.inf, 0.5, 0.25, 0.75]))
        assert curve.evals.tolist() == [1, 3, 5]
        assert curve.regrets.tolist() == [float("inf"), 0.5, 0.25]
        assert curve.final_regret == 0.25

    def test_infeasible_prefix_is_infinite(self):
        curve = RegretCurve.from_values(np.array([-np.inf, 0.5]))
        assert curve.regret_at(1) == float("inf")
        assert curve.regret_at(2) == 0.5

    def test_never_feasible_is_all_infinite(self):
        curve = RegretCurve.from_values(np.array([-np.inf, -np.inf]))
        assert np.isposinf(curve.regrets).all()

    def test_regret_at_staircase_lookup(self):
        curve = RegretCurve(evals=np.array([1, 10, 100]),
                            regrets=np.array([1.0, 0.5, 0.0]))
        assert curve.regret_at(0) == float("inf")
        assert curve.regret_at(1) == 1.0
        assert curve.regret_at(9) == 1.0
        assert curve.regret_at(10) == 0.5
        assert curve.regret_at(1000) == 0.0
        looked = curve.regret_at(np.array([5, 50, 500]))
        assert looked.tolist() == [1.0, 0.5, 0.0]

    def test_last_eval_always_included(self):
        curve = RegretCurve.from_values(np.array([0.5, 0.5, 0.5]))
        assert curve.evals.tolist() == [1, 3]
        assert curve.regrets.tolist() == [0.5, 0.5]

    def test_rejects_increasing_regret(self):
        with pytest.raises(InvalidParamsError, match="nonincreasing"):
            RegretCurve(evals=np.array([1, 2]), regrets=np.array([0.25, 0.5]))

    def test_rejects_negative_regret(self):
        with pytest.raises(InvalidParamsError, match="nonnegative"):
            RegretCurve(evals=np.array([1]), regrets=np.array([-0.5]))

    def test_csv_round_trip(self, tmp_path):
        curve = RegretCurve.from_values(np.array([-np.inf, 0.75, 0.5, 1.0]))
        path = tmp_path / "curve.csv"
        path.write_text(curve.to_csv())
        back = read_regret_curve(path)
        assert np.array_equal(back.evals, curve.evals)
        assert np.array_equal(back.regrets, curve.regrets)

    def test_matches_incumbent_history(self, inst_4_8):
        ledger = EvalLedger(inst_4_8)
        state = run_ga(ledger, GAConfig(num_particles=40, seed=2), budget=400)
        curve = RegretCurve.from_values(ledger.values())
        assert curve.final_regret == 1.0 - state.incumbent.value


class TestParetoReport:
    def test_hypervolume_is_mean_area(self):
        report = ParetoReport.from_arrays(
            ["a", "a", "b"], [10.0, 20.0, 10.0], [1.0, 0.5, 0.2]
        )
        assert report.hypervolume("a") == pytest.approx((10 * 1 + 20 * 0.5) / 2)
        assert report.hypervolume("b") == pytest.approx(2.0)
        assert report.hypervolume() == pytest.approx((10 + 10 + 2) / 3)

    def test_curve_pinned_at_one_gives_mean_budget(self):
        budgets = [100.0, 200.0, 300.0, 400.0]
        report = ParetoReport.from_arrays(["x"] * 4, budgets, [1.0] * 4)
        assert report.hypervolume() == pytest.approx(np.mean(budgets))

    def test_labels_preserve_first_seen_order(self):
        report = ParetoReport.from_arrays(["b", "a", "b"], [1, 2, 3], [0, 0, 0])
        assert report.labels == ("b", "a")

    def test_unknown_label_rejected(self):
        report = ParetoReport.from_arrays(["a"], [1.0], [0.5])
        with pytest.raises(InvalidParamsError, match="no points"):
            report.hypervolume("zzz")

    def test_rejects_bad_points(self):
        with pytest.raises(InvalidParamsError, match="budget"):
            ParetoPoint("a", 0.0, 0.5)
        with pytest.raises(InvalidParamsError, match="min_regret"):
            ParetoPoint("a", 1.0, -0.5)

    @pytest.mark.parametrize("label", ["a,b", "a#b", "a\nb"], ids=["comma", "hash", "newline"])
    def test_rejects_labels_a_table_cannot_hold(self, label):
        with pytest.raises(InvalidParamsError, match="label must not contain"):
            ParetoPoint(label, 1.0, 0.5)

    @pytest.mark.parametrize("row, message", [
        ("b,2.0", "expected 3 fields, got 2"),
        ("b,2.0,half", "could not convert"),
    ], ids=["short-row", "non-numeric-field"])
    def test_error_names_the_file_line(self, tmp_path, row, message):
        lines = ["# pareto-report v1", "label,budget,min_regret", "a,1.0,0.5", row]
        path = tmp_path / "pareto.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"pareto report data line 4: {message}"):
            read_pareto_report(path)
        lines[2:2] = ["# a comment in the body", ""]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"pareto report data line 6: {message}"):
            read_pareto_report(path)

    def test_csv_round_trip(self, tmp_path):
        report = ParetoReport.from_arrays(["q=1", "q=2"], [100.0, 100.0], [1.0, 0.25])
        path = tmp_path / "pareto.csv"
        path.write_text(report.to_csv())
        back = read_pareto_report(path)
        assert back == report


class TestRoundSummaries:
    def test_hand_worked_two_rounds(self):
        # round 0 starts from no incumbent (treated as value 0), round 1
        # from the best feasible value of round 0.
        record = small_record(
            [0.25, -np.inf, 0.5, 0.25, -np.inf],
            rounds=np.array([0, 0, 1, 1, 1]),
        )
        first, second = round_summaries(record)
        assert first.num_evals == 2
        assert first.feasible_pct == 50.0
        assert first.mean_margin_reward == pytest.approx(0.125)
        assert first.max_margin_reward == pytest.approx(0.25)
        assert first.min_regret == pytest.approx(0.75)
        assert second.num_evals == 3
        assert second.mean_margin_reward == pytest.approx(0.25 / 3)
        assert second.max_margin_reward == pytest.approx(0.25)
        assert second.min_regret == pytest.approx(0.5)

    def test_duplicate_only_round_uniqueness(self):
        # a round that repeats one sequence m times is 1/m unique
        tokens = np.vstack([np.zeros((4, 4), dtype=np.int64)])
        record = small_record([0.5] * 4, rounds=np.zeros(4, dtype=np.int64),
                              tokens=tokens)
        (only,) = round_summaries(record)
        assert only.unique_pct == pytest.approx(100.0 / 4)

    def test_never_feasible_round_keeps_infinite_regret(self):
        record = small_record([-np.inf, -np.inf], rounds=np.array([0, 1]))
        first, second = round_summaries(record)
        assert first.min_regret == float("inf")
        assert second.min_regret == float("inf")
        assert first.mean_margin_reward == 0.0

    def test_recomputable_from_persisted_record(self, inst_4_8, tmp_path):
        ledger = EvalLedger(inst_4_8)
        run_ga(ledger, GAConfig(num_particles=25, seed=4), budget=125)
        record = make_run_record(
            "ga-recompute", inst_4_8.params.name, inst_4_8.params.seed, "ga",
            {"budget": 125}, tokens=ledger.tokens(), values=ledger.values(),
            rounds=ledger.call_rounds(), duration_seconds=0.01,
        )
        path = write_run_record(record, tmp_path)
        assert round_summaries(read_run_record(path)) == round_summaries(record)
