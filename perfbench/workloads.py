"""The benchmark's three workloads.

Each workload has an untimed set-up, a round of operations that a run
repeats, and an analysis that turns the rounds into metrics and checks
the program's outputs. A round runs its ``ehrlich`` commands through an
executor: child processes for the measured run (``Subprocess``), or
``ehrlich.cli.main`` in this process for the traced run (``InProcess``).
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import refscore

MB = 2 ** 20
# Set-up is sampled once after every command, so that its median spans
# the whole run rather than one moment of machine load, and then again
# at the end until there are this many samples.
SETUP_MIN_SAMPLES = 9
MIN_ROUNDS = 2  # the determinism checks compare two rounds of one seed
BATCH_ROWS = 1000  # one GA population
POOL_ROWS = 50_000
# A solver round scores its instance's GA pool this many times: one pass
# takes 0.03-0.1 s, too short a span to time steadily on a shared machine.
SOLVER_SCORE_PASSES = 8
EVAL_ROWS_PER_POOL = 10_000
REF_ROWS_PER_SOURCE = 300
POOL_NAMES = ("uniform", "dmp", "ga")

# Measures import, instance generation and the first scoring call in a
# fresh interpreter, excluding the interpreter's own start-up.
SETUP_SNIPPET = """\
import sys, time
start = time.perf_counter()
import ehrlich
fn = ehrlich.generate(ehrlich.EhrlichParams.from_name(sys.argv[1], seed=int(sys.argv[2])))
fn.evaluate_batch(fn.optimum[None, :])
print(repr(time.perf_counter() - start))
"""


@dataclass
class Call:
    """One ``ehrlich`` command: wall seconds, peak RSS (child runs only), exit code."""

    wall: float
    rss_mb: float | None
    returncode: int
    log: str = ""


class Subprocess:
    """Runs each command as a child process, one at a time, and reaps it
    with ``wait4`` so that its own peak RSS is known."""

    measured = True

    def __init__(self, root: Path, logs: Path, setup_args: list[str]):
        self.root = root
        self.logs = logs
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.children = 0
        self.setup_args = setup_args
        self.setup_times: list[float] = []

    def python(self, args: list[str]) -> Call:
        self.children += 1
        log = self.logs / f"child-{self.children}.log"
        with open(log, "w") as out:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.root, env=self.env,
                                    stdout=out, stderr=subprocess.STDOUT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Call(wall, usage.ru_maxrss * 1024 / MB, proc.returncode, log.read_text()[-4000:])

    def measure_setup(self) -> None:
        call = self.python(["-c", SETUP_SNIPPET, *self.setup_args])
        if call.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{call.log}")
        self.setup_times.append(float(call.log.strip().splitlines()[-1]))

    def cli(self, args: list[str], step: str) -> Call:
        call = self.python(["-m", "ehrlich.cli", *args])
        self.measure_setup()
        return call

    def group(self, step: str) -> None:
        pass


class InProcess:
    """Runs each command through ``ehrlich.cli.main`` in this process,
    inside a ``cli.main`` span of the tracer."""

    measured = False

    def __init__(self, workload: str, tracer):
        self.workload = workload
        self.tracer = tracer

    def group(self, step: str) -> None:
        self.tracer.group = f"{self.workload}/{step}"

    def cli(self, args: list[str], step: str) -> Call:
        from ehrlich import cli

        self.group(step)
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            with self.tracer.span("cli.main"):
                code = cli.main(args)
        return Call(time.perf_counter() - start, None, code, sink.getvalue()[-2000:])


@dataclass
class Ops:
    attempted: int = 0
    failed: int = 0

    def add(self, ok: bool) -> bool:
        self.attempted += 1
        self.failed += not ok
        return ok


@dataclass
class Round:
    ops: Ops = field(default_factory=Ops)
    calls: dict = field(default_factory=dict)  # step -> Call
    paths: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    scoring: tuple = (0, 0.0)  # (rows, seconds) of library scoring


def _median(values) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def ga_populations(fn, seed: int):
    """The ledger of a ``run_ga`` on ``fn`` that scores POOL_ROWS rows in
    BATCH_ROWS-row populations, after its single start-sequence row."""
    from ehrlich import GAConfig, run_ga
    from ehrlich.records import EvalLedger

    ledger = EvalLedger(fn)
    run_ga(ledger, GAConfig(num_particles=BATCH_ROWS, seed=seed), budget=POOL_ROWS + 1,
           stop_on_optimum=False)
    return ledger


def score_pool(fn, pool: np.ndarray, ops: Ops) -> tuple[np.ndarray, int, float]:
    """``evaluate_batch`` on ``pool`` in BATCH_ROWS-row calls, each call one
    operation: the values (NaN where a call failed), rows scored, and the
    seconds spent in the calls."""
    values = np.full(pool.shape[0], np.nan)
    rows, seconds = 0, 0.0
    for start in range(0, pool.shape[0], BATCH_ROWS):
        batch = pool[start:start + BATCH_ROWS]
        began = time.perf_counter()
        try:
            out = fn.evaluate_batch(batch)
        except Exception:  # counted as a failed operation; its rows stay NaN
            ops.add(False)
            continue
        seconds += time.perf_counter() - began
        rows += batch.shape[0]
        ops.add(True)
        values[start:start + BATCH_ROWS] = out
    return values, rows, seconds


# --- solver workloads -----------------------------------------------------

class Solver:
    """Library ``evaluate_batch`` on GA populations of the solver's
    instance (measured runs only), then ``run-<solver>`` and ``report
    --out`` on the record it wrote.

    The scoring gives the workload a solve-side rate that the benchmark
    times itself; the traced run leaves it out, so that its layer totals
    describe the commands alone.
    """

    main_step = "run"
    reports_per_round = 1

    def __init__(self, name: str, command: str, instance: str, instance_seed: int,
                 options: tuple[str, ...]):
        self.name = name
        self.command = command
        self.instance = instance
        self.instance_seed = instance_seed
        self.options = options

    def setup(self, work: Path, seed: int) -> None:
        from ehrlich import EhrlichParams, generate

        self.work = work
        self.seed = seed
        self.fn = generate(EhrlichParams.from_name(self.instance, seed=self.instance_seed))
        ledger = ga_populations(self.fn, seed)
        self.pool, self.pool_values = ledger.tokens()[1:], ledger.values()[1:]

    def main_args(self, out: Path) -> list[str]:
        return [self.command, "--name", self.instance, "--instance-seed", str(self.instance_seed),
                *self.options, "--seed-list", str(self.seed), "--out-dir", str(out)]

    def round(self, index: int, exe, full: bool = True) -> Round:
        result = Round()
        if exe.measured:
            rows, seconds = 0, 0.0
            for _ in range(SOLVER_SCORE_PASSES):
                values, pass_rows, pass_seconds = score_pool(self.fn, self.pool, result.ops)
                result.outputs.setdefault("pool", []).append(values)
                rows += pass_rows
                seconds += pass_seconds
            result.scoring = (rows, seconds)
        out = self.work / f"{self.name}-{index}"
        run = exe.cli(self.main_args(out), "run")
        result.calls["run"] = run
        if not result.ops.add(run.returncode == 0):
            for _ in range(self.reports_per_round):
                result.ops.add(False)  # no record to report on
            return result
        written = sum(p.stat().st_size for p in out.iterdir())
        csv = next(p for p in out.glob("*.csv") if not p.name.endswith(".curve.csv"))
        result.paths = {"csv": csv, "written": written, "reports": []}
        result.calls["reports"] = []
        for repeat in range(self.reports_per_round):
            report_path = self.work / f"{self.name}-{index}-report-{repeat}.csv"
            report = exe.cli(["report", "--records", str(csv), "--out", str(report_path)],
                             "report")
            result.calls["reports"].append(report)
            if result.ops.add(report.returncode == 0):
                result.paths["reports"].append(report_path)
        return result

    def check_run(self, rec: checks.Record, csv: Path) -> None:
        raise NotImplementedError

    def analyse(self, rounds: list[Round]) -> tuple[dict, list[str]]:
        """Per-metric medians over the rounds, and failed check messages."""
        per_round = {k: [] for k in ("run_s", "report_s", "peak_rss_mb", "record_mb",
                                     "score_seq_per_s", "eval_seq_per_s")}
        problems = []
        first = None
        for r in rounds:
            rows, seconds = r.scoring
            if seconds:
                per_round["score_seq_per_s"].append(rows / seconds)
                if not all(np.array_equal(v, self.pool_values) for v in r.outputs["pool"]):
                    problems.append(f"{self.name}: library scores of the GA populations "
                                    "differ from the set-up run's")
            if not r.paths or len(r.paths["reports"]) != self.reports_per_round:
                continue
            csv, report = r.paths["csv"], r.paths["reports"][0]
            try:
                rec = checks.read_record_csv(csv)
            except checks.CheckFailed as exc:
                problems.append(f"{self.name}: {exc}")
                continue
            try:
                if first is None:
                    checks.check_record_invariants(rec)
                    checks.check_csv_matches_json(rec, csv.with_suffix(".json"))
                    checks.check_report(rec, checks.read_report(report))
                    checks.check_curve(rec, csv.with_suffix(".curve.csv"))
                    self.check_run(rec, csv)
                    first = (rec.rows_digest, report.read_bytes())
                else:
                    checks.check(rec.rows_digest == first[0],
                                 "record rows differ between two runs of the same seed")
                for path in r.paths["reports"]:
                    checks.check(path.read_bytes() == first[1],
                                 "report differs between two runs of the same seed")
            except checks.CheckFailed as exc:
                problems.append(f"{self.name}: {exc}")
            run, reports = r.calls["run"], r.calls["reports"]
            per_round["run_s"].append(run.wall)
            per_round["report_s"] += [rep.wall for rep in reports]
            per_round["peak_rss_mb"].append(
                max(c.rss_mb for c in (run, *reports)) if run.rss_mb is not None else None)
            per_round["record_mb"].append(r.paths["written"] / MB)
            per_round["eval_seq_per_s"].append(rec.num_evals / run.wall)
        return per_round, problems


class GARun(Solver):
    budget = 1_000_000
    particles = 1000

    def __init__(self):
        # Without early stopping every seed spends the whole budget; with
        # it, some seeds reach f = 1 within a quarter of it.
        super().__init__("ga-1m", "run-ga", "Ehr(32,32)-4-4-4", 7,
                         ("--budget", str(self.budget), "--particles", str(self.particles),
                          "--no-early-stop"))

    def check_run(self, rec, csv):
        checks.check_ga_run(rec, self.budget, self.particles)


class LlomeRun(Solver):
    evals_per_round = 2000
    # report takes ~0.4 s here, mostly interpreter start-up; one sample
    # per 9 s round would leave its median at the mercy of a few runs.
    reports_per_round = 5

    def __init__(self):
        super().__init__("llome-loop", "run-llome", "Ehr(4,16)-2-2-2", 1,
                         ("--evals-per-round", str(self.evals_per_round)))

    def check_run(self, rec, csv):
        checks.check_llome_rounds(rec, csv.with_suffix(".rounds.json"), self.evals_per_round)


# --- library scoring ------------------------------------------------------

def markov_chains(entries: np.ndarray, length: int, rows: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Vectorized draws from the transition matrix: a uniform first token,
    then each token from its predecessor's row."""
    cumulative = np.cumsum(entries, axis=1)
    out = np.empty((rows, length), dtype=np.int64)
    out[:, 0] = rng.integers(0, entries.shape[0], size=rows)
    for pos in range(1, length):
        cdf = cumulative[out[:, pos - 1]]
        # u < the row total, so a zero-probability token is never picked
        u = rng.random(rows)[:, None] * cdf[:, -1:]
        out[:, pos] = (u >= cdf).sum(axis=1)
    return out


def invalid_token_call(fn, batch: np.ndarray) -> bool:
    """True when ``evaluate_batch`` rejects the batch with InvalidParamsError."""
    from ehrlich.errors import InvalidParamsError

    try:
        fn.evaluate_batch(batch)
    except InvalidParamsError:
        return True
    except Exception:  # any other error is a failure of the contract, e.g. a raw IndexError
        return False
    return False


class ScorePools:
    """Library ``evaluate_batch`` over three pools, ``ehrlich eval`` on a
    file drawn from them, and ``report`` on the GA run that made one pool."""

    name = "score-pools"
    instance = "Ehr(32,32)-4-4-4"
    instance_seed = 7
    main_step = "eval"

    def setup(self, work: Path, seed: int) -> None:
        from ehrlich import EhrlichParams, generate
        from ehrlich.instance_io import write_instance
        from ehrlich.records import make_run_record, write_run_record

        self.work = work
        fn = generate(EhrlichParams.from_name(self.instance, seed=self.instance_seed))
        self.fn = fn
        self.instance_path = work / "instance.json"
        write_instance(fn, self.instance_path)
        self.ref = refscore.load_instance(self.instance_path)
        v, length = fn.params.vocab_size, fn.params.length
        rng = np.random.default_rng(seed)

        ledger = ga_populations(fn, seed)
        self.pools = {
            "uniform": rng.integers(0, v, size=(POOL_ROWS, length)),
            "dmp": markov_chains(fn.transition.entries, length, POOL_ROWS, rng),
            "ga": ledger.tokens()[1:],
        }
        record = make_run_record(
            run_id=f"ga-pool-s{seed}", instance_name=fn.params.name,
            instance_seed=self.instance_seed, solver="ga",
            config=dict(budget=POOL_ROWS + 1, seed=seed), tokens=ledger.tokens(),
            values=ledger.values(), rounds=ledger.call_rounds(), duration_seconds=0.0,
        )
        self.record_csv = write_run_record(record, work / "ga-pool")

        self.eval_picks = {n: rng.choice(POOL_ROWS, EVAL_ROWS_PER_POOL, replace=False)
                           for n in POOL_NAMES}
        self.eval_tokens = np.concatenate([self.pools[n][self.eval_picks[n]] for n in POOL_NAMES])
        self.eval_path = work / "sequences.txt"
        self.eval_path.write_text(
            "".join(",".join(map(str, row)) + "\n" for row in self.eval_tokens.tolist()))
        self.ref_picks = {n: rng.choice(POOL_ROWS, REF_ROWS_PER_SOURCE, replace=False)
                          for n in POOL_NAMES}
        self.ref_picks["eval"] = rng.choice(self.eval_tokens.shape[0], REF_ROWS_PER_SOURCE,
                                            replace=False)

        # Token -1 and token v: neither is in the alphabet, and the
        # single-sequence ``evaluate`` rejects both.
        self.invalid = []
        for token in (-1, v):
            row = fn.optimum.copy()
            row[0] = token
            try:
                fn.evaluate(row)
            except ValueError:
                self.invalid.append(row[None, :])
        if len(self.invalid) != 2:
            raise RuntimeError("evaluate accepted an out-of-range token")

    def main_args(self, out: Path) -> list[str]:
        return ["eval", "--instance", str(self.instance_path),
                "--sequences", str(self.eval_path), "--out", str(out)]

    def round(self, index: int, exe, full: bool = True) -> Round:
        result = Round()
        rows, seconds = 0, 0.0
        for name in POOL_NAMES:
            exe.group(f"pool.{name}")
            values, pool_rows, pool_seconds = score_pool(self.fn, self.pools[name], result.ops)
            result.outputs[name] = values
            rows += pool_rows
            seconds += pool_seconds
        result.scoring = (rows, seconds)

        scored = self.work / f"scored-{index}.txt"
        call = exe.cli(self.main_args(scored), "eval")
        result.calls["eval"] = call
        if result.ops.add(call.returncode == 0):
            result.paths["scored"] = scored
        report_path = self.work / f"report-{index}.csv"
        call = exe.cli(["report", "--records", str(self.record_csv), "--out", str(report_path)],
                       "report")
        result.calls["report"] = call
        if result.ops.add(call.returncode == 0):
            result.paths["report"] = report_path
        if full:
            exe.group("invalid")
            for batch in self.invalid:
                result.ops.add(invalid_token_call(self.fn, batch))
        return result

    def _check_first(self, r: Round) -> None:
        seen = set()
        for name in POOL_NAMES:
            tokens, values = self.pools[name], r.outputs[name]
            ok = ~np.isnan(values)
            checks.check_score_properties(self.ref, tokens[ok], values[ok])
            pick = self.ref_picks[name][ok[self.ref_picks[name]]]
            seen |= checks.check_reference(self.ref, tokens[pick], values[pick])

        tokens, values = checks.read_scored_sequences(r.paths["scored"], self.fn.params.length)
        checks.check(np.array_equal(tokens, self.eval_tokens), "eval output rows differ from its input")
        library = np.concatenate([r.outputs[n][self.eval_picks[n]] for n in POOL_NAMES])
        known = ~np.isnan(library)
        checks.check(np.array_equal(values[known], library[known]),
                     "eval scores differ from evaluate_batch on the same rows")
        checks.check_score_properties(self.ref, tokens, values)
        pick = self.ref_picks["eval"]
        seen |= checks.check_reference(self.ref, tokens[pick], values[pick])
        checks.check(len(seen) >= 2, f"reference sample holds {len(seen)} feasible value level(s)")

        rec = checks.read_record_csv(self.record_csv)
        checks.check_record_invariants(rec)
        checks.check_csv_matches_json(rec, self.record_csv.with_suffix(".json"))
        checks.check_report(rec, checks.read_report(r.paths["report"]))

    def analyse(self, rounds: list[Round]) -> tuple[dict, list[str]]:
        per_round = {k: [] for k in ("run_s", "report_s", "peak_rss_mb", "record_mb",
                                     "score_seq_per_s", "eval_seq_per_s")}
        problems = []
        first = None
        for r in rounds:
            rows, seconds = r.scoring
            per_round["score_seq_per_s"].append(rows / seconds if seconds else None)
            if "scored" not in r.paths or "report" not in r.paths:
                continue
            try:
                if first is None:
                    self._check_first(r)
                    first = r
                else:
                    for name in POOL_NAMES:
                        checks.check(np.array_equal(r.outputs[name], first.outputs[name],
                                                    equal_nan=True),
                                     f"pool {name} scores differ between rounds")
                    for key in ("scored", "report"):
                        checks.check(r.paths[key].read_bytes() == first.paths[key].read_bytes(),
                                     f"{key} output differs between rounds")
            except checks.CheckFailed as exc:
                problems.append(f"{self.name}: {exc}")
            ev, rep = r.calls["eval"], r.calls["report"]
            per_round["run_s"].append(ev.wall)
            per_round["eval_seq_per_s"].append(self.eval_tokens.shape[0] / ev.wall)
            per_round["report_s"].append(rep.wall)
            per_round["peak_rss_mb"].append(
                max(ev.rss_mb, rep.rss_mb) if ev.rss_mb is not None else None)
            per_round["record_mb"].append(r.paths["scored"].stat().st_size / MB)
        return per_round, problems


WORKLOADS = {"ga-1m": GARun, "llome-loop": LlomeRun, "score-pools": ScorePools}


def make(name: str):
    return WORKLOADS[name]()


def measured_run(name: str, root: Path, work: Path, seed: int, seconds: float,
                 deadline: float) -> dict:
    """The untraced run: set-up, whole rounds for ``seconds``, analysis."""
    workload = make(name)
    exe = Subprocess(root, work, [workload.instance, str(workload.instance_seed)])
    exe.measure_setup()
    workload.setup(work, seed)
    rounds = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        rounds.append(workload.round(len(rounds) + 1, exe))
        now = time.perf_counter()
        if len(rounds) >= MIN_ROUNDS and (now - start >= seconds
                                          or now + (now - began) > deadline):
            break
    while len(exe.setup_times) < SETUP_MIN_SAMPLES:
        exe.measure_setup()
    per_round, problems = workload.analyse(rounds)
    metrics = {k: _median(v) for k, v in per_round.items()}
    metrics["setup_s"] = statistics.median(exe.setup_times)
    return {
        "metrics": metrics,
        "per_round": dict(per_round, setup_s=exe.setup_times),
        "rounds": len(rounds),
        "attempted": sum(r.ops.attempted for r in rounds),
        "failed": sum(r.ops.failed for r in rounds),
        "problems": problems,
    }
