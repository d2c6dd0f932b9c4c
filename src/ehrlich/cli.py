"""Command-line benchmark harness.

Subcommands cover the whole workflow: ``gen`` materializes a test
function as a text document, ``eval`` scores a sequence file against
one, ``run-ga`` and ``run-llome`` execute the solvers and persist
per-evaluation run records, ``sweep`` scans one instance axis with the
evolutionary baseline, ``report`` rebuilds round-level diagnostics from
stored records, and ``bench`` times the scoring kernel on a uniform-random
batch.

Exit codes: 0 on success, 2 for invalid input (bad parameters, malformed
files, missing paths), 3 when a solver aborts mid-run. Output files go
to ``--out-dir`` when given, else the ``EHRLICH_OUT_DIR`` environment
variable, else the working directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
import time
from pathlib import Path

import numpy as np

from .errors import (
    ConstructionError,
    ConvergenceError,
    EhrlichError,
    GenerationError,
    GeneratorCollapseError,
    InvalidParamsError,
    ParseError,
)
from .function import EhrlichParams, generate
from .ga import GAConfig, run_ga
from .instance_io import (
    format_sequences,
    parse_sequences,
    read_instance,
    read_text,
    serialize_instance,
)
from .llome import LoopConfig, run_llome, run_presolver
from .proposers import baseline_mutation_proposer
from .records import (
    EvalLedger,
    ParetoReport,
    RegretCurve,
    RoundSummary,
    RunRecord,
    make_run_record,
    read_run_record,
    round_summaries,
    write_run_record,
)
from .tables import format_table, is_table

ENV_OUT_DIR = "EHRLICH_OUT_DIR"

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_SOLVER_ABORT = 3

_AXIS_FIELDS = {
    "v": "vocab_size",
    "L": "length",
    "c": "num_motifs",
    "k": "motif_length",
    "q": "quantization",
}


def _slug(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-")


def _out_dir(args) -> Path:
    path = Path(getattr(args, "out_dir", None) or os.environ.get(ENV_OUT_DIR) or ".")
    if path.exists() and not path.is_dir():
        raise InvalidParamsError(f"output path is not a directory: {path}")
    return path


def _parse_int_list(text: str, what: str) -> list[int]:
    """The integers of a comma-separated list, each at most once.

    A repeated entry would name the same output files twice, so it is
    refused here, before any compute is spent.
    """
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise InvalidParamsError(f"{what} must be a comma-separated list of integers, got {text!r}") from None
    repeated = sorted({value for value in values if values.count(value) > 1})
    if repeated:
        raise InvalidParamsError(f"{what} repeats {', '.join(map(str, repeated))}: {text!r}")
    return values


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise InvalidParamsError(f"{what} must be a comma-separated list of numbers, got {text!r}") from None


def _run_seeds(args) -> list[int]:
    if getattr(args, "seed_list", None):
        return _parse_int_list(args.seed_list, "--seed-list")
    count = getattr(args, "seeds", 1)
    if count < 1:
        raise InvalidParamsError(f"--seeds must be >= 1, got {count}")
    return list(range(count))


def _param_overrides(args) -> dict:
    overrides = {}
    if getattr(args, "feasible_fraction", None) is not None:
        overrides["feasible_fraction"] = args.feasible_fraction
    if getattr(args, "epistasis_factor", None) is not None:
        overrides["epistasis_factor"] = args.epistasis_factor
    if getattr(args, "softmax_temperature", None) is not None:
        overrides["softmax_temperature"] = args.softmax_temperature
    return overrides


def _input_path(name: str, what: str) -> Path:
    """``name`` as a path to an existing file, else an InvalidParamsError."""
    path = Path(name)
    if not path.exists():
        raise InvalidParamsError(f"{what} not found: {path}")
    if path.is_dir():
        raise InvalidParamsError(f"{what} is a directory: {path}")
    return path


def _function_from_args(args):
    if getattr(args, "instance", None):
        return read_instance(_input_path(args.instance, "instance file"))
    if getattr(args, "name", None):
        params = EhrlichParams.from_name(
            args.name, seed=args.instance_seed, **_param_overrides(args)
        )
        return generate(params)
    raise InvalidParamsError("provide --instance FILE or --name NAME")


def _add_instance_args(parser: argparse.ArgumentParser, with_file: bool = True) -> None:
    if with_file:
        parser.add_argument("--instance", metavar="FILE",
                            help="load the test function from a document")
    parser.add_argument("--name", metavar="NAME",
                        help="instance name, e.g. 'Ehr(4,16)-2-2-2'")
    parser.add_argument("--instance-seed", type=int, default=0,
                        help="construction seed (default 0)")
    parser.add_argument("--feasible-fraction", type=float, default=None,
                        help="allowed fraction of transitions per row")
    parser.add_argument("--epistasis-factor", type=float, default=None,
                        help="cubic response coefficient in [0, 4]")
    parser.add_argument("--softmax-temperature", type=float, default=None,
                        help="transition-probability temperature")


def _add_seed_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seeds", type=int, default=1,
                        help="number of solver seeds, run as 0..N-1 (default 1)")
    parser.add_argument("--seed-list", metavar="S0,S1,...",
                        help="explicit solver seeds (overrides --seeds)")


def _add_ga_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--particles", type=int, default=1000,
                        help="population size per step (default 1000)")
    parser.add_argument("--survival-quantile", type=float, default=0.1,
                        help="top quantile kept each step (default 0.1)")
    parser.add_argument("--mutation-prob", type=float, default=0.005,
                        help="per-position mutation probability (default 0.005)")
    parser.add_argument("--recombination-prob", type=float, default=0.0882,
                        help="per-position crossover probability (default 0.0882)")


def _ga_config(args, seed: int) -> GAConfig:
    return GAConfig(
        num_particles=args.particles,
        survival_quantile=args.survival_quantile,
        mutation_prob=args.mutation_prob,
        recombination_prob=args.recombination_prob,
        seed=seed,
    )


def _print_run(record) -> None:
    rate = record.eval_rate
    rate_text = "inf" if rate == float("inf") else f"{rate:,.0f}"
    print(
        f"{record.run_id}: evals={record.num_evals} best={record.best_value:g} "
        f"min_regret={record.min_regret:g} rate={rate_text}/s"
    )


# --- gen ------------------------------------------------------------------

def cmd_gen(args) -> int:
    if args.name:
        params = EhrlichParams.from_name(
            args.name, seed=args.instance_seed, **_param_overrides(args)
        )
    else:
        missing = [flag for flag, value in
                   (("--v", args.v), ("--L", args.L), ("--c", args.c),
                    ("--k", args.k), ("--q", args.q)) if value is None]
        if missing:
            raise InvalidParamsError(
                "provide --name or all of --v/--L/--c/--k/--q "
                f"(missing {', '.join(missing)})"
            )
        params = EhrlichParams(
            vocab_size=args.v, length=args.L, num_motifs=args.c,
            motif_length=args.k, quantization=args.q, seed=args.instance_seed,
            **_param_overrides(args),
        )
    document = serialize_instance(generate(params))
    if args.out:
        Path(args.out).write_text(document)
        print(f"wrote {params.name} (seed {params.seed}) to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(document)
    return EXIT_OK


# --- eval -----------------------------------------------------------------

def cmd_eval(args) -> int:
    function = read_instance(_input_path(args.instance, "instance file"))
    path = _input_path(args.sequences, "sequence file")
    tokens, _ = parse_sequences(
        read_text(path, "sequence file"), function.params.length, function.params.vocab_size
    )
    if tokens.shape[0] == 0:
        raise InvalidParamsError(f"sequence file is empty: {path}")
    values = function.evaluate_batch(tokens)
    scored = format_sequences(tokens, values)
    if args.out:
        Path(args.out).write_text(scored)
    else:
        sys.stdout.write(scored)
    feasible = values[~np.isneginf(values)]
    best = float(feasible.max()) if feasible.size else float("-inf")
    regret = "inf" if best == float("-inf") else f"{1.0 - best:g}"
    print(
        f"scored {tokens.shape[0]} sequences on {function.params.name}: "
        f"best={best:g} min_regret={regret}",
        file=sys.stderr,
    )
    return EXIT_OK


# --- run-ga ---------------------------------------------------------------

def _ledger_record(ledger: EvalLedger, run_id: str, solver: str, config: dict,
                   duration: float, presolver_calls: int = 1) -> RunRecord:
    """A run's record from the one ledger of its oracle calls: the first
    ``presolver_calls`` batches are round 0, and each later batch is its own round."""
    rounds = ledger.call_rounds()
    np.maximum(rounds - (presolver_calls - 1), 0, out=rounds)
    return make_run_record(run_id, ledger.params.name, ledger.params.seed, solver, config,
                           values=ledger.values(), rounds=rounds, duration_seconds=duration,
                           unique=ledger.unique())


def _write_run(record: RunRecord, out_dir: Path) -> Path:
    """Write the record, its JSON mirror and its regret curve; return the CSV path."""
    csv_path = write_run_record(record, out_dir)
    csv_path.with_suffix(".curve.csv").write_text(RegretCurve.from_record(record).to_csv())
    return csv_path


def _execute_ga_run(function, args, seed: int, budget: int, out_dir: Path,
                    run_id: str) -> RunRecord:
    ledger = EvalLedger(function)
    config = _ga_config(args, seed)
    start = time.perf_counter()
    run_ga(ledger, config, budget=budget,
           stop_on_optimum=not getattr(args, "no_early_stop", False))
    duration = time.perf_counter() - start
    record = _ledger_record(ledger, run_id, "ga", dict(dataclasses.asdict(config), budget=budget),
                            duration)
    del ledger  # its rows and seen-row set are not needed to write the record
    _write_run(record, out_dir)
    return record


def cmd_run_ga(args) -> int:
    if args.budget < args.particles:
        raise InvalidParamsError(
            f"--budget must cover at least one step: {args.budget} < {args.particles}"
        )
    function = _function_from_args(args)
    out_dir = _out_dir(args)
    slug = _slug(function.params.name)
    for seed in _run_seeds(args):
        run_id = f"ga-{slug}-i{function.params.seed}-s{seed}"
        record = _execute_ga_run(function, args, seed, args.budget, out_dir, run_id)
        if record.num_evals > args.budget:
            raise GenerationError(
                f"run {run_id} exceeded the budget: {record.num_evals} > {args.budget}"
            )
        _print_run(record)
    return EXIT_OK


# --- run-llome ------------------------------------------------------------

def _loop_config(args, seed: int) -> LoopConfig:
    return LoopConfig(
        rounds=args.rounds,
        evals_per_round=args.evals_per_round,
        presolver_rounds=args.presolver_rounds,
        seeds_per_round=args.seeds_per_round,
        refine_iters=args.refine_iters,
        samples_per_iter=args.samples_per_iter,
        base_temperatures=tuple(_parse_float_list(args.temperatures, "--temperatures")),
        likelihood_floor=args.likelihood_floor,
        max_infeasible_fraction=args.max_infeasible_fraction,
        dataset_mode=args.dataset_mode,
        distance_threshold=args.distance_threshold,
        num_neighbors=args.num_neighbors,
        seed=seed,
    )


def cmd_run_llome(args) -> int:
    function = _function_from_args(args)
    out_dir = _out_dir(args)
    slug = _slug(function.params.name)
    for seed in _run_seeds(args):
        config = _loop_config(args, seed)
        ga_config = GAConfig(num_particles=args.presolver_particles, seed=seed)
        proposer = baseline_mutation_proposer(
            args.mutation_rate, function.params.vocab_size, function.params.length
        )
        # One ledger records the presolver's batches, all round 0, then
        # the loop's, which scores exactly one batch per round.
        ledger = EvalLedger(function)
        start = time.perf_counter()
        presolved = run_presolver(ledger, ga_config, config.presolver_rounds)
        presolver_calls = ledger.num_calls
        result = run_llome(ledger, proposer, config, presolved)
        duration = time.perf_counter() - start
        run_id = f"llome-{slug}-i{function.params.seed}-s{seed}"
        record = _ledger_record(ledger, run_id, "llome-baseline", dict(
            dataclasses.asdict(config),
            presolver_particles=args.presolver_particles,
            mutation_rate=args.mutation_rate,
        ), duration, presolver_calls)
        del ledger
        csv_path = _write_run(record, out_dir)
        stats_payload = {
            "format": "round-stats",
            "version": 1,
            "run_id": run_id,
            "presolver_evals": result.presolver_evals,
            "presolver_min_regret": result.presolver_min_regret,
            "rounds": [dataclasses.asdict(stats) for stats in result.rounds],
        }
        csv_path.with_suffix(".rounds.json").write_text(
            json.dumps(stats_payload, indent=2) + "\n"
        )
        _print_run(record)
    return EXIT_OK


# --- sweep ----------------------------------------------------------------

def _checkpoints(budget: int, count: int = 10) -> list[int]:
    marks = sorted({max(1, budget * i // count) for i in range(1, count + 1)})
    return marks


def cmd_sweep(args) -> int:
    if not args.name:
        raise InvalidParamsError("sweep needs --name as the base instance")
    field = _AXIS_FIELDS[args.axis]
    values = _parse_int_list(args.values, "--values")
    if not values:
        raise InvalidParamsError("--values must list at least one integer")
    if args.budget < args.particles:
        raise InvalidParamsError(
            f"--budget must cover at least one step: {args.budget} < {args.particles}"
        )
    base = EhrlichParams.from_name(
        args.name, seed=args.instance_seed, **_param_overrides(args)
    )
    # Validate the whole grid up front so a bad cell (e.g. c*k > L)
    # aborts before any compute is spent.
    grid = [dataclasses.replace(base, **{field: value}) for value in values]
    seeds = _run_seeds(args)
    out_dir = _out_dir(args)
    marks = _checkpoints(args.budget)

    medians: dict[int, np.ndarray] = {}
    for params, value in zip(grid, values):
        function = generate(params)
        slug = _slug(function.params.name)
        curves = []
        for seed in seeds:
            run_id = f"sweep-{args.axis}{value}-{slug}-i{params.seed}-s{seed}"
            record = _execute_ga_run(function, args, seed, args.budget, out_dir, run_id)
            curves.append(RegretCurve.from_record(record))
        at_marks = np.stack([curve.regret_at(np.asarray(marks)) for curve in curves])
        medians[value] = np.median(at_marks, axis=0)

    header = ["evals_used"] + [f"{args.axis}={value}" for value in values]
    columns = dict(zip(header, [marks, *(medians[value] for value in values)]))
    table = format_table("sweep-table", 1, columns, meta={
        "axis": args.axis,
        "base": base.name,
        "instance_seed": base.seed,
        "budget": args.budget,
        "seeds": ",".join(str(s) for s in seeds),
    })
    out_dir.mkdir(parents=True, exist_ok=True)
    table_path = out_dir / f"sweep-{args.axis}-table.csv"
    table_path.write_text(table)

    report = ParetoReport.from_arrays(
        labels=[f"{args.axis}={value}" for value in values for _ in marks],
        budgets=[float(mark) for _ in values for mark in marks],
        regrets=[float(medians[value][row]) for value in values
                 for row in range(len(marks))],
    )
    pareto_path = out_dir / f"sweep-{args.axis}-pareto.csv"
    pareto_path.write_text(report.to_csv())

    print(f"median min-regret vs evaluations ({len(seeds)} seeds):")
    print("  " + "  ".join(f"{h:>12}" for h in header))
    for row, mark in enumerate(marks):
        cells = [f"{mark:>12}"] + [f"{medians[value][row]:>12.4g}" for value in values]
        print("  " + "  ".join(cells))
    print("hypervolume (mean of evals x regret):")
    for value in values:
        print(f"  {args.axis}={value}: {report.hypervolume(f'{args.axis}={value}'):.6g}")
    print(f"wrote {table_path} and {pareto_path}", file=sys.stderr)
    return EXIT_OK


# --- report ---------------------------------------------------------------

def cmd_report(args) -> int:
    paths = [_input_path(p, "record file") for p in args.records or []]
    if args.records_dir:
        # The output directory also holds curve/sweep CSVs; take only
        # files that identify themselves as run records.
        paths += [found for found in sorted(Path(args.records_dir).glob("*.csv"))
                  if is_table(found, "run-record")]
    if not paths:
        raise InvalidParamsError("provide record files or --records-dir")
    rows = []
    for path in paths:
        record = read_run_record(path)
        curve = RegretCurve.from_record(record)
        print(
            f"run {record.run_id}: solver={record.solver} "
            f"instance={record.instance_name} (seed {record.instance_seed}) "
            f"evals={record.num_evals} duration={record.duration_seconds:.3f}s "
            f"final_regret={curve.final_regret:g}"
        )
        print(f"  {'round':>5} {'evals':>6} {'unique%':>8} {'feasible%':>9} "
              f"{'mean_margin':>11} {'max_margin':>10} {'min_regret':>10}")
        for s in round_summaries(record):
            print(f"  {s.round_index:>5} {s.num_evals:>6} {s.unique_pct:>8.1f} "
                  f"{s.feasible_pct:>9.1f} {s.mean_margin_reward:>11.4g} "
                  f"{s.max_margin_reward:>10.4g} {s.min_regret:>10.4g}")
            rows.append((record.run_id, s))
    if args.out:
        columns = {"run_id": [run_id for run_id, _ in rows]}
        for field in dataclasses.fields(RoundSummary):
            name = "round" if field.name == "round_index" else field.name
            columns[name] = [getattr(s, field.name) for _, s in rows]
        Path(args.out).write_text(format_table("round-report", 1, columns))
        payload = {
            "format": "round-report",
            "version": 1,
            "rows": [dict(run_id=run_id, **dataclasses.asdict(s)) for run_id, s in rows],
        }
        Path(args.out).with_suffix(".json").write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    return EXIT_OK


# --- bench ----------------------------------------------------------------

def cmd_bench(args) -> int:
    for flag, value, low in (("--batch", args.batch, 1), ("--repeats", args.repeats, 1),
                             ("--bench-seed", args.bench_seed, 0)):
        if value < low:
            raise InvalidParamsError(f"{flag} must be >= {low}, got {value}")
    function = _function_from_args(args)
    rng = np.random.default_rng(args.bench_seed)
    tokens = rng.integers(
        0, function.params.vocab_size,
        size=(args.batch, function.params.length), dtype=np.int64,
    )
    print(f"instance {function.params.name} (seed {function.params.seed}), "
          f"batch {args.batch} x {args.repeats} repeats")
    function.evaluate_batch(tokens[:64])  # warm-up
    start = time.perf_counter()
    for _ in range(args.repeats):
        function.evaluate_batch(tokens)
    rate = args.batch * args.repeats / (time.perf_counter() - start)
    print(f"   numpy: {rate:,.0f} seq/s")
    if args.out:
        Path(args.out).write_text(format_table("bench", 1, {
            "backend": ["numpy"],
            "seqs_per_sec": [rate],
        }))
    return EXIT_OK


# --- parser ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehrlich",
        description="Benchmark harness for procedurally generated "
                    "constrained sequence-optimization test functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance document")
    _add_instance_args(p, with_file=False)
    p.add_argument("--v", type=int, default=None, help="vocabulary size")
    p.add_argument("--L", type=int, default=None, help="sequence length")
    p.add_argument("--c", type=int, default=None, help="number of motifs")
    p.add_argument("--k", type=int, default=None, help="motif length")
    p.add_argument("--q", type=int, default=None, help="quantization")
    p.add_argument("--out", metavar="FILE", help="output path (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("eval", help="score a sequence file against an instance")
    p.add_argument("--instance", metavar="FILE", required=True)
    p.add_argument("--sequences", metavar="FILE", required=True)
    p.add_argument("--out", metavar="FILE", help="scored output (default stdout)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("run-ga", help="run the evolutionary baseline")
    _add_instance_args(p)
    _add_seed_args(p)
    _add_ga_args(p)
    p.add_argument("--budget", type=int, required=True,
                   help="total oracle evaluations allowed")
    p.add_argument("--no-early-stop", action="store_true",
                   help="keep running after the optimum is found")
    p.add_argument("--out-dir", metavar="DIR", help=f"record directory "
                   f"(default ${ENV_OUT_DIR} or '.')")
    p.set_defaults(func=cmd_run_ga)

    p = sub.add_parser("run-llome", help="run the bilevel generator loop")
    _add_instance_args(p)
    _add_seed_args(p)
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--evals-per-round", type=int, default=2000)
    p.add_argument("--presolver-rounds", type=int, default=10)
    p.add_argument("--presolver-particles", type=int, default=100,
                   help="population size of the warm-up evolution (default 100)")
    p.add_argument("--seeds-per-round", type=int, default=200)
    p.add_argument("--refine-iters", type=int, default=10)
    p.add_argument("--samples-per-iter", type=int, default=10)
    p.add_argument("--temperatures", default="0.6,0.8,1.0,1.2,1.4,1.6",
                   help="comma-separated sampling temperatures")
    p.add_argument("--likelihood-floor", type=float, default=None,
                   help="minimum proposal probability kept by the filter")
    p.add_argument("--max-infeasible-fraction", type=float, default=0.25)
    p.add_argument("--dataset-mode", choices=("pairs", "triples"), default="pairs")
    p.add_argument("--distance-threshold", type=float, default=0.25)
    p.add_argument("--num-neighbors", type=int, default=30)
    p.add_argument("--mutation-rate", type=float, default=0.05,
                   help="per-position edit rate of the proposal sampler")
    p.add_argument("--out-dir", metavar="DIR")
    p.set_defaults(func=cmd_run_llome)

    p = sub.add_parser("sweep", help="scan one instance axis with the baseline")
    _add_instance_args(p, with_file=False)
    _add_seed_args(p)
    _add_ga_args(p)
    p.add_argument("--axis", choices=tuple(_AXIS_FIELDS), required=True)
    p.add_argument("--values", required=True, metavar="V0,V1,...",
                   help="axis values to scan")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--no-early-stop", action="store_true")
    p.add_argument("--out-dir", metavar="DIR")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="round-level diagnostics from run records")
    p.add_argument("--records", nargs="*", metavar="FILE")
    p.add_argument("--records-dir", metavar="DIR")
    p.add_argument("--out", metavar="FILE", help="also write CSV (+ JSON mirror)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("bench", help="time the scoring kernel")
    _add_instance_args(p)
    p.add_argument("--batch", type=int, default=10000)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--bench-seed", type=int, default=0,
                   help="seed for the random benchmark batch")
    p.add_argument("--out", metavar="FILE", help="write rates as CSV")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except (GeneratorCollapseError, GenerationError, ConvergenceError) as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ABORT
    except (InvalidParamsError, ParseError, ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except FileExistsError as exc:
        print(f"error: refusing to overwrite existing record: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except EhrlichError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except BrokenPipeError:
        # stdout was closed (``| head``): the rest of the output is unwanted,
        # and pointing stdout at devnull keeps the interpreter's final flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
