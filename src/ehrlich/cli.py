"""Command-line benchmark harness.

Subcommands cover the whole workflow: ``gen`` materializes a test
function as a text document, ``eval`` scores a sequence file against
one, ``run-ga`` and ``run-llome`` execute the solvers and persist
per-evaluation run records, ``sweep`` scans one instance axis with the
evolutionary baseline, and ``report`` rebuilds round-level diagnostics
from stored records. Every solver run goes through one driver,
``_execute``: it owns the run's oracle ledger, its timer, its record and
every file the run writes.

Exit codes: 0 on success, 2 for invalid input (bad parameters, malformed
files, missing paths, output paths that cannot be written), 3 when a
solver aborts mid-run. Run files go to ``--out-dir`` when given, else
the ``EHRLICH_OUT_DIR`` environment variable, else the working
directory.
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
from .function import NAME_FIELDS, EhrlichParams, generate, regret_of_value
from .ga import GAConfig, run_ga
from .instance_io import (
    format_sequences,
    parse_sequences,
    read_instance,
    read_text,
    serialize_instance,
    write_text,
)
from .llome import DATASET_MODES, LoopConfig, run_llome, run_presolver
from .proposers import baseline_mutation_proposer
from .records import (
    EvalLedger,
    ParetoReport,
    RegretCurve,
    RoundSummary,
    RunRecord,
    make_run_record,
    new_record_paths,
    read_run_record,
    round_summaries,
    write_run_record,
)
from .tables import format_table, is_table

ENV_OUT_DIR = "EHRLICH_OUT_DIR"

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_SOLVER_ABORT = 3


def _slug(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-")


def _out_dir(args) -> Path:
    """The run directory; refused before any run if it, or the nearest of its
    parents that exists, is not a directory."""
    path = Path(args.out_dir or os.environ.get(ENV_OUT_DIR) or ".")
    for existing in (path, *path.parents):
        if existing.exists():
            if not existing.is_dir():
                blocker = "" if existing == path else f" ({existing} is a file)"
                raise InvalidParamsError(f"output path is not a directory: {path}{blocker}")
            break
    return path


def _output_file(name: str) -> Path:
    """``name`` as a file path that can be written, else an InvalidParamsError."""
    path = Path(name)
    if path.is_dir():
        raise InvalidParamsError(f"output file is a directory: {path}")
    if not path.parent.is_dir():
        raise InvalidParamsError(f"output file's parent is not a directory: {path}")
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
    return {name: getattr(args, name)
            for name in ("feasible_fraction", "epistasis_factor", "softmax_temperature")
            if getattr(args, name) is not None}


def _named_params(args) -> EhrlichParams:
    """The ``--name`` instance at ``--instance-seed``, with the optional overrides."""
    return EhrlichParams.from_name(args.name, seed=args.instance_seed, **_param_overrides(args))


def _input_path(name: str, what: str) -> Path:
    """``name`` as a path to an existing file, else an InvalidParamsError."""
    path = Path(name)
    if not path.exists():
        raise InvalidParamsError(f"{what} not found: {path}")
    if path.is_dir():
        raise InvalidParamsError(f"{what} is a directory: {path}")
    return path


def _function_from_args(args):
    if args.instance:
        return read_instance(_input_path(args.instance, "instance file"))
    if args.name:
        return generate(_named_params(args))
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
    parser.add_argument("--particles", type=int, default=GAConfig.num_particles,
                        help="population size per step (default %(default)s)")
    parser.add_argument("--survival-quantile", type=float, default=GAConfig.survival_quantile,
                        help="top quantile kept each step (default %(default)s)")
    parser.add_argument("--mutation-prob", type=float, default=GAConfig.mutation_prob,
                        help="per-position mutation probability (default %(default)s)")
    parser.add_argument("--recombination-prob", type=float, default=GAConfig.recombination_prob,
                        help="per-position crossover probability (default %(default)s)")


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
    out = _output_file(args.out) if args.out else None
    if args.name:
        params = _named_params(args)
    else:
        missing = [f"--{short}" for short in NAME_FIELDS if getattr(args, short) is None]
        if missing:
            raise InvalidParamsError(
                f"provide --name or all of {'/'.join(f'--{short}' for short in NAME_FIELDS)} "
                f"(missing {', '.join(missing)})"
            )
        params = EhrlichParams(
            **{field: getattr(args, short) for short, field in NAME_FIELDS.items()},
            seed=args.instance_seed, **_param_overrides(args),
        )
    document = serialize_instance(generate(params))
    if out:
        write_text(out, document)
        print(f"wrote {params.name} (seed {params.seed}) to {out}", file=sys.stderr)
    else:
        sys.stdout.write(document)
    return EXIT_OK


# --- eval -----------------------------------------------------------------

def cmd_eval(args) -> int:
    out = _output_file(args.out) if args.out else None
    function = read_instance(_input_path(args.instance, "instance file"))
    path = _input_path(args.sequences, "sequence file")
    tokens, _ = parse_sequences(
        read_text(path, "sequence file"), function.params.length, function.params.vocab_size
    )
    if tokens.shape[0] == 0:
        raise InvalidParamsError(f"sequence file is empty: {path}")
    values = function.evaluate_batch(tokens)
    scored = format_sequences(tokens, values)
    if out:
        write_text(out, scored)
    else:
        sys.stdout.write(scored)
    best = float(values.max())
    print(
        f"scored {tokens.shape[0]} sequences on {function.params.name}: "
        f"best={best:g} min_regret={regret_of_value(best):g}",
        file=sys.stderr,
    )
    return EXIT_OK


# --- runs ---------------------------------------------------------------

def _execute(function, run_id: str, solver: str, config: dict, solve,
             out_dir: Path) -> RunRecord:
    """Run one solver, write the run's record, JSON mirror and regret curve,
    and return the record.

    ``solve(ledger)`` scores every batch through ``ledger`` and returns
    ``(presolver_calls, result)``: the first ``presolver_calls`` batches
    are round 0 and each later batch is its own round; ``result`` is the
    loop's ``LoopResult``, also written as ``<run_id>.rounds.json``, or None.
    A run whose record exists in ``out_dir`` is refused before it starts.
    """
    new_record_paths(out_dir, run_id)
    ledger = EvalLedger(function)
    start = time.perf_counter()
    presolver_calls, result = solve(ledger)
    duration = time.perf_counter() - start
    values, unique, rounds = ledger.values(), ledger.unique(), ledger.call_rounds()
    del ledger  # its distinct-row table is not needed to build or write the record
    rounds -= presolver_calls - 1
    np.maximum(rounds, 0, out=rounds)
    record = make_run_record(run_id, function.params.name, function.params.seed, solver, config,
                             values=values, rounds=rounds, duration_seconds=duration,
                             unique=unique)
    csv_path = write_run_record(record, out_dir)
    write_text(csv_path.with_suffix(".curve.csv"), RegretCurve.from_record(record).to_csv())
    if result is not None:
        stats_payload = {
            "format": "round-stats",
            "version": 1,
            "run_id": run_id,
            "presolver_evals": result.presolver_evals,
            "presolver_min_regret": result.presolver_min_regret,
            "rounds": [dataclasses.asdict(stats) for stats in result.rounds],
        }
        write_text(csv_path.with_suffix(".rounds.json"),
                   json.dumps(stats_payload, indent=2) + "\n")
    return record


def _execute_ga(function, args, seed: int, run_id: str, out_dir: Path) -> RunRecord:
    """One evolutionary-baseline run of ``run-ga`` or ``sweep``."""
    config = _ga_config(args, seed)

    def solve(ledger):
        # the initial population is round 0 and each step its own round
        run_ga(ledger, config, budget=args.budget, stop_on_optimum=not args.no_early_stop)
        return 1, None

    record = _execute(function, run_id, "ga", dict(dataclasses.asdict(config), budget=args.budget),
                      solve, out_dir)
    if record.num_evals > args.budget:
        raise GenerationError(
            f"run {run_id} exceeded the budget: {record.num_evals} > {args.budget}"
        )
    return record


# --- run-ga ---------------------------------------------------------------

def cmd_run_ga(args) -> int:
    function = _function_from_args(args)
    out_dir = _out_dir(args)
    slug = _slug(function.params.name)
    for seed in _run_seeds(args):
        run_id = f"ga-{slug}-i{function.params.seed}-s{seed}"
        _print_run(_execute_ga(function, args, seed, run_id, out_dir))
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

        def solve(ledger):
            # the presolver's batches are round 0; the loop scores one batch per round
            presolved = run_presolver(ledger, ga_config, config.presolver_rounds)
            presolver_calls = ledger.num_calls
            return presolver_calls, run_llome(ledger, proposer, config, presolved)

        run_id = f"llome-{slug}-i{function.params.seed}-s{seed}"
        _print_run(_execute(function, run_id, "llome-baseline", dict(
            dataclasses.asdict(config),
            presolver_particles=args.presolver_particles,
            mutation_rate=args.mutation_rate,
        ), solve, out_dir))
    return EXIT_OK


# --- sweep ----------------------------------------------------------------

def _checkpoints(budget: int, count: int = 10) -> list[int]:
    return sorted({max(1, budget * i // count) for i in range(1, count + 1)})


def cmd_sweep(args) -> int:
    if not args.name:
        raise InvalidParamsError("sweep needs --name as the base instance")
    field = NAME_FIELDS[args.axis]
    values = _parse_int_list(args.values, "--values")
    if not values:
        raise InvalidParamsError("--values must list at least one integer")
    base = _named_params(args)
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
            record = _execute_ga(function, args, seed, run_id, out_dir)
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
    write_text(table_path, table)

    report = ParetoReport.from_arrays(
        labels=[f"{args.axis}={value}" for value in values for _ in marks],
        budgets=[float(mark) for _ in values for mark in marks],
        regrets=[float(medians[value][row]) for value in values
                 for row in range(len(marks))],
    )
    pareto_path = out_dir / f"sweep-{args.axis}-pareto.csv"
    write_text(pareto_path, report.to_csv())

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
    out = _output_file(args.out) if args.out else None
    if out:
        _output_file(out.with_suffix(".json"))
    paths = [_input_path(p, "record file") for p in args.records or []]
    if args.records_dir:
        directory = Path(args.records_dir)
        if not directory.is_dir():
            state = "is not a directory" if directory.exists() else "not found"
            raise InvalidParamsError(f"records directory {state}: {directory}")
        # The output directory also holds curve/sweep CSVs; take only
        # files that identify themselves as run records.
        paths += [path for path in sorted(directory.glob("*.csv"))
                  if path.is_file() and is_table(path, "run-record")]
    if not paths:
        raise InvalidParamsError(f"no run records in {args.records_dir}" if args.records_dir
                                 else "provide record files or --records-dir")
    rows = []
    for path in paths:
        record = read_run_record(path)
        print(
            f"run {record.run_id}: solver={record.solver} "
            f"instance={record.instance_name} (seed {record.instance_seed}) "
            f"evals={record.num_evals} duration={record.duration_seconds:.3f}s "
            f"final_regret={record.min_regret:g}"
        )
        print(f"  {'round':>5} {'evals':>6} {'unique%':>8} {'feasible%':>9} "
              f"{'mean_margin':>11} {'max_margin':>10} {'min_regret':>10}")
        for s in round_summaries(record):
            print(f"  {s.round_index:>5} {s.num_evals:>6} {s.unique_pct:>8.1f} "
                  f"{s.feasible_pct:>9.1f} {s.mean_margin_reward:>11.4g} "
                  f"{s.max_margin_reward:>10.4g} {s.min_regret:>10.4g}")
            rows.append((record.run_id, s))
    if out:
        columns = {"run_id": [run_id for run_id, _ in rows]}
        for field in dataclasses.fields(RoundSummary):
            name = "round" if field.name == "round_index" else field.name
            columns[name] = [getattr(s, field.name) for _, s in rows]
        write_text(out, format_table("round-report", 1, columns))
        payload = {
            "format": "round-report",
            "version": 1,
            "rows": [dict(run_id=run_id, **dataclasses.asdict(s)) for run_id, s in rows],
        }
        write_text(out.with_suffix(".json"), json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out}", file=sys.stderr)
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
    for short, field in NAME_FIELDS.items():
        p.add_argument(f"--{short}", type=int, default=None,
                       help=f"{field.replace('_', ' ')}, the {short} of Ehr(v,L)-c-k-q")
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
    p.add_argument("--rounds", type=int, default=LoopConfig.rounds)
    p.add_argument("--evals-per-round", type=int, default=LoopConfig.evals_per_round)
    p.add_argument("--presolver-rounds", type=int, default=LoopConfig.presolver_rounds)
    p.add_argument("--presolver-particles", type=int, default=100,
                   help="population size of the warm-up evolution (default %(default)s)")
    p.add_argument("--seeds-per-round", type=int, default=LoopConfig.seeds_per_round)
    p.add_argument("--refine-iters", type=int, default=LoopConfig.refine_iters)
    p.add_argument("--samples-per-iter", type=int, default=LoopConfig.samples_per_iter)
    p.add_argument("--temperatures", default=",".join(map(str, LoopConfig.base_temperatures)),
                   help="comma-separated sampling temperatures")
    p.add_argument("--likelihood-floor", type=float, default=LoopConfig.likelihood_floor,
                   help="minimum proposal probability kept by the filter")
    p.add_argument("--max-infeasible-fraction", type=float,
                   default=LoopConfig.max_infeasible_fraction)
    p.add_argument("--dataset-mode", choices=DATASET_MODES, default=LoopConfig.dataset_mode)
    p.add_argument("--distance-threshold", type=float, default=LoopConfig.distance_threshold)
    p.add_argument("--num-neighbors", type=int, default=LoopConfig.num_neighbors)
    p.add_argument("--mutation-rate", type=float, default=0.05,
                   help="per-position edit rate of the proposal sampler")
    p.add_argument("--out-dir", metavar="DIR")
    p.set_defaults(func=cmd_run_llome)

    p = sub.add_parser("sweep", help="scan one instance axis with the baseline")
    _add_instance_args(p, with_file=False)
    _add_seed_args(p)
    _add_ga_args(p)
    p.add_argument("--axis", choices=tuple(NAME_FIELDS), required=True)
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
