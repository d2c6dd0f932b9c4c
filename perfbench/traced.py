"""The traced run: per-layer numbers from spans around the package's layers.

One traced run executes, in this process, one round of the named
workload and then one round of each companion workload that is not the
named one; llome-loop and score-pools between them reach every layer. A
per-layer metric is taken from the named workload when its round reaches
that layer, and otherwise from the first companion that does.
``cli.self_s``, ``trace.run_s`` and ``trace.overhead_s`` always describe
the named workload's main command.
"""

from __future__ import annotations

import statistics
import time
import types

import numpy as np

from spans import SpanView, Tracer
from workloads import InProcess, make

COMPANIONS = ("llome-loop", "score-pools")
EVALUATE = ("records.EvalLedger.evaluate_batch", "function.evaluate_batch")


def _rows(result):
    return {"rows": int(result.shape[0]), "feasible": int(np.count_nonzero(result > -np.inf))}


def install(tracer: Tracer) -> None:
    """Wrap each traced name where its caller looks it up.

    ``cli`` imports its solver, record and sequence-file functions by
    name, so those are wrapped in ``ehrlich.cli``; calls between the
    package's own modules go through the defining module's globals.
    """
    from ehrlich import cli, function, ga, llome, proposers, records

    for attr, name in (
        ("generate", "function.generate"),
        ("read_instance", "instance_io.read_instance"),
        ("run_ga", "ga.run_ga"),
        ("run_presolver", "llome.run_presolver"),
        ("run_llome", "llome.run_llome"),
        ("make_run_record", "records.make_run_record"),
        ("write_run_record", "records.write_run_record"),
        ("read_run_record", "records.read_run_record"),
        ("round_summaries", "records.round_summaries"),
        ("parse_sequences", "instance_io.parse_sequences"),
        ("format_sequences", "instance_io.format_sequences"),
    ):
        tracer.wrap(cli, attr, name)
    tracer.wrap(function, "evaluate_batch", "function.evaluate_batch", _rows)
    tracer.wrap(function, "score_batch", "kernels.score_batch", _rows)
    for attr in ("ga_step", "mutate", "recombine"):
        tracer.wrap(ga, attr, f"ga.{attr}")
    tracer.wrap(llome, "run_ga", "ga.run_ga")
    tracer.wrap(llome, "format_dataset", "llome.format_dataset",
                lambda r: {"pairs": r.num_pairs})
    tracer.wrap(llome, "iterative_refinement", "llome.iterative_refinement",
                lambda r: {"generated": r.num_generated, "candidates": len(r)})
    tracer.wrap(llome, "filter_candidates", "llome.filter_candidates")
    tracer.wrap(proposers.MutationProposer, "propose", "proposers.propose")
    tracer.wrap(proposers.MutationProposer, "train", "proposers.train")
    tracer.wrap(records, "unique_flags", "records.unique_flags")
    tracer.wrap(records.RunRecord, "to_csv", "records.to_csv", lambda r: {"bytes": len(r)})
    tracer.wrap(records.RunRecord, "to_json", "records.to_json", lambda r: {"bytes": len(r)})
    for attr in ("evaluate_batch", "tokens", "values", "call_rounds"):
        tracer.wrap(records.EvalLedger, attr, f"records.EvalLedger.{attr}")


def _total(name):
    return lambda v: v.total(name) if v.named(name) else None


def _count(name, key):
    return lambda v: v.count(name, key) if v.named(name) else None


def _kernel_rate(pool):
    def metric(v):
        ids = v.named("kernels.score_batch", f"{v.workload}/pool.{pool}")
        seconds = sum(v.duration(i) for i in ids)
        return v.count("kernels.score_batch", "rows", f"{v.workload}/pool.{pool}") / seconds \
            if ids else None
    return metric


def _step_ms(q):
    def metric(v):
        steps = [v.duration(i) for i in v.named("ga.ga_step")]
        return float(np.percentile(steps, q)) * 1000.0 if steps else None
    return metric


def _evaluate_under(parent):
    def metric(v):
        ids = [i for name in EVALUATE for i in v.named(name) if v.parent_name(i) == parent]
        return sum(v.duration(i) for i in ids) if ids else None
    return metric


def wrapper_cost() -> float:
    """Seconds a traced wrapper adds to one call: the median over five
    repeats of a wrapped empty function's time per call minus a bare
    one's, over 20,000 calls each."""
    calls, repeats = 20_000, 5
    probe = types.SimpleNamespace(call=lambda: None)
    bare = probe.call
    tracer = Tracer()
    tracer.wrap(probe, "call", "probe")
    wrapped = probe.call
    costs = []
    for _ in range(repeats):
        tracer.spans.clear()
        times = []
        for fn in (bare, wrapped):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - start)
        costs.append((times[1] - times[0]) / calls)
    return statistics.median(costs)


def _select(v):
    steps = v.named("ga.ga_step")
    return sum(v.self_time(i) for i in steps) if steps else None


# name -> (unit, better, value from a SpanView or None when the layer was not reached)
LAYER_METRICS = {
    "function.evaluate_batch.s": ("s", "lower", _total("function.evaluate_batch")),
    "function.evaluate_batch.rows": ("count", "higher", _count("function.evaluate_batch", "rows")),
    "function.evaluate_batch.feasible_rows": (
        "count", "higher", _count("function.evaluate_batch", "feasible")),
    "kernels.uniform.seq_per_s": ("seq/s", "higher", _kernel_rate("uniform")),
    "kernels.dmp.seq_per_s": ("seq/s", "higher", _kernel_rate("dmp")),
    "kernels.ga.seq_per_s": ("seq/s", "higher", _kernel_rate("ga")),
    "ga.ga_step.s": ("s", "lower", _total("ga.ga_step")),
    "ga.ga_step.p50_ms": ("ms", "lower", _step_ms(50)),
    "ga.ga_step.p99_ms": ("ms", "lower", _step_ms(99)),
    "ga.evaluate.s": ("s", "lower", _evaluate_under("ga.ga_step")),
    "ga.select.s": ("s", "lower", _select),
    "ga.recombine.s": ("s", "lower", _total("ga.recombine")),
    "ga.mutate.s": ("s", "lower", _total("ga.mutate")),
    "llome.run_presolver.s": ("s", "lower", _total("llome.run_presolver")),
    "llome.format_dataset.s": ("s", "lower", _total("llome.format_dataset")),
    "llome.format_dataset.pairs": ("count", "higher", _count("llome.format_dataset", "pairs")),
    "llome.train.s": ("s", "lower", _total("proposers.train")),
    "llome.iterative_refinement.s": ("s", "lower", _total("llome.iterative_refinement")),
    "proposers.propose.s": ("s", "lower", _total("proposers.propose")),
    "llome.refine.generated": ("count", "lower", _count("llome.iterative_refinement", "generated")),
    "llome.refine.candidates": (
        "count", "higher", _count("llome.iterative_refinement", "candidates")),
    "llome.filter_candidates.s": ("s", "lower", _total("llome.filter_candidates")),
    "llome.label.s": ("s", "lower", _evaluate_under("llome.run_llome")),
    "records.make_run_record.s": ("s", "lower", _total("records.make_run_record")),
    "records.unique_flags.s": ("s", "lower", _total("records.unique_flags")),
    "records.to_csv.s": ("s", "lower", _total("records.to_csv")),
    "records.to_json.s": ("s", "lower", _total("records.to_json")),
    "records.write_run_record.s": ("s", "lower", _total("records.write_run_record")),
    "records.csv_bytes": ("bytes", "lower", _count("records.to_csv", "bytes")),
    "records.json_bytes": ("bytes", "lower", _count("records.to_json", "bytes")),
    "records.read_run_record.s": ("s", "lower", _total("records.read_run_record")),
    "records.round_summaries.s": ("s", "lower", _total("records.round_summaries")),
    "instance_io.parse_sequences.s": ("s", "lower", _total("instance_io.parse_sequences")),
    "instance_io.format_sequences.s": ("s", "lower", _total("instance_io.format_sequences")),
}
# Measured on the named workload's main command only.
COMMAND_METRICS = {
    "cli.self_s": ("s", "lower"),
    "trace.run_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def traced_run(name: str, work, seed: int) -> dict:
    order = (name, *(w for w in COMPANIONS if w != name))
    workloads = {}
    for w in order:
        (work / w).mkdir()
        workloads[w] = make(w)
        workloads[w].setup(work / w, seed)

    primary = workloads[name]
    tracer = Tracer()
    install(tracer)
    try:
        rounds = {w: workloads[w].round(1, InProcess(w, tracer), full=(w == name)) for w in order}
    finally:
        tracer.unwrap_all()

    problems = []
    for w in order:
        problems += workloads[w].analyse([rounds[w]])[1]

    views = {w: SpanView(tracer.spans, w) for w in order}
    metrics = {}
    for metric, (_, _, value) in LAYER_METRICS.items():
        metrics[metric] = next((x for x in (value(views[w]) for w in order) if x is not None), None)

    view = views[name]
    main = view.named("cli.main", f"{name}/{primary.main_step}")[0]
    metrics["cli.self_s"] = view.self_time(main)
    metrics["trace.run_s"] = view.duration(main)
    self_by_layer = {}
    spans_under_main = 0
    for i in view.ids:
        if i != main and view.under(i, main):
            layer = tracer.spans[i][0].split(".")[0]
            self_by_layer[layer] = self_by_layer.get(layer, 0.0) + view.self_time(i)
            spans_under_main += 1
    cost = wrapper_cost()
    metrics["trace.overhead_s"] = cost * spans_under_main
    return {
        "metrics": metrics,
        "self_s_by_layer": dict(self_by_layer, cli=metrics["cli.self_s"]),
        "spans_under_main": spans_under_main,
        "wrapper_cost_s": cost,
        "attempted": rounds[name].ops.attempted,
        "failed": rounds[name].ops.failed,
        "problems": problems,
        "tracer": tracer,
    }
