"""Misuse of the token entry points raises ``InvalidParamsError``.

Every exported callable that takes token rows goes through the one
token check, ``function.as_tokens``. ``ENTRIES`` calls each with one bad
token array at a time, built from a valid input, and expects a typed
error. ``test_every_token_entry_point_is_in_the_table`` fails when an
exported callable takes a token argument but has no entry here, so a
new entry point declares its misuse cases when it is added.
"""

import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

import ehrlich
from ehrlich import (
    CandidateSet,
    DiscretePolicy,
    EhrlichParams,
    GAConfig,
    InvalidParamsError,
    LoopConfig,
    LossBatch,
    MutationProposer,
    PresolverData,
    RefinementDataset,
    RegretCurve,
    ScoredSequence,
    ScoredSet,
    StdioProposer,
    adjust_temperatures,
    baseline_mutation_proposer,
    boltzmann_target,
    config_hash,
    dpo_loss,
    evaluate,
    evaluate_batch,
    filter_candidates,
    format_dataset,
    generate,
    is_feasible,
    iterative_refinement,
    kl_divergence,
    make_run_record,
    margin_reward,
    marge_loss,
    motif_score,
    mutate,
    read_instance,
    read_pareto_report,
    read_regret_curve,
    read_run_record,
    read_run_record_json,
    recombine,
    regret,
    response,
    run_ga,
    sample_dmp,
    solve_frekl,
    unique_flags,
)
from ehrlich.losses import dpo_loss_from_logits, dpo_loss_grad, marge_loss_grad

FUNCTION = generate(EhrlichParams.from_name("Ehr(4,16)-2-2-2", seed=1))
V, L = FUNCTION.params.vocab_size, FUNCTION.params.length
ROW = FUNCTION.optimum
BATCH = np.stack([ROW, ROW, np.roll(ROW, 1)])
PROPOSER = baseline_mutation_proposer(0.1, V, L)
LOSS_BATCH = LossBatch(x_ids=[0, 0], y_ids=[0, 1], log_pi_theta=[-0.5, -1.0],
                       log_pi_ref=[-0.7, -0.7], rewards=[0.3, 0.1], lengths=[1, 2])
CONFIG = LoopConfig(seeds_per_round=2, refine_iters=1, samples_per_iter=2,
                    base_temperatures=(1.0,))
N = len(BATCH)


def _record(**overrides):
    return make_run_record(**{**dict(
        run_id="r", instance_name=FUNCTION.params.name, instance_seed=1, solver="ga",
        config={}, values=[0.5], rounds=[0], duration_seconds=1.0, unique=[True]),
        **overrides})


def _with(good, token):
    bad = np.array(good)
    bad[..., -1] = token
    return bad


def _ragged(good):
    rows = good.tolist()
    if good.ndim == 1:
        return [rows[0], rows[:2]] + rows[2:]
    return rows[:-1] + [rows[-1][:-1]]


# Each case turns a valid token input into a bad one of the same rank,
# apart from "wrong ndim", which adds one axis.
CASES = {
    "float": lambda good: good + 0.5,
    "float, integral": lambda good: good.astype(np.float64),
    "bool": lambda good: good % 2 == 1,
    "object": lambda good: good.astype(object),
    "string": lambda good: "abc",
    "digit strings": lambda good: good.astype(str),
    "ragged": _ragged,
    "negative": lambda good: _with(good, -1),
    ">= v": lambda good: _with(good, V),
    "wrong ndim": lambda good: good[None],
    "wrong length": lambda good: good[..., :-1],
}
# An entry that knows no instance checks neither range nor length: its
# tokens keep their dtype, and format_dataset accepts any integer tokens.
NO_INSTANCE = frozenset({"negative", ">= v", "wrong length"})
NO_LENGTH = frozenset({"wrong length"})


@dataclass(frozen=True)
class Entry:
    name: str
    good: np.ndarray
    call: Callable
    not_applicable: frozenset = frozenset()


def _candidates(tokens):
    return CandidateSet(tokens, np.zeros(N), np.arange(N), np.zeros(N))


ENTRIES = [
    Entry("evaluate_batch", BATCH, lambda t: evaluate_batch(FUNCTION, t)),
    Entry("EhrlichFunction.evaluate_batch", BATCH, lambda t: FUNCTION.evaluate_batch(t)),
    Entry("evaluate", ROW, lambda t: evaluate(FUNCTION, t)),
    Entry("regret", ROW, lambda t: regret(FUNCTION, t)),
    Entry("is_feasible", ROW, lambda t: is_feasible(t, FUNCTION.transition), NO_LENGTH),
    Entry("mutate", BATCH, lambda t: mutate(t, 0.1, 2, V, seed=0), NO_LENGTH),
    Entry("mutate, per-position probability", BATCH,
          lambda t: mutate(t, np.full(L, 0.1), 2, V, seed=0)),
    Entry("recombine", BATCH, lambda t: recombine(t, 0.5, 4, seed=0), NO_INSTANCE),
    Entry("MutationProposer.propose", BATCH, lambda t: PROPOSER.propose(t, 1.0, 2, seed=0)),
    Entry("MutationProposer.score_likelihood inputs", BATCH,
          lambda t: PROPOSER.score_likelihood(t, BATCH)),
    Entry("MutationProposer.score_likelihood outputs", BATCH,
          lambda t: PROPOSER.score_likelihood(BATCH, t)),
    Entry("ScoredSet", BATCH, lambda t: ScoredSet(t, np.zeros(N)), NO_INSTANCE),
    Entry("ScoredSequence", ROW, lambda t: ScoredSequence(t, 0.0), NO_INSTANCE),
    Entry("CandidateSet", BATCH, _candidates, NO_INSTANCE),
    Entry("RefinementDataset", BATCH,
          lambda t: RefinementDataset(t, np.zeros((0, 2), np.int32), np.zeros((0, 3), np.int32)),
          NO_INSTANCE),
    Entry("PresolverData", BATCH, lambda t: PresolverData(ScoredSet(t, np.zeros(N))),
          NO_INSTANCE),
    Entry("format_dataset", BATCH, lambda t: format_dataset(ScoredSet(t, np.arange(N) / N)),
          NO_INSTANCE),
    # the seeds reach the proposer, which knows the instance
    Entry("iterative_refinement", BATCH,
          lambda t: iterative_refinement(PROPOSER, ScoredSet(t, np.arange(N) / N), CONFIG)),
    Entry("filter_candidates", BATCH,
          lambda t: filter_candidates(_candidates(t), FUNCTION.transition.mask, 10,
                                      -math.inf, 0.25),
          NO_LENGTH),
]

# Exported callables that take tokens but stay outside the token check on purpose.
EXEMPT = {
    "motif_score": "the exact-rational reference, int64 by design",
    "motif_product": "the exact-rational reference, int64 by design",
    "unique_flags": "compares row bytes of any array; the ledger passes checked rows",
    "make_run_record": "its tokens only feed unique_flags",
}
TOKEN_ARGUMENTS = {"tokens", "sequences", "survivors", "scored", "candidates"}


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda entry: entry.name)
def test_valid_input_is_accepted(entry):
    entry.call(entry.good)


@pytest.mark.parametrize("entry, case", [
    (entry, case) for entry in ENTRIES for case in CASES if case not in entry.not_applicable
], ids=lambda value: value.name if isinstance(value, Entry) else value)
def test_bad_tokens_raise_invalid_params(entry, case):
    with pytest.raises(InvalidParamsError):
        entry.call(CASES[case](entry.good))


def test_every_token_entry_point_is_in_the_table():
    covered = {entry.name for entry in ENTRIES}
    missing = []
    for name in ehrlich.__all__:
        obj = getattr(ehrlich, name)
        try:
            parameters = inspect.signature(obj).parameters if callable(obj) else {}
        except (TypeError, ValueError):  # exception classes have no signature
            continue
        if TOKEN_ARGUMENTS & set(parameters) and name not in covered | set(EXEMPT):
            missing.append(name)
    assert missing == []


@pytest.mark.parametrize("call", [
    lambda: mutate(BATCH, 0.1, -1, V, seed=0),
    lambda: mutate(BATCH, 0.1, 1.5, V, seed=0),
    lambda: mutate(BATCH, 0.1, 2, 0, seed=0),
    lambda: mutate(BATCH, np.full(3, 0.1), 2, V, seed=0),
    lambda: mutate(BATCH, 2.0, 2, V, seed=0),
    lambda: mutate(BATCH, math.nan, 2, V, seed=0),
    lambda: mutate(BATCH, "0.1", 2, V, seed=0),
    lambda: mutate(BATCH, 0.1, 2, V, seed=1.5),
    lambda: recombine(BATCH, 0.5, -1, seed=0),
    lambda: recombine(BATCH, math.nan, 4, seed=0),
    lambda: recombine(BATCH, True, 4, seed=0),
    lambda: PROPOSER.propose(BATCH, 1.0, -1, seed=0),
    lambda: PROPOSER.propose(BATCH, -1.0, 2, seed=0),
    lambda: PROPOSER.propose(BATCH, math.inf, 2, seed=0),
    lambda: PROPOSER.score_likelihood(BATCH, BATCH, -1.0),
    lambda: LoopConfig(base_temperatures=(1.0, math.inf)),
    lambda: LoopConfig(base_temperatures=("1.0",)),
    lambda: LoopConfig(base_temperatures=1.0),
    lambda: LoopConfig(likelihood_floor="0.5"),
    lambda: LoopConfig(max_infeasible_fraction="0.5"),
    lambda: GAConfig(survival_quantile="0.1"),
    lambda: run_ga(FUNCTION, GAConfig(num_particles=20), budget=25.5),
    lambda: margin_reward(np.zeros(3), np.zeros(2)),
    lambda: kl_divergence([1.5, -0.5], [0.5, 0.5]),
    lambda: format_dataset(ScoredSet(BATCH, [0.5, math.nan, 0.25])),
    lambda: ScoredSet(BATCH, np.full(N, math.nan)),
    lambda: StdioProposer([], V, L),
    lambda: config_hash(None),
    lambda: EhrlichParams.from_name(5),
    lambda: margin_reward("a", 1),
    lambda: RegretCurve.from_values(np.array(["a", "b"])),
    lambda: sample_dmp(FUNCTION.transition, 2.5, 0),
    lambda: unique_flags(BATCH, set()),
    lambda: unique_flags(BATCH, {}, first=np.empty(N + 1, dtype=np.int64)),
    lambda: response(2.0, 0),
    lambda: adjust_temperatures(("a",), 0.0),
    lambda: dpo_loss([0.1], [0.2], beta=-1.0),
    lambda: dpo_loss([0.1], [0.2], beta=math.inf),
    lambda: marge_loss(LOSS_BATCH, beta=-2.0),
    lambda: marge_loss(LOSS_BATCH, beta=math.nan),
    lambda: marge_loss(LOSS_BATCH, lam=-1.0),
    lambda: marge_loss_grad([0.0, 0.0], [-0.7, -0.7], [0, 1], [0.3, 0.1], lam=math.inf),
    lambda: dpo_loss_from_logits([0.0, 0.0], [-0.7, -0.7], [0], [1], beta=-1.0),
    lambda: dpo_loss_grad([0.0, 0.0], [-0.7, -0.7], [0], [1], beta=math.nan),
    lambda: boltzmann_target([0.0, 1.0], beta=-1.0),
    lambda: adjust_temperatures(1.0, 0.0),
    lambda: response("a", 0),
    lambda: response(np.array([0.5, 0.2]), 0),
    lambda: motif_score(ROW, FUNCTION.motifs.motifs[0], FUNCTION.motifs.offsets[0], 0),
    lambda: EhrlichParams(4, 16, 2, 2, 2, epistasis_factor="0.5"),
    lambda: EhrlichParams(4, 16, 2, 2, 2, softmax_temperature="1.0"),
    lambda: EhrlichParams(4, 16, 2, 2, 2, feasible_fraction="0.75"),
    lambda: MutationProposer("x", V, L),
    lambda: _record(duration_seconds="x"),
    lambda: _record(instance_seed="a"),
    lambda: DiscretePolicy.uniform(2.5),
    lambda: solve_frekl([0.5, 0.5], [0.5, 0.5], 1.0, max_iters=2.5),
], ids=["mutate n_per=-1", "mutate n_per=1.5", "mutate vocab_size=0",
        "mutate (3,) probability for L=16", "mutate p=2", "mutate p=NaN", "mutate p='0.1'",
        "mutate seed=1.5", "recombine count=-1", "recombine p=NaN", "recombine p=True",
        "propose count=-1", "propose temperature=-1", "propose temperature=inf",
        "score_likelihood temperature=-1", "LoopConfig temperature=inf",
        "LoopConfig temperature='1.0'", "LoopConfig base_temperatures=1.0",
        "LoopConfig likelihood_floor='0.5'", "LoopConfig max_infeasible_fraction='0.5'",
        "GAConfig survival_quantile='0.1'",
        "run_ga budget=25.5", "margin_reward (3,) against (2,)",
        "kl_divergence of a negative vector", "format_dataset on a NaN value",
        "ScoredSet of NaN values", "StdioProposer with an empty argv",
        "config_hash of None", "EhrlichParams.from_name of an int",
        "margin_reward of a string", "RegretCurve.from_values of strings",
        "sample_dmp length=2.5", "unique_flags with a set for seen",
        "unique_flags with a first= of the wrong length",
        "response to a presence of 2", "adjust_temperatures of a string base",
        "dpo_loss beta=-1", "dpo_loss beta=inf", "marge_loss beta=-2", "marge_loss beta=NaN",
        "marge_loss lam=-1", "marge_loss_grad lam=inf", "dpo_loss_from_logits beta=-1",
        "dpo_loss_grad beta=NaN", "boltzmann_target beta=-1",
        "adjust_temperatures of a float base", "response to a string presence",
        "response to an array presence", "motif_score quantization=0",
        "EhrlichParams epistasis_factor='0.5'", "EhrlichParams softmax_temperature='1.0'",
        "EhrlichParams feasible_fraction='0.75'", "MutationProposer mutation_rate='x'",
        "make_run_record duration_seconds='x'", "make_run_record instance_seed='a'",
        "DiscretePolicy.uniform of 2.5", "solve_frekl max_iters=2.5"])
def test_bad_parameters_raise_invalid_params(call):
    with pytest.raises(InvalidParamsError):
        call()


@pytest.mark.parametrize("read, what", [
    (read_instance, "instance document"),
    (read_run_record, "run record"),
    (read_run_record_json, "run-record JSON"),
    (read_regret_curve, "regret curve"),
    (read_pareto_report, "pareto report"),
], ids=lambda x: getattr(x, "__name__", None))
@pytest.mark.parametrize("kind", ["missing", "directory", "under a file"])
def test_reading_a_path_that_is_not_a_file_raises_invalid_params(tmp_path, read, what, kind):
    (tmp_path / "file").write_text("text\n")
    path, message = {"missing": (tmp_path / "missing", "not found"),
                     "directory": (tmp_path, "is a directory"),
                     "under a file": (tmp_path / "file" / "x", "not found")}[kind]
    with pytest.raises(InvalidParamsError) as raised:
        read(path)
    assert str(raised.value) == f"{what} {message}: {path}"
