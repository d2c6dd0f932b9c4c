"""Genetic-algorithm baseline solver.

One step scores the whole population, updates the incumbent, keeps the
top survival-quantile particles, refills by recombination, and applies
a mutation pass to the entire refilled population (survivors included;
the incumbent record itself is preserved separately).

All randomness draws from substreams keyed by (seed, domain, step,
phase), so results are independent of evaluation order and worker
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import require, require_counts, require_integers, require_probability, require_seed
from .function import ScoredSequence, as_tokens, incumbent_of

PHASE_MUTATE = 0
PHASE_RECOMBINE = 1


@dataclass(frozen=True)
class GAConfig:
    num_particles: int = 1000
    survival_quantile: float = 0.1
    mutation_prob: float = 0.005
    recombination_prob: float = 0.0882
    seed: int = 0

    def __post_init__(self) -> None:
        n = self.num_particles
        alpha = self.survival_quantile
        require_counts(2, num_particles=n)
        require_probability("survival_quantile", alpha)
        require(alpha < 1, f"survival_quantile must be < 1, got {alpha}")
        require(alpha * n >= 2,
                f"survival_quantile * num_particles must be >= 2, got {alpha * n:.3g}")
        require_probability("mutation_prob", self.mutation_prob)
        require_probability("recombination_prob", self.recombination_prob)
        require_seed(self.seed)


@dataclass(frozen=True)
class GAState:
    """Solver state between steps; new instances are returned, never mutated."""

    population: np.ndarray
    incumbent: ScoredSequence
    evals_used: int
    step: int
    history: tuple = field(default_factory=tuple)


def mutate(sequences, mutation_prob, n_per: int, vocab_size: int,
           seed: rng.SeedLike) -> np.ndarray:
    """Emit n_per variants per input sequence, each input's in a row.

    Each position is independently replaced with probability
    mutation_prob (a scalar, or one per position as an (L,) array) by a
    uniform draw over [0, vocab_size); the draw may equal the original
    token, so the realized change rate is mutation_prob * (1 - 1/vocab_size).
    Both solvers draw here; int64 draws are cast into ``token_dtype(vocab_size)``.
    """
    require_counts(0, n_per=n_per)
    require_counts(1, vocab_size=vocab_size)
    sequences = np.atleast_2d(as_tokens(sequences, vocab_size, ndims=(1, 2)))
    require_probability("mutation_prob", mutation_prob, sequences.shape[1])
    gen = rng.substream(seed)
    tiled = np.repeat(sequences, n_per, axis=0)
    fire = gen.random(tiled.shape) < mutation_prob
    replacements = gen.integers(0, vocab_size, size=tiled.shape)
    np.copyto(tiled, replacements, where=fire, casting="unsafe")
    return tiled


def recombine(survivors, recombination_prob: float, count: int,
              seed: rng.SeedLike) -> np.ndarray:
    """Draw `count` children from two parent lists sampled with replacement.

    A Bernoulli(recombination_prob) mask picks parent 1's token per
    position, parent 2's otherwise. Children keep the survivors' dtype.
    """
    survivors = np.atleast_2d(as_tokens(survivors, None, ndims=(1, 2)))
    require_counts(0, count=count)
    require_probability("recombination_prob", recombination_prob)
    require(survivors.shape[0] >= 1, "recombine requires at least one survivor")
    gen = rng.substream(seed)
    num = survivors.shape[0]
    first = survivors[gen.integers(0, num, size=count)]
    second = survivors[gen.integers(0, num, size=count)]
    take_first = gen.random(first.shape) < recombination_prob
    return np.where(take_first, first, second)


def survival_threshold(values: np.ndarray, survival_quantile: float) -> float:
    """Nearest-rank quantile at level (1 - alpha): the ceil((1-alpha)*n)-th
    smallest value. Every particle with value >= threshold survives."""
    n = values.shape[0]
    rank = math.ceil((1.0 - survival_quantile) * n)
    rank = min(max(rank, 1), n)
    return float(np.partition(values, rank - 1)[rank - 1])


def init_ga(function, config: GAConfig) -> GAState:
    """Score the instance's starting sequence and spawn the population from it."""
    x0 = as_tokens(function.initial_solution()[None, :], function.params.vocab_size)
    incumbent = incumbent_of(x0, function.evaluate_batch(x0))
    population = mutate(
        x0,
        config.mutation_prob,
        config.num_particles,
        function.params.vocab_size,
        (config.seed, rng.DOMAIN_GA, 0, PHASE_MUTATE),
    )
    return GAState(
        population=population,
        incumbent=incumbent,
        evals_used=1,
        step=0,
    )


def ga_step(state: GAState, function, config: GAConfig) -> GAState:
    values = function.evaluate_batch(state.population)
    evals_used = state.evals_used + values.shape[0]
    incumbent = incumbent_of(state.population, values, state.incumbent)

    step = state.step + 1
    tau = survival_threshold(values, config.survival_quantile)
    survivors = state.population[values >= tau]
    refill = config.num_particles - survivors.shape[0]
    if refill > 0:
        children = recombine(
            survivors,
            config.recombination_prob,
            refill,
            (config.seed, rng.DOMAIN_GA, step, PHASE_RECOMBINE),
        )
        population = np.concatenate([survivors, children], axis=0)
    else:
        population = survivors[: config.num_particles]
    population = mutate(
        population,
        config.mutation_prob,
        1,
        function.params.vocab_size,
        (config.seed, rng.DOMAIN_GA, step, PHASE_MUTATE),
    )
    return GAState(
        population=population,
        incumbent=incumbent,
        evals_used=evals_used,
        step=step,
        history=state.history + ((evals_used, incumbent.value),),
    )


def run_ga(function, config: GAConfig, budget: int,
           stop_on_optimum: bool = True) -> GAState:
    """Run steps until the next would exceed `budget` evaluations (or the
    optimum is found). The initial-solution evaluation counts toward the
    budget; history gets one entry per executed step."""
    require_integers(budget=budget)
    require(budget >= config.num_particles,
            f"budget must cover at least one step: {budget} < {config.num_particles}")
    state = init_ga(function, config)
    while state.evals_used + config.num_particles <= budget:
        if stop_on_optimum and state.incumbent.value == 1.0:
            break
        state = ga_step(state, function, config)
    return state
