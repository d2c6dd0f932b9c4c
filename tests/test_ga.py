"""Mutation/recombination statistics and solver-loop accounting."""

import math

import numpy as np
import pytest

from ehrlich import EhrlichParams, InvalidParamsError, generate
from ehrlich.ga import (
    GAConfig,
    GAState,
    ga_step,
    init_ga,
    mutate,
    recombine,
    run_ga,
    survival_threshold,
)


class TestMutate:
    def test_zero_rate_is_identity(self, rng):
        x = rng.integers(0, 8, size=(5, 20))
        out = mutate(x, 0.0, 3, 8, seed=(1, 2))
        assert out.shape == (15, 20)
        assert np.array_equal(out, np.repeat(x, 3, axis=0))

    def test_full_rate_resamples_everywhere(self):
        x = np.zeros((1, 4000), dtype=np.int64)
        out = mutate(x, 1.0, 1, 4, seed=(3,))
        # Uniform over [0, v): every token appears, originals only by chance.
        assert set(np.unique(out)) == {0, 1, 2, 3}
        change_rate = (out != 0).mean()
        se = math.sqrt(0.75 * 0.25 / out.size)
        assert abs(change_rate - 0.75) <= 3 * se

    def test_change_rate_matches_bernoulli(self):
        # Replacement may equal the original, so the realized change
        # rate is p_m * (1 - 1/v).
        p_m, v = 0.005, 4
        x = np.zeros((1, 500), dtype=np.int64)
        out = mutate(x, p_m, 200, v, seed=(17,))
        expected = p_m * (1 - 1 / v)
        rate = (out != 0).mean()
        se = math.sqrt(expected * (1 - expected) / out.size)
        assert abs(rate - expected) <= 3 * se

    def test_deterministic_given_seed(self, rng):
        x = rng.integers(0, 8, size=(3, 10))
        assert np.array_equal(mutate(x, 0.5, 4, 8, (9,)), mutate(x, 0.5, 4, 8, (9,)))

    def test_per_position_probability(self):
        x = np.zeros((1, 4), dtype=np.int64)
        out = mutate(x, np.array([0.0, 1.0, 0.0, 1.0]), 4000, 4, seed=(5,))
        assert not out[:, [0, 2]].any()
        change_rate = (out[:, [1, 3]] != 0).mean()
        se = math.sqrt(0.75 * 0.25 / 8000)
        assert abs(change_rate - 0.75) <= 3 * se

    def test_negative_seed_is_invalid_params(self):
        with pytest.raises(InvalidParamsError, match="non-negative"):
            mutate(np.zeros((2, 4), dtype=np.int64), 0.5, 1, 4, seed=-1)


class TestRecombine:
    def test_zero_prob_copies_parent_two(self, rng):
        survivors = rng.integers(0, 8, size=(6, 10))
        children = recombine(survivors, 0.0, 50, seed=(4,))
        rows = {tuple(r) for r in survivors.tolist()}
        assert all(tuple(c) in rows for c in children.tolist())

    def test_one_prob_copies_parent_one(self, rng):
        survivors = rng.integers(0, 8, size=(6, 10))
        children = recombine(survivors, 1.0, 50, seed=(4,))
        rows = {tuple(r) for r in survivors.tolist()}
        assert all(tuple(c) in rows for c in children.tolist())

    def test_identical_parents_fixed_point(self):
        survivors = np.tile(np.arange(10), (3, 1))
        children = recombine(survivors, 0.5, 20, seed=(8,))
        assert all(np.array_equal(c, np.arange(10)) for c in children)

    def test_mixes_both_parents(self):
        survivors = np.stack([np.zeros(1000, np.int64), np.ones(1000, np.int64)])
        children = recombine(survivors, 0.5, 30, seed=(2,))
        mixed = [(c.min() != c.max()) for c in children]
        assert any(mixed)

    def test_empty_survivors_rejected(self):
        with pytest.raises(InvalidParamsError, match="survivor"):
            recombine(np.empty((0, 4), dtype=np.int64), 0.5, 3, seed=(1,))


class TestSurvivalThreshold:
    def test_nearest_rank(self):
        values = np.arange(10, dtype=np.float64)
        tau = survival_threshold(values, 0.2)
        assert tau == 7.0
        assert (values >= tau).sum() == 3

    def test_at_least_quantile_survive(self, rng):
        for _ in range(20):
            n = int(rng.integers(10, 200))
            values = rng.standard_normal(n)
            alpha = float(rng.uniform(2 / n, 0.9))
            tau = survival_threshold(values, alpha)
            assert (values >= tau).sum() >= math.ceil(alpha * n)

    def test_all_infeasible_all_survive(self):
        values = np.full(10, -np.inf)
        tau = survival_threshold(values, 0.1)
        assert tau == -np.inf
        assert (values >= tau).all()

    def test_feasible_survive_whenever_infeasible_do(self, rng):
        for _ in range(20):
            n = 50
            values = rng.standard_normal(n)
            values[rng.random(n) < 0.6] = -np.inf
            tau = survival_threshold(values, 0.2)
            survive = values >= tau
            if (survive & np.isneginf(values)).any():
                assert survive[~np.isneginf(values)].all()


class TestConfig:
    def test_defaults(self):
        cfg = GAConfig()
        assert (cfg.num_particles, cfg.survival_quantile) == (1000, 0.1)
        assert (cfg.mutation_prob, cfg.recombination_prob) == (0.005, 0.0882)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(num_particles=1), "num_particles"),
            (dict(survival_quantile=1.5), "survival_quantile"),
            (dict(num_particles=10, survival_quantile=0.1), "survival_quantile"),
            (dict(mutation_prob=-0.1), "mutation_prob"),
            (dict(recombination_prob=1.1), "recombination_prob"),
        ],
    )
    def test_invalid_rejected(self, kwargs, match):
        with pytest.raises(InvalidParamsError, match=match):
            GAConfig(**kwargs)

    @pytest.mark.parametrize("field", ["num_particles", "seed"])
    @pytest.mark.parametrize("bad", [100.5, 100.0, True, "100"])
    def test_integer_fields_reject_non_integers(self, field, bad):
        with pytest.raises(InvalidParamsError, match=field):
            GAConfig(**{field: bad})


class TestLoop:
    CFG = GAConfig(num_particles=100, survival_quantile=0.1, seed=11)

    def test_init_accounting(self, inst_4_16):
        state = init_ga(inst_4_16, self.CFG)
        assert state.evals_used == 1
        assert state.population.shape == (100, 16)
        assert state.incumbent.value > -math.inf
        assert state.history == ()

    def test_step_accounting_and_monotonicity(self, inst_4_16):
        state = init_ga(inst_4_16, self.CFG)
        values = []
        for i in range(10):
            state = ga_step(state, inst_4_16, self.CFG)
            assert state.evals_used == 1 + (i + 1) * 100
            values.append(state.incumbent.value)
        assert len(state.history) == 10
        assert all(b >= a for a, b in zip(values, values[1:]))
        history_values = [v for _, v in state.history]
        assert history_values == values

    def test_population_size_constant(self, inst_4_16):
        state = init_ga(inst_4_16, self.CFG)
        for _ in range(5):
            state = ga_step(state, inst_4_16, self.CFG)
            assert state.population.shape == (100, 16)

    def test_run_ga_budget_exact(self, inst_4_16):
        final = run_ga(inst_4_16, self.CFG, budget=1001, stop_on_optimum=False)
        # init (1) + 10 steps of 100 fit in 1001.
        assert final.evals_used == 1001
        assert len(final.history) == 10

    def test_run_ga_budget_below_first_step(self, inst_4_16):
        final = run_ga(inst_4_16, self.CFG, budget=100, stop_on_optimum=False)
        assert final.evals_used == 1
        assert len(final.history) == 0

    def test_run_ga_budget_too_small_rejected(self, inst_4_16):
        with pytest.raises(InvalidParamsError, match="budget"):
            run_ga(inst_4_16, self.CFG, budget=99)

    def test_run_ga_deterministic(self, inst_4_16):
        a = run_ga(inst_4_16, self.CFG, budget=2000, stop_on_optimum=False)
        b = run_ga(inst_4_16, self.CFG, budget=2000, stop_on_optimum=False)
        assert np.array_equal(a.population, b.population)
        assert a.history == b.history
        assert np.array_equal(a.incumbent.tokens, b.incumbent.tokens)

    def test_solves_easy_instance(self):
        f = generate(EhrlichParams.from_name("Ehr(4,8)-2-2-2", seed=0))
        cfg = GAConfig(num_particles=200, seed=0)
        final = run_ga(f, cfg, budget=100_000)
        assert final.incumbent.value == 1.0
        assert final.evals_used <= 100_000

    def test_stop_on_optimum_halts_early(self):
        f = generate(EhrlichParams.from_name("Ehr(4,8)-2-2-2", seed=0))
        cfg = GAConfig(num_particles=200, seed=0)
        stopped = run_ga(f, cfg, budget=100_000)
        full = run_ga(f, cfg, budget=100_000, stop_on_optimum=False)
        assert stopped.evals_used <= full.evals_used
