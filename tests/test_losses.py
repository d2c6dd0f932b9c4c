"""Reward/loss lab: exact values, analytic gradients, KL solver, invariance."""

import math

import numpy as np
import pytest

import oracles
from ehrlich.errors import InvalidParamsError
from ehrlich.function import margin_reward
from ehrlich.losses import (
    DiscretePolicy,
    LossBatch,
    batch_from_logits,
    boltzmann_target,
    dpo_loss,
    dpo_loss_from_logits,
    dpo_loss_grad,
    frekl_fixed_point_residual,
    frekl_objective,
    kl_divergence,
    marge_loss,
    marge_loss_grad,
    reinforce_loss,
    reinforce_loss_grad,
    solve_frekl,
    translation_invariance_check,
)


class TestMarginReward:
    def test_direct_formula(self):
        assert margin_reward(0.5, 0.8) == pytest.approx(0.3)

    def test_no_improvement_is_zero(self):
        assert margin_reward(0.8, 0.5) == 0.0
        assert margin_reward(0.5, 0.5) == 0.0

    def test_infeasible_remaps_to_zero(self):
        assert margin_reward(-np.inf, 0.4) == pytest.approx(0.4)
        assert margin_reward(0.4, -np.inf) == 0.0
        assert margin_reward(-np.inf, -np.inf) == 0.0

    def test_vectorized(self):
        got = margin_reward(np.array([0.5, 0.8, -np.inf]), np.array([0.8, 0.5, 0.25]))
        assert got == pytest.approx([0.3, 0.0, 0.25])


class TestBoltzmannTarget:
    def test_equal_rewards_are_uniform(self):
        policy = boltzmann_target(np.zeros(5), beta=3.0)
        assert policy.probabilities == pytest.approx(np.full(5, 0.2))

    def test_beta_zero_is_uniform(self):
        policy = boltzmann_target([1.0, 5.0, -2.0], beta=0.0)
        assert policy.probabilities == pytest.approx(np.full(3, 1 / 3))

    def test_two_outcome_closed_form(self):
        policy = boltzmann_target([0.0, math.log(2)], beta=1.0)
        assert policy.probabilities == pytest.approx([1 / 3, 2 / 3])

    def test_rejects_infinite_rewards(self):
        with pytest.raises(InvalidParamsError):
            boltzmann_target([0.0, np.inf], beta=1.0)


class TestDiscretePolicy:
    def test_rejects_bad_tables(self):
        with pytest.raises(InvalidParamsError):
            DiscretePolicy(np.array([0.5, 0.4]))
        with pytest.raises(InvalidParamsError):
            DiscretePolicy(np.array([1.5, -0.5]))

    def test_conditional_rows_validated(self):
        DiscretePolicy(np.array([[0.5, 0.5], [0.1, 0.9]]))
        with pytest.raises(InvalidParamsError):
            DiscretePolicy(np.array([[0.5, 0.5], [0.2, 0.9]]))

    def test_log_probs_handle_zero(self):
        policy = DiscretePolicy(np.array([1.0, 0.0]))
        assert policy.log_probs[0] == 0.0
        assert policy.log_probs[1] == -np.inf

    def test_from_logits_normalizes(self, rng):
        policy = DiscretePolicy.from_logits(rng.normal(size=(3, 6)))
        assert policy.probabilities.sum(axis=1) == pytest.approx(np.ones(3))


class TestKLDivergence:
    def test_hand_computed_two_outcome(self):
        p = np.array([0.75, 0.25])
        q = np.array([0.5, 0.5])
        expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert kl_divergence(p, q) == pytest.approx(expected, abs=1e-15)

    def test_zero_iff_equal(self, rng):
        p = rng.dirichlet(np.ones(6))
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-15)
        q = rng.dirichlet(np.ones(6))
        assert kl_divergence(p, q) > 0

    def test_zero_times_log_zero(self):
        assert kl_divergence([0.0, 1.0], [0.5, 0.5]) == pytest.approx(math.log(2))

    def test_absolute_continuity_violation(self):
        assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == math.inf


class TestLossBatch:
    def test_rejects_nonfinite_and_bad_lengths(self):
        ok = dict(x_ids=[0], y_ids=[1], log_pi_theta=[-0.5], log_pi_ref=[-0.4],
                  rewards=[0.1], lengths=[2])
        LossBatch(**ok)
        with pytest.raises(InvalidParamsError):
            LossBatch(**{**ok, "log_pi_theta": [-np.inf]})
        with pytest.raises(InvalidParamsError):
            LossBatch(**{**ok, "lengths": [0]})
        with pytest.raises(InvalidParamsError):
            LossBatch(**{**ok, "rewards": [np.nan]})

    def test_rejects_empty(self):
        with pytest.raises(InvalidParamsError):
            LossBatch(x_ids=[], y_ids=[], log_pi_theta=[], log_pi_ref=[],
                      rewards=[], lengths=[])

    def test_normalized_weights_sum_to_one(self, rng):
        batch = LossBatch(
            x_ids=np.zeros(8, dtype=int), y_ids=np.arange(8),
            log_pi_theta=-rng.uniform(0.1, 3, size=8),
            log_pi_ref=-rng.uniform(0.1, 3, size=8),
            rewards=rng.uniform(0, 1, size=8), lengths=np.ones(8, dtype=int),
        )
        assert batch.normalized_weights.sum() == pytest.approx(1.0, abs=1e-12)


def random_instance(rng, num_outcomes=5, batch_size=8):
    logits = rng.normal(size=num_outcomes)
    ref = DiscretePolicy.from_logits(rng.normal(size=num_outcomes)).log_probs
    outcomes = rng.integers(0, num_outcomes, size=batch_size)
    rewards = rng.uniform(0, 1, size=batch_size)
    lengths = rng.integers(1, 5, size=batch_size)
    return logits, ref, outcomes, rewards, lengths


class TestMargeLoss:
    def test_singleton_certain_policy_is_zero(self):
        batch = LossBatch(x_ids=[0], y_ids=[0], log_pi_theta=[0.0],
                          log_pi_ref=[-0.7], rewards=[0.0], lengths=[1])
        assert marge_loss(batch, lam=0.0, beta=1.0) == 0.0

    def test_reduces_to_closed_form_at_reference(self, rng):
        # pi_theta == pi_ref: weights collapse to 1/M and the loss is
        # mean((1 - lam) * log_ref / length - beta * reward)
        log_ref = DiscretePolicy.from_logits(rng.normal(size=3)).log_probs
        outcomes = np.array([0, 1, 2, 1])
        rewards = rng.uniform(0, 1, size=4)
        lengths = np.array([1, 2, 3, 4])
        lam, beta = 0.3, 1.7
        batch = LossBatch(x_ids=np.zeros(4, dtype=int), y_ids=outcomes,
                          log_pi_theta=log_ref[outcomes], log_pi_ref=log_ref[outcomes],
                          rewards=rewards, lengths=lengths)
        expected = np.mean((1 - lam) * log_ref[outcomes] / lengths - beta * rewards)
        assert marge_loss(batch, lam, beta) == pytest.approx(expected, abs=1e-14)

    def test_reference_shift_invariance(self, rng):
        logits, ref, outcomes, rewards, lengths = random_instance(rng)
        batch = batch_from_logits(logits, ref, outcomes, rewards, lengths)
        shifted = LossBatch(x_ids=batch.x_ids, y_ids=batch.y_ids,
                            log_pi_theta=batch.log_pi_theta,
                            log_pi_ref=batch.log_pi_ref + 2.5,
                            rewards=batch.rewards, lengths=batch.lengths)
        assert marge_loss(batch, 0.4, 1.1) == pytest.approx(
            marge_loss(shifted, 0.4, 1.1), abs=1e-12
        )

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(20):
            logits, ref, outcomes, rewards, lengths = random_instance(rng)
            lam, beta = rng.uniform(0, 2), rng.uniform(0.5, 3)

            def loss_at(s):
                return marge_loss(batch_from_logits(s, ref, outcomes, rewards, lengths), lam, beta)

            analytic = marge_loss_grad(logits, ref, outcomes, rewards, lengths, lam, beta)
            numeric = oracles.central_difference_gradient(loss_at, logits, 1e-5)
            scale = max(np.abs(numeric).max(), 1e-12)
            assert np.abs(analytic - numeric).max() / scale < 1e-5


class TestReinforceLoss:
    def test_zero_rewards_zero_lambda(self, rng):
        logits, ref, outcomes, _, lengths = random_instance(rng)
        batch = batch_from_logits(logits, ref, outcomes, np.zeros(len(outcomes)), lengths)
        assert reinforce_loss(batch, lam=0.0) == 0.0

    def test_lambda_term_is_length_normalized_nll(self, rng):
        logits, ref, outcomes, _, lengths = random_instance(rng)
        batch = batch_from_logits(logits, ref, outcomes, np.zeros(len(outcomes)), lengths)
        nll = -np.mean(batch.log_pi_theta / batch.lengths)
        assert reinforce_loss(batch, lam=1.0) == pytest.approx(nll, abs=1e-14)

    def test_reference_shift_invariance(self, rng):
        logits, ref, outcomes, rewards, lengths = random_instance(rng)
        batch = batch_from_logits(logits, ref, outcomes, rewards, lengths)
        shifted = LossBatch(x_ids=batch.x_ids, y_ids=batch.y_ids,
                            log_pi_theta=batch.log_pi_theta,
                            log_pi_ref=batch.log_pi_ref - 1.25,
                            rewards=batch.rewards, lengths=batch.lengths)
        assert reinforce_loss(batch, 0.8) == pytest.approx(reinforce_loss(shifted, 0.8), abs=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(20):
            logits, ref, outcomes, rewards, lengths = random_instance(rng)
            lam = rng.uniform(0, 2)

            def loss_at(s):
                return reinforce_loss(batch_from_logits(s, ref, outcomes, rewards, lengths), lam)

            analytic = reinforce_loss_grad(logits, ref, outcomes, rewards, lengths, lam)
            numeric = oracles.central_difference_gradient(loss_at, logits, 1e-5)
            scale = max(np.abs(numeric).max(), 1e-12)
            assert np.abs(analytic - numeric).max() / scale < 1e-5


class TestDpoLoss:
    def test_at_reference_policy_is_ln2(self, rng):
        logits = rng.normal(size=6)
        ref = DiscretePolicy.from_logits(logits).log_probs
        value = dpo_loss_from_logits(logits, ref, [0, 2, 4], [1, 3, 5], beta=1.7)
        assert abs(value - math.log(2)) < 1e-12

    def test_beta_zero_is_ln2(self, rng):
        assert dpo_loss(rng.normal(size=4), rng.normal(size=4), beta=0.0) == pytest.approx(math.log(2))

    def test_large_margin_drives_loss_to_zero(self):
        assert dpo_loss([40.0], [0.0], beta=1.0) < 1e-15

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(20):
            K = 5
            logits = rng.normal(size=K)
            ref = DiscretePolicy.from_logits(rng.normal(size=K)).log_probs
            winners = rng.integers(0, K, size=6)
            losers = rng.integers(0, K, size=6)
            beta = rng.uniform(0.5, 3)

            def loss_at(s):
                return dpo_loss_from_logits(s, ref, winners, losers, beta)

            analytic = dpo_loss_grad(logits, ref, winners, losers, beta)
            numeric = oracles.central_difference_gradient(loss_at, logits, 1e-5)
            scale = max(np.abs(numeric).max(), 1e-12)
            assert np.abs(analytic - numeric).max() / scale < 1e-5

    @staticmethod
    def conditional_instance(rng, pairs=6, num_outcomes=5):
        """A 2-D logit table and reference with one row per preference pair."""
        logits = rng.normal(size=(pairs, num_outcomes))
        ref = DiscretePolicy.from_logits(rng.normal(size=(pairs, num_outcomes))).log_probs
        winners = rng.integers(0, num_outcomes, size=pairs)
        losers = (winners + rng.integers(1, num_outcomes, size=pairs)) % num_outcomes
        return logits, ref, winners, losers

    def test_conditional_table_scores_pair_i_on_row_i(self, rng):
        logits, ref, winners, losers = self.conditional_instance(rng)
        value = dpo_loss_from_logits(logits, ref, winners, losers, beta=1.3)
        per_pair = [dpo_loss_from_logits(logits[i], ref[i], winners[i:i + 1], losers[i:i + 1],
                                         beta=1.3) for i in range(len(winners))]
        assert value == pytest.approx(np.mean(per_pair), abs=1e-14)
        shifted = logits.copy()
        shifted[2] += 3.0  # a row's softmax cannot see a shift of that row
        assert dpo_loss_from_logits(shifted, ref, winners, losers, beta=1.3) == pytest.approx(
            value, abs=1e-14)

    def test_conditional_gradient_matches_finite_differences(self, rng):
        for _ in range(10):
            logits, ref, winners, losers = self.conditional_instance(rng)
            beta = rng.uniform(0.5, 3)

            def loss_at(flat):
                return dpo_loss_from_logits(flat.reshape(logits.shape), ref, winners, losers, beta)

            analytic = dpo_loss_grad(logits, ref, winners, losers, beta)
            numeric = oracles.central_difference_gradient(loss_at, logits.ravel(), 1e-5)
            assert analytic.shape == logits.shape
            scale = max(np.abs(numeric).max(), 1e-12)
            assert np.abs(analytic.ravel() - numeric).max() / scale < 1e-5

    @pytest.mark.parametrize("call", [dpo_loss_from_logits, dpo_loss_grad])
    def test_conditional_table_needs_one_row_per_pair(self, call):
        table = np.zeros((3, 4))
        with pytest.raises(InvalidParamsError, match="one row per preference pair"):
            call(table, table, [0, 1], [1, 2])


class TestFreklObjective:
    def test_zero_at_shared_distribution(self, rng):
        p = rng.dirichlet(np.ones(5))
        assert frekl_objective(p, p, p, lam=0.7) == pytest.approx(0.0, abs=1e-14)

    def test_lambda_zero_forward_only(self, rng):
        p = rng.dirichlet(np.ones(5))
        q = rng.dirichlet(np.ones(5))
        assert frekl_objective(p, p, q, lam=0.0) == pytest.approx(0.0, abs=1e-14)
        assert frekl_objective(p, q, q, lam=0.0) == pytest.approx(kl_divergence(p, q))

    def test_hand_computed_two_outcome(self):
        pi = np.array([0.25, 0.75])
        star = np.array([0.5, 0.5])
        ref = np.array([0.4, 0.6])
        lam = 2.0
        expected = (
            0.25 * math.log(0.5) + 0.75 * math.log(1.5)
            + lam * (0.4 * math.log(0.4 / 0.25) + 0.6 * math.log(0.6 / 0.75))
        )
        assert frekl_objective(pi, star, ref, lam) == pytest.approx(expected, abs=1e-12)

    def test_reverse_kl_blowup_reports_inf(self):
        pi = np.array([1.0, 0.0])
        star = np.array([0.5, 0.5])
        ref = np.array([0.4, 0.6])
        assert frekl_objective(pi, star, ref, lam=1.0) == math.inf

    def test_nonnegative(self, rng):
        for _ in range(10):
            pi = rng.dirichlet(np.ones(6))
            star = rng.dirichlet(np.ones(6))
            ref = rng.dirichlet(np.ones(6))
            assert frekl_objective(pi, star, ref, rng.uniform(0, 3)) >= 0


class TestSolveFrekl:
    def test_sic_endpoints(self, rng):
        for _ in range(3):
            star = rng.dirichlet(np.ones(10))
            ref = rng.dirichlet(np.ones(10))
            near_star = solve_frekl(star, ref, lam=1e-6)
            assert kl_divergence(near_star, star) < 1e-3
            near_ref = solve_frekl(star, ref, lam=1e6)
            assert kl_divergence(ref, near_ref) < 1e-3

    def test_intermediate_beats_both_endpoints(self, rng):
        star = rng.dirichlet(np.ones(8))
        ref = rng.dirichlet(np.ones(8))
        lam = 1.0
        solution = solve_frekl(star, ref, lam)
        best = frekl_objective(solution, star, ref, lam)
        assert best <= frekl_objective(star, star, ref, lam)
        assert best <= frekl_objective(ref, star, ref, lam)

    def test_fixed_point_residual_small(self, rng):
        star = rng.dirichlet(np.ones(6))
        ref = rng.dirichlet(np.ones(6))
        solution = solve_frekl(star, ref, lam=0.5)
        assert frekl_fixed_point_residual(solution, star, ref, 0.5) < 1e-5

    def test_monotone_in_lambda(self, rng):
        for _ in range(3):
            star = rng.dirichlet(np.ones(7))
            ref = rng.dirichlet(np.ones(7))
            forward, reverse = [], []
            for lam in (0.01, 0.1, 1.0, 10.0, 100.0):
                out = solve_frekl(star, ref, lam)
                forward.append(kl_divergence(out, star))
                reverse.append(kl_divergence(ref, out))
            slack = 1e-9
            assert all(a <= b + slack for a, b in zip(forward, forward[1:]))
            assert all(a >= b - slack for a, b in zip(reverse, reverse[1:]))

    def test_exact_and_stable_in_lambda(self):
        # Dirichlet(2) targets and references, K in [2, 11], lam log-uniform in [1e-3, 1e3]
        rng = np.random.default_rng(31)
        for num_outcomes in rng.integers(2, 12, size=300):
            star = rng.dirichlet(np.full(num_outcomes, 2.0))
            ref = rng.dirichlet(np.full(num_outcomes, 2.0))
            lam = float(10 ** rng.uniform(-3, 3))
            solution = solve_frekl(star, ref, lam).probabilities
            assert frekl_fixed_point_residual(solution, star, ref, lam) <= 1e-11
            nudged = solve_frekl(star, ref, np.nextafter(lam, np.inf)).probabilities
            assert (np.abs(nudged - solution) / solution).max() <= 1e-12

    @pytest.mark.parametrize("num_outcomes", [2, 50])
    @pytest.mark.parametrize("lam", [1e-300, 1e-12, 1e12, 1e300])
    def test_extreme_lambda_and_masses(self, rng, lam, num_outcomes):
        star = rng.dirichlet(np.ones(num_outcomes))
        ref = rng.dirichlet(np.ones(num_outcomes))
        star[0] = ref[-1] = 1e-200
        star, ref = star / star.sum(), ref / ref.sum()
        solution = solve_frekl(star, ref, lam)
        assert isinstance(solution, DiscretePolicy)
        assert np.isfinite(solution.probabilities).all()
        assert frekl_fixed_point_residual(solution, star, ref, lam) / (1 + lam) <= 1e-11

    def test_optimum_input_and_lambda_zero(self, rng):
        assert solve_frekl([0.5, 0.5], [0.5, 0.5], 1.0).probabilities.tolist() == [0.5, 0.5]
        star = rng.dirichlet(np.ones(6))
        assert np.array_equal(solve_frekl(star, rng.dirichlet(np.ones(6)), 0.0).probabilities, star)

    def test_rejects_zero_mass_inputs(self):
        with pytest.raises(InvalidParamsError):
            solve_frekl(np.array([1.0, 0.0]), np.array([0.5, 0.5]), lam=1.0)


class TestTranslationInvariance:
    F6 = np.array([0.1, 0.4, 0.2, 0.9, 0.55, 0.3])

    def test_unclipped_reward_is_invariant(self):
        assert translation_invariance_check(self.F6, "difference", beta=1.0) < 1e-12
        assert translation_invariance_check(self.F6, "difference", beta=7.5) < 1e-12

    def test_clipped_margin_breaks_invariance(self):
        assert translation_invariance_check(self.F6, "margin", beta=1.0) > 1e-6

    def test_constant_scores_invariant_for_both(self):
        constant = np.full(6, 0.4)
        assert translation_invariance_check(constant, "difference") == 0.0
        assert translation_invariance_check(constant, "margin") == 0.0

    def test_rejects_bad_mode_and_values(self):
        with pytest.raises(InvalidParamsError):
            translation_invariance_check(self.F6, "clip")
        with pytest.raises(InvalidParamsError):
            translation_invariance_check(np.array([0.1, np.inf]), "margin")
