"""Reward and preference-learning losses on explicit discrete domains.

Everything here operates on small enumerable outcome spaces where
policies are probability tables, so the losses, their gradients, and
the KL-based objectives can be computed exactly and checked against
finite differences. Outcome ids index the last axis of a logit table
and must be integers in [0, K).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import require, require_counts, require_temperature


# ---------------------------------------------------------------------------
# Policies


@dataclass(frozen=True)
class DiscretePolicy:
    """Probability table over a finite outcome space.

    1-D: one distribution. 2-D: rows are distributions conditioned on a
    prompt. Rows must sum to 1 within 1e-12.
    """

    probabilities: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probabilities, dtype=np.float64)
        object.__setattr__(self, "probabilities", probs)
        require(probs.ndim in (1, 2), f"probabilities must be 1-D or 2-D, got {probs.ndim}-D")
        require(probs.size > 0, "probabilities must be nonempty")
        require(bool((probs >= 0).all()), "probabilities must be nonnegative")
        sums = probs.sum(axis=-1)
        require(bool(np.abs(sums - 1.0).max() <= 1e-12),
                f"each distribution must sum to 1 within 1e-12, worst error {np.abs(sums - 1.0).max():.3e}")

    @property
    def num_outcomes(self) -> int:
        return self.probabilities.shape[-1]

    @property
    def log_probs(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.probabilities)

    @classmethod
    def from_logits(cls, logits: np.ndarray) -> "DiscretePolicy":
        return cls(np.exp(_log_softmax(logits)))

    @classmethod
    def uniform(cls, num_outcomes: int) -> "DiscretePolicy":
        require_counts(1, num_outcomes=num_outcomes)
        return cls(np.full(num_outcomes, 1.0 / num_outcomes))


def _log_softmax(logits) -> np.ndarray:
    """Log-softmax of each row, over the last axis."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def kl_divergence(p, q) -> float:
    """KL(p || q) with 0·log 0 := 0; +inf when p has mass where q has none."""
    p = _probs_of(p)
    q = _probs_of(q)
    require(p.shape == q.shape, f"shape mismatch {p.shape} vs {q.shape}")
    support = p > 0
    if bool((q[support] == 0).any()):
        return math.inf
    return float((p[support] * np.log(p[support] / q[support])).sum())


def _probs_of(policy) -> np.ndarray:
    """The table of a policy, or of an array that ``DiscretePolicy`` accepts."""
    if isinstance(policy, DiscretePolicy):
        return policy.probabilities
    return DiscretePolicy(policy).probabilities


def boltzmann_target(rewards, beta: float) -> DiscretePolicy:
    """Probabilities proportional to exp(beta * reward)."""
    require_temperature("beta", beta)
    rewards = np.asarray(rewards, dtype=np.float64)
    require(bool(np.isfinite(rewards).all()), "rewards must be finite")
    return DiscretePolicy.from_logits(beta * rewards)


# ---------------------------------------------------------------------------
# Sampled batches


@dataclass(frozen=True)
class LossBatch:
    """Sampled records (x, y, log pi_theta, log pi_ref, reward, length)."""

    x_ids: np.ndarray
    y_ids: np.ndarray
    log_pi_theta: np.ndarray
    log_pi_ref: np.ndarray
    rewards: np.ndarray
    lengths: np.ndarray

    def __post_init__(self) -> None:
        x_ids, y_ids, lengths = (_column(name, getattr(self, name), np.int64)
                                 for name in ("x_ids", "y_ids", "lengths"))
        log_pi_theta, log_pi_ref, rewards = (
            _column(name, getattr(self, name), np.float64)
            for name in ("log_pi_theta", "log_pi_ref", "rewards"))
        for name, arr in (("x_ids", x_ids), ("y_ids", y_ids),
                          ("log_pi_theta", log_pi_theta), ("log_pi_ref", log_pi_ref),
                          ("rewards", rewards), ("lengths", lengths)):
            object.__setattr__(self, name, arr)
            require(arr.shape == x_ids.shape, f"{name} shape {arr.shape} != {x_ids.shape}")
        require(x_ids.ndim == 1 and x_ids.size >= 1, "batch must be a nonempty 1-D record set")
        require(bool(np.isfinite(log_pi_theta).all()), "log_pi_theta must be finite")
        require(bool(np.isfinite(log_pi_ref).all()), "log_pi_ref must be finite")
        require(bool(np.isfinite(rewards).all()), "rewards must be finite")
        require(bool((lengths >= 1).all()), "lengths must be >= 1")

    def __len__(self) -> int:
        return self.x_ids.shape[0]

    @property
    def normalized_weights(self) -> np.ndarray:
        """Self-normalized importance weights exp(log pi - log ref) / sum."""
        raw = np.exp(self.log_pi_theta - self.log_pi_ref)
        return raw / raw.sum()


def _column(name: str, value, dtype) -> np.ndarray:
    """``value`` as a ``dtype`` array, int64 or float64. It must hold
    numbers, and for int64 integers or floats that are integers (2.0, not
    2.9); text, bools, a ragged list and anything else are an
    InvalidParamsError."""
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged list
        array = np.asarray(None)
    valid = array.dtype.kind in "iu" or (array.dtype.kind == "f" and (
        dtype == np.float64 or (bool((np.abs(array) < 2.0**63).all())
                                and bool((array == np.trunc(array)).all()))))
    what = "numbers" if dtype == np.float64 else "integers"
    require(valid, f"{name} must hold {what}, got {value!r}")
    return array.astype(dtype)


def batch_from_logits(logits, ref_log_probs, outcomes, rewards, lengths=None,
                      x_ids=None) -> LossBatch:
    """Materialize a LossBatch for outcomes sampled from a K-way policy."""
    log_pi, ref_log_probs, outcomes = _tables_and_ids(logits, ref_log_probs, outcomes=outcomes)
    x_ids = np.zeros_like(outcomes) if x_ids is None else x_ids
    lengths = np.ones_like(outcomes) if lengths is None else lengths
    return LossBatch(x_ids, outcomes, log_pi[outcomes], ref_log_probs[outcomes], rewards, lengths)


def _tables_and_ids(logits, ref_log_probs, **ids):
    """The log-softmax of ``logits``, ``ref_log_probs`` as a table of the
    same shape, and each named id array as int64, which must hold integer
    outcome ids in [0, K), K being the size of the tables' last axis."""
    log_pi = _log_softmax(logits)
    ref_log_probs = np.asarray(ref_log_probs, dtype=np.float64)
    require(ref_log_probs.shape == log_pi.shape,
            f"ref_log_probs shape {ref_log_probs.shape} != logits shape {log_pi.shape}")
    num_outcomes = log_pi.shape[-1]
    checked = []
    for name, value in ids.items():
        array = np.asarray(value)
        require(array.dtype.kind in "iu" and bool(((array >= 0) & (array < num_outcomes)).all()),
                f"{name} must hold integer outcome ids in [0, {num_outcomes})")
        checked.append(array.astype(np.int64))
    return log_pi, ref_log_probs, *checked


# ---------------------------------------------------------------------------
# Losses


def marge_loss(batch: LossBatch, lam: float = 0.0, beta: float = 1.0) -> float:
    """Self-normalized importance-weighted margin objective.

    sum_i w~_i (log pi_i / len_i - beta * r_i) - lam * mean_i(log pi_i / len_i)
    """
    require_temperature("lam", lam)
    require_temperature("beta", beta)
    weights = batch.normalized_weights
    per_token = batch.log_pi_theta / batch.lengths
    weighted = float((weights * (per_token - beta * batch.rewards)).sum())
    return weighted - lam * float(per_token.mean())


def reinforce_loss(batch: LossBatch, lam: float = 0.0) -> float:
    """Self-normalized REINFORCE with the same length-normalized regularizer.

    sum_i w~_i (-r_i * log pi_i) - lam * mean_i(log pi_i / len_i)
    """
    require_temperature("lam", lam)
    weights = batch.normalized_weights
    weighted = float((weights * (-batch.rewards * batch.log_pi_theta)).sum())
    return weighted - lam * float((batch.log_pi_theta / batch.lengths).mean())


def dpo_loss(ratio_w, ratio_l, beta: float = 1.0) -> float:
    """mean(-log sigmoid(beta * (ratio_w - ratio_l))) over preference pairs."""
    require_temperature("beta", beta)
    ratio_w = np.asarray(ratio_w, dtype=np.float64)
    ratio_l = np.asarray(ratio_l, dtype=np.float64)
    require(ratio_w.shape == ratio_l.shape, "ratio arrays must have equal shape")
    require(ratio_w.size >= 1, "need at least one preference pair")
    return float(np.mean(-_log_sigmoid(beta * (ratio_w - ratio_l))))


def _log_sigmoid(z) -> np.ndarray:
    # log sigmoid(z) = -log(1 + e^-z), stable on both tails
    return -np.logaddexp(0.0, -z)


def dpo_loss_from_logits(logits, ref_log_probs, winners, losers, beta: float = 1.0) -> float:
    """DPO loss of the policy softmax(logits); a 2-D table scores pair i on row i."""
    return dpo_loss(*_pair_ratios(logits, ref_log_probs, winners, losers)[2:], beta)


def _pair_ratios(logits, ref_log_probs, winners, losers):
    """The index of each pair's winner and loser into the logit table, and
    their log-ratios log pi - log ref. A 1-D table is one policy; a 2-D
    table is conditional, one row per pair."""
    log_pi, ref_log_probs, winners, losers = _tables_and_ids(
        logits, ref_log_probs, winners=winners, losers=losers)
    require(winners.shape == losers.shape and winners.size >= 1,
            f"winners and losers must have equal, nonempty shapes, "
            f"got {winners.shape} and {losers.shape}")
    if log_pi.ndim == 2:
        require(winners.shape == (log_pi.shape[0],),
                f"a 2-D logit table needs one row per preference pair, "
                f"got {log_pi.shape[0]} rows for {winners.shape} pairs")
        rows = np.arange(log_pi.shape[0])
        winners, losers = (rows, winners), (rows, losers)
    return (winners, losers, log_pi[winners] - ref_log_probs[winners],
            log_pi[losers] - ref_log_probs[losers])


# ---------------------------------------------------------------------------
# Analytic gradients with respect to policy logits


def _batch_jacobians(logits, ref_log_probs, outcomes, rewards, lengths):
    """The batch ``batch_from_logits`` builds, its weights w~, and two (M, K)
    jacobians in the logits s: d log pi(y_i) / d s_k = 1[y_i = k] - softmax(s)_k
    and d w~_i / d s_k = w~_i (d_ik - sum_j w~_j d_jk), d being the first."""
    batch = batch_from_logits(logits, ref_log_probs, outcomes, rewards, lengths)
    outcomes = batch.y_ids
    weights = batch.normalized_weights
    probs = np.exp(_log_softmax(logits))
    score_jac = np.zeros((outcomes.shape[0], probs.shape[0]))
    score_jac[np.arange(outcomes.shape[0]), outcomes] = 1.0
    score_jac -= probs[None, :]
    weight_jac = weights[:, None] * (score_jac - (weights @ score_jac)[None, :])
    return batch, weights, score_jac, weight_jac


def marge_loss_grad(logits, ref_log_probs, outcomes, rewards, lengths=None,
                    lam: float = 0.0, beta: float = 1.0) -> np.ndarray:
    require_temperature("lam", lam)
    require_temperature("beta", beta)
    batch, weights, score_jac, weight_jac = _batch_jacobians(
        logits, ref_log_probs, outcomes, rewards, lengths)
    per_token = batch.log_pi_theta / batch.lengths
    terms = per_token - beta * batch.rewards
    per_token_jac = score_jac / batch.lengths[:, None]
    grad = (weight_jac * terms[:, None]).sum(axis=0)
    grad += (weights[:, None] * per_token_jac).sum(axis=0)
    grad -= lam * per_token_jac.mean(axis=0)
    return grad


def reinforce_loss_grad(logits, ref_log_probs, outcomes, rewards, lengths=None,
                        lam: float = 0.0) -> np.ndarray:
    require_temperature("lam", lam)
    batch, weights, score_jac, weight_jac = _batch_jacobians(
        logits, ref_log_probs, outcomes, rewards, lengths)
    terms = -batch.rewards * batch.log_pi_theta
    grad = (weight_jac * terms[:, None]).sum(axis=0)
    grad += (weights[:, None] * (-batch.rewards[:, None] * score_jac)).sum(axis=0)
    grad -= lam * (score_jac / batch.lengths[:, None]).mean(axis=0)
    return grad


def dpo_loss_grad(logits, ref_log_probs, winners, losers, beta: float = 1.0) -> np.ndarray:
    require_temperature("beta", beta)
    winners, losers, ratio_w, ratio_l = _pair_ratios(logits, ref_log_probs, winners, losers)
    # d/ds_k of -log sigmoid(beta * delta) = (sigmoid(beta delta) - 1) * beta
    #   * (d delta / d s_k), and d delta / d s_k = 1[y_w=k] - 1[y_l=k]
    # because the softmax normalization of the pair's row cancels between
    # winner and loser; sigmoid(z) - 1 = -sigmoid(-z).
    factor = -beta * np.exp(_log_sigmoid(-beta * (ratio_w - ratio_l)))
    grad = np.zeros(np.shape(logits))
    np.add.at(grad, winners, factor)
    np.add.at(grad, losers, -factor)
    return grad / ratio_w.size


# ---------------------------------------------------------------------------
# Forward-reverse KL objective and its simplex solver


def frekl_objective(pi_theta, pi_star, pi_ref, lam: float) -> float:
    """KL(pi_theta || pi_star) + lam * KL(pi_ref || pi_theta), exactly."""
    require_temperature("lam", lam)
    forward = kl_divergence(pi_theta, pi_star)
    if lam == 0.0:
        return forward
    return forward + lam * kl_divergence(pi_ref, pi_theta)


def frekl_fixed_point_residual(pi_theta, pi_star, pi_ref, lam: float) -> float:
    """Spread of log pi - log pi* - lam*ref/pi; zero at the exact optimum."""
    pi = _probs_of(pi_theta)
    star = _probs_of(pi_star)
    ref = _probs_of(pi_ref)
    stationarity = np.log(pi) - np.log(star) - lam * ref / pi
    return float(stationarity.max() - stationarity.min())


_NEWTON_STEPS = 100  # a bound only: each Newton iteration below stops long before it


def _log_lambert_w(x: np.ndarray) -> np.ndarray:
    """log W(e^x) elementwise: the root t of e^t + t = x.

    Newton iterates from a start above the root; the map is increasing and
    convex, so they fall monotonically onto it and stop when none moves.
    """
    t = np.where(x > 1.0, np.log(np.maximum(x, 1.0)), x)
    for _ in range(_NEWTON_STEPS):
        exp_t = np.exp(t)
        lower = t - np.maximum((exp_t + t - x) / (exp_t + 1.0), 0.0)
        if not (lower < t).any():
            break
        t = lower
    return t


def solve_frekl(pi_star, pi_ref, lam: float) -> DiscretePolicy:
    """Minimize the forward-reverse KL objective over the simplex, exactly.

    With s = pi*, r = pi_ref and a multiplier c, each outcome's
    stationarity condition log pi - lam r / pi = c + log s has the closed
    form log pi(c) = log(lam r) - log W(lam r e^-c / s), W being Lambert's
    W function; log sum pi(c) increases in c with slope in (0, 1], so one
    Newton root in c normalizes it. lam = 0 returns pi* as given.
    """
    star = _probs_of(pi_star)
    ref = _probs_of(pi_ref)
    require(star.ndim == 1 and star.shape == ref.shape,
            "pi_star and pi_ref must be 1-D with equal shape")
    require(bool((star > 0).all()), "pi_star must be strictly positive")
    require(bool((ref > 0).all()), "pi_ref must be strictly positive")
    require_temperature("lam", lam)
    if lam == 0.0:
        return DiscretePolicy(star)

    log_star = np.log(star)
    log_lam_ref = math.log(lam) + np.log(ref)  # log(lam r), which cannot underflow
    # The root is c = KL(pi || pi*) - lam, in [-lam, min(0, -lam - log min pi*)].
    # Log sum pi(c) is convex in c, so Newton steps from the top fall onto it.
    floor = -lam
    c = min(0.0, floor - float(log_star.min()))
    for _ in range(_NEWTON_STEPS):
        log_w = _log_lambert_w(log_lam_ref - log_star - c)
        log_pi = log_lam_ref - log_w
        top = float(log_pi.max())
        mass = np.exp(log_pi - top)
        total = float(mass.sum())
        excess = top + math.log(total)  # log sum pi(c)
        if not excess > 0.0:
            break
        slope = float((mass / (1.0 + np.exp(log_w))).sum()) / total
        next_c = max(c - excess / slope, floor)
        if not next_c < c:
            break
        c = next_c
    # Renormalizing would shift each log pi alike and break stationarity by
    # that shift times lam r / pi; the sum is within rounding of 1 already.
    return DiscretePolicy(np.exp(log_pi))


# ---------------------------------------------------------------------------
# Translation invariance of Boltzmann policies


def translation_invariance_check(f_values, mode: str = "difference",
                                 beta: float = 1.0) -> float:
    """Max deviation of conditional Boltzmann policies across incumbents.

    Builds pi(y|x) = softmax_y(beta * r(x, y)) for every incumbent x in
    the domain and returns max over x, x', y of |pi(y|x) - pi(y|x')|.
    With the unclipped difference reward r = f(y) - f(x) the incumbent
    term is a constant shift, so the deviation is zero up to rounding;
    the clipped margin reward breaks that invariance.
    """
    require(mode in ("difference", "margin"), f"mode must be 'difference' or 'margin', got {mode!r}")
    require_temperature("beta", beta)
    f_values = np.asarray(f_values, dtype=np.float64)
    require(f_values.ndim == 1 and f_values.size >= 2, "need a 1-D domain of >= 2 scores")
    require(bool(np.isfinite(f_values).all()), "f values must be finite")
    rewards = f_values[None, :] - f_values[:, None]  # [x, y]
    if mode == "margin":
        rewards = np.maximum(rewards, 0.0)
    policies = DiscretePolicy.from_logits(beta * rewards).probabilities
    return float((policies.max(axis=0) - policies.min(axis=0)).max())
