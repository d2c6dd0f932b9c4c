"""Bilevel loop: dataset formatting, refinement, filtering, and full runs."""

import hashlib
import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

import oracles
from ehrlich.errors import GeneratorCollapseError, InvalidParamsError
from ehrlich.function import EhrlichParams, generate
from ehrlich.ga import GAConfig, run_ga
from ehrlich import llome, rng as ehrlich_rng
from ehrlich.kernels import feasible_rows
from ehrlich.llome import (
    CandidateSet,
    LoopConfig,
    PresolverData,
    ScoredSet,
    adjust_temperatures,
    filter_candidates,
    format_dataset,
    iterative_refinement,
    run_llome,
    run_presolver,
)
from ehrlich.proposers import EchoProposer, baseline_mutation_proposer

# The four-sequence worked example: one improving chain A -> B -> C plus
# an infeasible outlier D. With delta_x=0.25 (Hamming radius 1 at L=4),
# the only in-range improvements are A->B and B->C, and the only
# preference triple is (B, C, A): D is too far from everything to be a
# loser, and A has no in-range non-improving neighbor.
TOY_TOKENS = np.array([
    [0, 0, 0, 0],
    [0, 0, 0, 1],
    [0, 0, 1, 1],
    [1, 1, 1, 1],
])
TOY_VALUES = np.array([0.1, 0.2, 0.5, -np.inf])


def as_tuples(array):
    return [tuple(int(t) for t in row) for row in array]


class TestScoredSet:
    def test_shape_validation(self):
        with pytest.raises(InvalidParamsError):
            ScoredSet(np.zeros(4, dtype=np.int64), np.zeros(4))
        with pytest.raises(InvalidParamsError):
            ScoredSet(np.zeros((4, 3), dtype=np.int64), np.zeros(5))

    def test_len(self):
        assert len(ScoredSet(TOY_TOKENS, TOY_VALUES)) == 4


class TestHammingMatrix:
    def test_matches_pairwise_oracle(self, rng):
        tokens = rng.integers(0, 4, size=(40, 7))
        got = oracles.hamming_matrix(tokens, block=16)
        for i in range(40):
            for j in range(40):
                expected = oracles.hamming_fraction(tokens[i], tokens[j]) * 7
                assert got[i, j] == pytest.approx(expected)


class TestFormatDataset:
    def test_toy_pairs_exact(self):
        ds = format_dataset(ScoredSet(TOY_TOKENS, TOY_VALUES), "pairs", 0.25, 30)
        assert ds.num_pairs == 2
        assert as_tuples(ds.pair_inputs) == [(0, 0, 0, 0), (0, 0, 0, 1)]
        assert as_tuples(ds.pair_targets) == [(0, 0, 0, 1), (0, 0, 1, 1)]
        assert ds.num_triples == 0

    def test_toy_triples_exact(self):
        ds = format_dataset(ScoredSet(TOY_TOKENS, TOY_VALUES), "triples", 0.25, 30)
        assert ds.num_pairs == 2
        assert ds.num_triples == 1
        assert as_tuples(ds.triple_inputs) == [(0, 0, 0, 1)]
        assert as_tuples(ds.triple_winners) == [(0, 0, 1, 1)]
        assert as_tuples(ds.triple_losers) == [(0, 0, 0, 0)]

    def test_singleton_set_yields_nothing(self):
        ds = format_dataset(ScoredSet(TOY_TOKENS[:1], TOY_VALUES[:1]), "triples", 0.25, 30)
        assert ds.num_pairs == 0 and ds.num_triples == 0

    def test_equal_scores_yield_no_pairs(self):
        ds = format_dataset(ScoredSet(TOY_TOKENS, np.full(4, 0.3)), "triples", 1.0, 30)
        assert ds.num_pairs == 0 and ds.num_triples == 0

    def test_matches_all_pairs_oracle(self, rng):
        for trial in range(5):
            n = 40
            tokens = rng.integers(0, 3, size=(n, 8))
            values = rng.uniform(0, 1, size=n)
            values[rng.random(n) < 0.2] = -np.inf
            delta = float(rng.choice([0.25, 0.5]))
            k_n = int(rng.choice([3, 10, 50]))
            expected_pairs, expected_triples = oracles.all_pairs_dataset(
                list(tokens), values, delta, k_n
            )
            ds = format_dataset(ScoredSet(tokens, values), "triples", delta, k_n)
            assert as_tuples(ds.pair_inputs) == [tuple(map(int, tokens[i])) for i, _ in expected_pairs]
            assert as_tuples(ds.pair_targets) == [tuple(map(int, tokens[j])) for _, j in expected_pairs]
            assert as_tuples(ds.triple_inputs) == [tuple(map(int, tokens[i])) for i, _, _ in expected_triples]
            assert as_tuples(ds.triple_winners) == [tuple(map(int, tokens[j])) for _, j, _ in expected_triples]
            assert as_tuples(ds.triple_losers) == [tuple(map(int, tokens[k])) for _, _, k in expected_triples]

    def test_distance_threshold_is_inclusive(self):
        # distance exactly delta_x * L qualifies
        tokens = np.array([[0, 0, 0, 0], [1, 1, 0, 0]])
        values = np.array([0.1, 0.9])
        ds = format_dataset(ScoredSet(tokens, values), "pairs", 0.5, 30)
        assert ds.num_pairs == 1
        ds = format_dataset(ScoredSet(tokens, values), "pairs", 0.49, 30)
        assert ds.num_pairs == 0

    def test_neighbor_budget_truncates(self):
        # with k_n=1, anchor 1's nearest neighbor (tie broken toward the
        # lexicographically smaller [0,0,0,0]) is non-improving, and
        # anchor 2's nearest is worse; only anchor 0 emits a pair
        tokens = np.array([[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 1]])
        values = np.array([0.1, 0.2, 0.9])
        full = format_dataset(ScoredSet(tokens, values), "pairs", 1.0, 30)
        trimmed = format_dataset(ScoredSet(tokens, values), "pairs", 1.0, 1)
        assert full.num_pairs == 3
        assert trimmed.num_pairs == 1
        assert as_tuples(trimmed.pair_inputs) == [(0, 0, 0, 0)]
        assert as_tuples(trimmed.pair_targets) == [(0, 0, 0, 1)]

    def test_duplicate_sequences_are_handled(self):
        tokens = np.array([[0, 0], [0, 0], [0, 1]])
        values = np.array([0.2, 0.2, 0.8])
        ds = format_dataset(ScoredSet(tokens, values), "triples", 0.5, 30)
        # each duplicate improves to [0,1]; the duplicates are mutual
        # non-improvements, giving one triple each
        assert ds.num_pairs == 2
        assert ds.num_triples == 2

    def test_infeasible_never_improves(self, rng):
        tokens = rng.integers(0, 4, size=(20, 6))
        values = np.full(20, -np.inf)
        values[0] = 0.5
        ds = format_dataset(ScoredSet(tokens, values), "pairs", 1.0, 30)
        # only infeasible anchors can be improved, and only by index 0
        assert all(t == tuple(map(int, tokens[0])) for t in as_tuples(ds.pair_targets))

    def test_rejects_bad_mode(self):
        with pytest.raises(InvalidParamsError):
            format_dataset(ScoredSet(TOY_TOKENS, TOY_VALUES), "pairwise", 0.25, 30)

    @pytest.mark.parametrize("k_n", [-1, 0, 2.5, True])
    def test_rejects_bad_neighbor_count(self, k_n):
        with pytest.raises(InvalidParamsError, match="num_neighbors"):
            format_dataset(ScoredSet(TOY_TOKENS, TOY_VALUES), "pairs", 0.25, k_n)

    @pytest.mark.parametrize("delta_x", [-0.1, 1.5, float("nan")])
    def test_rejects_distance_threshold_outside_unit_interval(self, delta_x):
        with pytest.raises(InvalidParamsError, match="distance_threshold"):
            format_dataset(ScoredSet(TOY_TOKENS, TOY_VALUES), "pairs", delta_x, 30)


def random_scored(rng, n, length, vocab):
    """Random rows from ``vocab`` with duplicate rows, tied and -inf values."""
    tokens = rng.choice(np.asarray(vocab, dtype=np.int64), size=(n, length))
    duplicates = rng.integers(0, n, size=n // 5)
    tokens[duplicates] = tokens[rng.integers(0, n, size=duplicates.size)]
    values = rng.choice([0.0, 0.25, 0.5, 1.0, 1 / 3], size=n)
    values[rng.random(n) < 0.2] = -np.inf
    return ScoredSet(tokens, values)


class TestFormatDatasetMatchesReference:
    """Blocked BLAS k-NN against the per-element n x n reference."""

    VOCABS = {
        "small": [0, 1, 2],
        "negative": [-3, -1, 0, 2],
        "large": [-(2 ** 40), 7, 2 ** 40, 2 ** 62],
    }

    def check(self, scored, mode, delta, k_n):
        ds = format_dataset(scored, mode, delta, k_n)
        pairs, triples = oracles.format_dataset_indices(
            scored.tokens, scored.values, mode, delta, k_n)
        pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        triples = np.array(triples, dtype=np.int64).reshape(-1, 3)
        expected = [scored.tokens[pairs[:, 0]], scored.tokens[pairs[:, 1]],
                    scored.tokens[triples[:, 0]], scored.tokens[triples[:, 1]],
                    scored.tokens[triples[:, 2]]]
        got = [ds.pair_inputs, ds.pair_targets, ds.triple_inputs,
               ds.triple_winners, ds.triple_losers]
        for g, e in zip(got, expected):
            assert g.dtype == np.int64 and g.shape == e.shape
            assert np.array_equal(g, e)

    @pytest.mark.parametrize("vocab", sorted(VOCABS))
    @pytest.mark.parametrize("mode", ["pairs", "triples"])
    def test_random_sets(self, rng, vocab, mode):
        for _ in range(8):
            n = int(rng.integers(2, 90))
            scored = random_scored(rng, n, int(rng.integers(1, 9)), self.VOCABS[vocab])
            delta = float(rng.choice([0.0, 0.25, 0.5, 1.0]))
            k_n = int(rng.choice([1, 3, 30, n - 1, n + 5]))
            self.check(scored, mode, delta, k_n)

    @pytest.mark.parametrize("mode", ["pairs", "triples"])
    def test_large_set(self, rng, mode):
        # enough rows that argpartition leaves each kept block unordered
        scored = random_scored(rng, 600, 8, [0, 1, 2, 3])
        self.check(scored, mode, 0.5, 30)

    def test_spans_several_row_blocks(self, rng, monkeypatch):
        monkeypatch.setattr(llome, "_BLOCK_ELEMENTS", 1000)
        scored = random_scored(rng, 150, 6, [0, 1, 2, 3])
        for mode in ("pairs", "triples"):
            self.check(scored, mode, 0.5, 10)

    @pytest.mark.parametrize("bound,dtype", [(None, np.float32), (64, np.float64)])
    def test_key_dtype_follows_exactness_bound(self, rng, monkeypatch, bound, dtype):
        # (L+1) * n = 560 keys fit float32 unless the bound is lowered.
        if bound is not None:
            monkeypatch.setattr(llome, "_FLOAT32_EXACT", bound)
        seen = []

        def spy(tokens, key_dtype):
            seen.append(np.dtype(key_dtype))
            return one_hot(tokens, key_dtype)

        one_hot = llome._position_one_hot
        monkeypatch.setattr(llome, "_position_one_hot", spy)
        scored = random_scored(rng, 80, 6, [0, 1])  # v = 2: ties everywhere
        for mode in ("pairs", "triples"):
            self.check(scored, mode, 0.5, 10)
        assert seen == [np.dtype(dtype)] * 2

    def test_all_rows_equal(self):
        scored = ScoredSet(np.full((6, 3), 5), np.array([0.1, 0.5, 0.5, -np.inf, 0.2, 1.0]))
        for delta in (0.0, 1.0):
            self.check(scored, "triples", delta, 30)


def test_format_dataset_memory_is_bounded(rng):
    # The n x n formulation holds three (n, n) int64 matrices: 2.4 GB here.
    n, length = 10_000, 32
    parents = rng.integers(0, 4, size=(100, length))
    tokens = np.repeat(parents, n // 100, axis=0)
    edits = rng.random(tokens.shape) < 0.05
    tokens[edits] = rng.integers(0, 4, size=int(edits.sum()))
    scored = ScoredSet(tokens, rng.random(n))
    tracemalloc.start()
    try:
        ds = format_dataset(scored, "pairs", 0.25, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.num_pairs > 0
    assert peak < 250 * 2 ** 20


class TestAdjustTemperatures:
    BASE = (0.6, 0.8, 1.0)

    @pytest.mark.parametrize("edit_fraction,bump", [
        (0.05, 0.6),
        (0.0749, 0.6),
        (0.075, 0.4),
        (0.09, 0.4),
        (0.1, 0.2),
        (0.11, 0.2),
        (0.125, 0.0),
        (0.5, 0.0),
    ])
    def test_bump_schedule(self, edit_fraction, bump):
        got = adjust_temperatures(self.BASE, edit_fraction)
        assert got == tuple(t + bump for t in self.BASE)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParamsError):
            adjust_temperatures(self.BASE, 1.5)


class TestLoopConfig:
    def test_seed_is_a_64_bit_unsigned_integer(self):
        for bad in (-1, 2 ** 64):
            with pytest.raises(InvalidParamsError, match="seed"):
                LoopConfig(seed=bad)
        assert LoopConfig(seed=2 ** 64 - 1).seed == 2 ** 64 - 1

    @pytest.mark.parametrize("field", ["rounds", "evals_per_round", "presolver_rounds",
                                       "seeds_per_round", "refine_iters", "samples_per_iter",
                                       "num_neighbors", "seed"])
    @pytest.mark.parametrize("bad", [2.5, 16.0, True])
    def test_counts_and_seed_must_be_integers(self, field, bad):
        with pytest.raises(InvalidParamsError, match=field):
            LoopConfig(**{field: bad})


SMALL = LoopConfig(rounds=2, evals_per_round=300, presolver_rounds=3,
                   seeds_per_round=20, refine_iters=4, samples_per_iter=3,
                   base_temperatures=(0.8, 1.2), seed=13)


class TestIterativeRefinement:
    def test_echo_collapses_to_unique_seeds(self, rng):
        tokens = rng.integers(0, 4, size=(30, 8))
        tokens[5] = tokens[3]  # one duplicate among the seeds
        values = rng.uniform(0, 1, size=30)
        scored = ScoredSet(tokens, values)
        out = iterative_refinement(EchoProposer(), scored, SMALL, seed=3)
        order = np.argsort(-values, kind="stable")[: SMALL.seeds_per_round]
        expected_unique = {tuple(map(int, tokens[i])) for i in order}
        assert set(as_tuples(out.tokens)) == expected_unique
        assert out.num_generated == SMALL.seeds_per_round * (
            SMALL.refine_iters + len(SMALL.base_temperatures) * SMALL.refine_iters * SMALL.samples_per_iter
        )
        assert out.mean_edit_fraction == 0.0
        assert np.array_equal(out.logliks, np.zeros(len(out)))

    def test_fewer_seeds_than_requested(self, rng):
        tokens = rng.integers(0, 4, size=(5, 8))
        scored = ScoredSet(tokens, rng.uniform(0, 1, size=5))
        out = iterative_refinement(EchoProposer(), scored, SMALL, seed=0)
        assert out.num_generated == 5 * (4 + 2 * 4 * 3)

    def test_deterministic_in_seed(self, rng):
        tokens = rng.integers(0, 4, size=(25, 8))
        scored = ScoredSet(tokens, rng.uniform(0, 1, size=25))
        prop = baseline_mutation_proposer(0.1, 4, 8)
        first = iterative_refinement(prop, scored, SMALL, seed=(1, 2))
        second = iterative_refinement(prop, scored, SMALL, seed=(1, 2))
        other = iterative_refinement(prop, scored, SMALL, seed=(1, 3))
        assert np.array_equal(first.tokens, second.tokens)
        assert np.array_equal(first.logliks, second.logliks)
        assert first.mean_edit_fraction == second.mean_edit_fraction
        assert not np.array_equal(first.tokens, other.tokens)

    def test_seed_values_track_origin(self, rng):
        tokens = rng.integers(0, 4, size=(10, 8))
        values = rng.uniform(0, 1, size=10)
        scored = ScoredSet(tokens, values)
        out = iterative_refinement(
            baseline_mutation_proposer(0.05, 4, 8), scored, SMALL, seed=7
        )
        order = np.argsort(-values, kind="stable")[: SMALL.seeds_per_round]
        assert out.seed_indices.min() >= 0
        assert out.seed_indices.max() < order.size
        assert np.array_equal(out.seed_values, values[order][out.seed_indices])

    def test_candidates_bounded_by_generated(self, rng):
        tokens = rng.integers(0, 4, size=(25, 8))
        scored = ScoredSet(tokens, rng.uniform(0, 1, size=25))
        out = iterative_refinement(
            baseline_mutation_proposer(0.2, 4, 8), scored, SMALL, seed=2
        )
        assert 0 < len(out) <= out.num_generated
        assert 0.0 < out.mean_edit_fraction < 1.0

    def test_mutation_proposer_mostly_unique_at_default_scale(self, inst_32_32):
        # pinned sanity bound: at the default chain layout (200 seeds,
        # 10 iters, 10 samples, 6 temperatures) a rate-0.1 proposer on a
        # fresh 32-token instance keeps >90% of generated candidates
        # after dedup (first calibrated run: 112831/122000 = 0.9248)
        presolved = run_presolver(inst_32_32, GAConfig(num_particles=1000, seed=0), 10)
        out = iterative_refinement(
            baseline_mutation_proposer(0.1, 32, 32),
            presolved.scored,
            LoopConfig(seed=0),
            seed=(0, 2, 1, 0),
        )
        assert len(out) / out.num_generated > 0.9


class _ScriptedProposer:
    """Draws rows over a two-token alphabet, so proposals repeat within
    and across calls.

    Log-likelihoods tie (-1.0, -0.0 and 0.0) or, with ``rising``, grow
    with the call count, so a later repeat replaces the earlier winner.
    """

    def __init__(self, rising, alphabet=(0, 1)):
        self.rising = rising
        self.alphabet = np.array(alphabet, dtype=np.int64)
        self.calls = 0

    def propose(self, inputs, temperature, count, seed=0):
        gen = ehrlich_rng.substream(seed)
        batch, length = np.atleast_2d(inputs).shape
        proposals = self.alphabet[gen.integers(0, 2, size=(batch, count, length))]
        logliks = np.array([-1.0, -0.0, 0.0])[gen.integers(0, 3, size=(batch, count))]
        self.calls += 1
        return proposals, logliks + self.calls if self.rising else logliks

    def score_likelihood(self, inputs, outputs, temperature=1.0):
        return np.zeros(np.atleast_2d(inputs).shape[0])

    def train(self, dataset):
        return self


class _RecordingProposer:
    """Passes proposals through and keeps a copy of every batch."""

    def __init__(self, inner):
        self.inner = inner
        self.batches = []

    def propose(self, inputs, temperature, count, seed=0):
        proposals, logliks = self.inner.propose(inputs, temperature, count, seed=seed)
        self.batches.append((proposals.copy(), np.array(logliks)))
        return proposals, logliks


class TestRefinementDedupMatchesReference:
    @pytest.mark.parametrize("inner", [
        _ScriptedProposer(rising=False),
        _ScriptedProposer(rising=True),
        _ScriptedProposer(rising=True, alphabet=(-1, 2 ** 40)),
        _ScriptedProposer(rising=False, alphabet=(300, -(2 ** 20))),
        baseline_mutation_proposer(0.2, 3, 4),
    ], ids=["tied-logliks", "rising-logliks", "wide-tokens", "wide-tokens-tied",
            "mutation"])
    def test_matches_dictionary_dedup(self, rng, inner):
        tokens = rng.integers(0, 3, size=(24, 4))
        values = rng.permutation(24) / 24  # distinct, so a seed value names its seed
        scored = ScoredSet(tokens, values)
        proposer = _RecordingProposer(inner)
        out = iterative_refinement(proposer, scored, SMALL, seed=5)
        order = np.argsort(-values, kind="stable")[: SMALL.seeds_per_round]
        want_tokens, want_logliks, want_seeds, want_values = oracles.dedupe_proposals(
            proposer.batches, values[order])
        assert len(out) < out.num_generated  # repeats were merged
        assert out.tokens.dtype == proposer.batches[0][0].dtype  # the generator's, not widened
        assert as_tuples(out.tokens) == want_tokens
        # bytes, so -0.0 and 0.0 winners are told apart
        assert out.logliks.tobytes() == np.array(want_logliks).tobytes()
        assert out.seed_indices.dtype == np.int64
        assert out.seed_indices.tolist() == want_seeds
        assert out.seed_values.tobytes() == np.array(want_values).tobytes()

    def test_later_higher_loglik_moves_the_seed(self, rng):
        # the rising script must exercise replacement, or the test above
        # only checks first occurrences
        scored = ScoredSet(rng.integers(0, 2, size=(24, 4)), rng.permutation(24) / 24)
        proposer = _RecordingProposer(_ScriptedProposer(rising=True))
        out = iterative_refinement(proposer, scored, SMALL, seed=5)
        first_seed = {}
        for proposals, _ in proposer.batches:
            for s in range(proposals.shape[0]):
                for c in range(proposals.shape[1]):
                    first_seed.setdefault(tuple(map(int, proposals[s, c])), s)
        firsts = [first_seed[row] for row in as_tuples(out.tokens)]
        assert firsts != out.seed_indices.tolist()


def make_candidates(tokens, logliks):
    tokens = np.asarray(tokens, dtype=np.int64)
    n = tokens.shape[0]
    return CandidateSet(
        tokens=tokens,
        logliks=np.asarray(logliks, dtype=np.float64),
        seed_indices=np.zeros(n, dtype=np.int64),
        seed_values=np.zeros(n),
        num_generated=n,
        mean_edit_fraction=0.1,
    )


@pytest.fixture(scope="module")
def feasible_and_infeasible(inst_4_8):
    mask = inst_4_8.transition.mask
    feasible = inst_4_8.optimum.copy()
    forbidden = np.argwhere(~mask)[0]
    infeasible = feasible.copy()
    infeasible[0], infeasible[1] = forbidden
    assert not feasible_rows(infeasible[None, :], mask)[0]
    return mask, feasible, infeasible


class TestFilterCandidates:
    def test_likelihood_floor_drops_everything(self, inst_4_8, feasible_and_infeasible):
        mask, feasible, _ = feasible_and_infeasible
        cands = make_candidates(np.tile(feasible, (5, 1)), np.full(5, -50.0))
        out = filter_candidates(cands, mask, 10, log_p_min=-10.0, p_max_infeas=0.25, seed=0)
        assert len(out) == 0

    def test_zero_infeasible_budget(self, feasible_and_infeasible):
        mask, feasible, infeasible = feasible_and_infeasible
        tokens = np.stack([feasible, infeasible, feasible, infeasible])
        cands = make_candidates(tokens, np.zeros(4))
        out = filter_candidates(cands, mask, 10, log_p_min=-10.0, p_max_infeas=0.0, seed=0)
        assert len(out) == 2
        assert feasible_rows(out.tokens, mask).all()

    def test_infeasible_cap(self, feasible_and_infeasible):
        mask, feasible, infeasible = feasible_and_infeasible
        tokens = np.concatenate([np.tile(feasible, (100, 1)), np.tile(infeasible, (100, 1))])
        cands = make_candidates(tokens, np.zeros(200))
        out = filter_candidates(cands, mask, 500, log_p_min=-10.0, p_max_infeas=0.2, seed=1)
        kept_infeasible = int((~feasible_rows(out.tokens, mask)).sum())
        # floor(100 * 0.2/0.8) = 25
        assert kept_infeasible == 25
        assert len(out) == 125

    def test_downsample_to_j_preserves_order(self, feasible_and_infeasible, rng):
        mask, feasible, _ = feasible_and_infeasible
        tokens = np.tile(feasible, (80, 1))
        lls = -rng.uniform(0, 1, size=80)
        cands = make_candidates(tokens, lls)
        out = filter_candidates(cands, mask, 30, log_p_min=-10.0, p_max_infeas=0.25, seed=4)
        assert len(out) == 30
        # order preserved: kept log-likelihoods appear as a subsequence
        kept = list(out.logliks)
        it = iter(list(lls))
        assert all(any(x == y for y in it) for x in kept)

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_rejects_out_of_range_tokens(self, feasible_and_infeasible, bad):
        # -1 must not wrap to another mask entry and v must not index past it
        mask, feasible, _ = feasible_and_infeasible
        tokens = np.tile(feasible, (3, 1))
        tokens[1, -1] = bad
        cands = make_candidates(tokens, np.zeros(3))
        with pytest.raises(InvalidParamsError, match=r"tokens must lie in \[0, 4\)"):
            filter_candidates(cands, mask, 10, log_p_min=-10.0, p_max_infeas=0.25, seed=0)

    @pytest.mark.parametrize("p_max_infeas", [1.0, -0.5, float("nan")])
    def test_rejects_infeasible_fraction_outside_range(self, feasible_and_infeasible,
                                                        p_max_infeas):
        mask, feasible, infeasible = feasible_and_infeasible
        cands = make_candidates(np.stack([feasible, infeasible]), np.zeros(2))
        with pytest.raises(InvalidParamsError, match="max_infeasible_fraction"):
            filter_candidates(cands, mask, 10, -10.0, p_max_infeas, seed=0)

    @pytest.mark.parametrize("j", [0, 2.5])
    def test_rejects_bad_selection_size(self, feasible_and_infeasible, j):
        mask, feasible, _ = feasible_and_infeasible
        cands = make_candidates(np.tile(feasible, (3, 1)), np.zeros(3))
        with pytest.raises(InvalidParamsError, match="j must be"):
            filter_candidates(cands, mask, j, -10.0, 0.25, seed=0)

    def test_deterministic(self, feasible_and_infeasible, rng):
        mask, feasible, infeasible = feasible_and_infeasible
        tokens = np.concatenate([np.tile(feasible, (50, 1)), np.tile(infeasible, (50, 1))])
        cands = make_candidates(tokens, -rng.uniform(0, 1, size=100))
        a = filter_candidates(cands, mask, 40, -10.0, 0.25, seed=6)
        b = filter_candidates(cands, mask, 40, -10.0, 0.25, seed=6)
        c = filter_candidates(cands, mask, 40, -10.0, 0.25, seed=7)
        assert np.array_equal(a.tokens, b.tokens) and np.array_equal(a.logliks, b.logliks)
        assert not np.array_equal(a.logliks, c.logliks)


class TestPresolver:
    def test_accounting_and_data(self, inst_4_8):
        config = GAConfig(num_particles=50, seed=3)
        pre = run_presolver(inst_4_8, config, presolver_rounds=4)
        # initial solution (1 eval) plus 3 full steps of 50
        assert pre.evals_used == 1 + 3 * 50
        assert len(pre.scored) == pre.evals_used
        recomputed = inst_4_8.evaluate_batch(pre.scored.tokens)
        assert np.array_equal(recomputed, pre.scored.values)
        finite = pre.scored.values[pre.scored.values > -np.inf]
        assert pre.incumbent.value == finite.max()
        assert pre.min_regret == 1.0 - finite.max()

    @pytest.mark.parametrize("seed", [0, 3, 9, 21, 40])
    def test_incumbent_is_the_ga_incumbent(self, inst_4_8, seed):
        config = GAConfig(num_particles=40, seed=seed)
        pre = run_presolver(inst_4_8, config, presolver_rounds=5)
        state = run_ga(inst_4_8, config, budget=5 * 40, stop_on_optimum=False)
        assert np.array_equal(pre.incumbent.tokens, state.incumbent.tokens)
        assert pre.incumbent.value == state.incumbent.value
        assert pre.evals_used == state.evals_used

    @pytest.mark.parametrize("rounds", [2.5, 2.0, True, 0])
    def test_rejects_bad_round_count(self, inst_4_8, rounds):
        with pytest.raises(InvalidParamsError, match="presolver_rounds"):
            run_presolver(inst_4_8, GAConfig(num_particles=40, seed=1), rounds)

    def test_deterministic(self, inst_4_8):
        config = GAConfig(num_particles=30, seed=9)
        a = run_presolver(inst_4_8, config, presolver_rounds=3)
        b = run_presolver(inst_4_8, config, presolver_rounds=3)
        assert np.array_equal(a.scored.tokens, b.scored.tokens)
        assert a.incumbent.value == b.incumbent.value


class _EmptyProposer:
    """Pathological generator producing zero-count proposal batches."""

    def propose(self, inputs, temperature, count, seed=0):
        batch, length = np.atleast_2d(inputs).shape
        return (np.empty((batch, 0, length), dtype=np.int64), np.empty((batch, 0)))

    def score_likelihood(self, inputs, outputs, temperature=1.0):
        return np.zeros(np.atleast_2d(inputs).shape[0])

    def train(self, dataset):
        return self


class _InfeasibleProposer:
    """Always proposes one fixed structurally infeasible sequence."""

    def __init__(self, infeasible_tokens):
        self.tokens = np.asarray(infeasible_tokens, dtype=np.int64)

    def propose(self, inputs, temperature, count, seed=0):
        batch = np.atleast_2d(inputs).shape[0]
        proposals = np.tile(self.tokens, (batch, count, 1))
        return proposals, np.zeros((batch, count))

    def score_likelihood(self, inputs, outputs, temperature=1.0):
        return np.zeros(np.atleast_2d(inputs).shape[0])

    def train(self, dataset):
        return self


class _LastTokenProposer:
    """Mutation proposals with the last token of every row overwritten."""

    def __init__(self, inner, token):
        self.inner = inner
        self.token = token

    def propose(self, inputs, temperature, count, seed=0):
        proposals, logliks = self.inner.propose(inputs, temperature, count, seed=seed)
        proposals = proposals.copy()
        proposals[..., -1] = self.token
        return proposals, logliks

    def score_likelihood(self, inputs, outputs, temperature=1.0):
        return np.zeros(np.atleast_2d(inputs).shape[0])

    def train(self, dataset):
        return self


@pytest.fixture(scope="module")
def presolved(inst_4_16):
    return run_presolver(inst_4_16, GAConfig(num_particles=100, seed=1),
                         presolver_rounds=3)


class TestRunLlome:
    def test_round_accounting(self, inst_4_16, presolved):
        config = LoopConfig(rounds=3, evals_per_round=250, presolver_rounds=3,
                            seeds_per_round=30, refine_iters=3, samples_per_iter=3,
                            base_temperatures=(0.8, 1.2), seed=5)
        prop = baseline_mutation_proposer(0.05, 4, 16)
        result = run_llome(inst_4_16, prop, config, presolved)
        assert len(result.rounds) == 3
        assert all(r.oracle_calls <= config.evals_per_round for r in result.rounds)
        assert result.evals_used == presolved.evals_used + sum(
            r.oracle_calls for r in result.rounds
        )
        regrets = [r.min_regret_so_far for r in result.rounds]
        assert all(a >= b for a, b in zip(regrets, regrets[1:]))
        assert result.min_regret == regrets[-1]
        assert result.presolver_min_regret == presolved.min_regret
        for r in result.rounds:
            assert 0 < r.unique_fraction <= 1
            assert 0 <= r.feasible_fraction <= 1
            assert r.min_regret >= result.min_regret
            assert r.max_margin_reward >= r.mean_margin_reward >= 0

    def test_deterministic(self, inst_4_16, presolved):
        config = LoopConfig(rounds=2, evals_per_round=200, presolver_rounds=3,
                            seeds_per_round=20, refine_iters=3, samples_per_iter=2,
                            base_temperatures=(1.0,), seed=8)
        prop = baseline_mutation_proposer(0.08, 4, 16)
        a = run_llome(inst_4_16, prop, config, presolved)
        b = run_llome(inst_4_16, prop, config, presolved)
        assert a.best.value == b.best.value
        assert a.evals_used == b.evals_used
        for ra, rb in zip(a.rounds, b.rounds):
            assert ra == rb

    def test_echo_generator_cannot_improve(self, inst_4_16, presolved):
        config = LoopConfig(rounds=2, evals_per_round=200, presolver_rounds=3,
                            seeds_per_round=20, refine_iters=2, samples_per_iter=2,
                            base_temperatures=(1.0,), seed=2)
        result = run_llome(inst_4_16, EchoProposer(), config, presolved)
        assert result.min_regret == presolved.min_regret
        assert result.best.value == presolved.incumbent.value

    def test_temperature_bump_feeds_forward(self, inst_4_16, presolved):
        # echo edits nothing, so round 2 must run at base + 0.6
        config = LoopConfig(rounds=2, evals_per_round=200, presolver_rounds=3,
                            seeds_per_round=10, refine_iters=2, samples_per_iter=2,
                            base_temperatures=(0.6, 1.0), seed=2)
        result = run_llome(inst_4_16, EchoProposer(), config, presolved)
        assert result.rounds[0].temperatures == (0.6, 1.0)
        assert result.rounds[1].temperatures == (1.2, 1.6)

    def test_collapse_without_feasible_seed(self, inst_4_16):
        tokens = np.zeros((4, 16), dtype=np.int64)
        bad = PresolverData(scored=ScoredSet(tokens, np.full(4, -np.inf)))
        config = LoopConfig(rounds=1, seed=0)
        with pytest.raises(GeneratorCollapseError, match="no feasible seed"):
            run_llome(inst_4_16, EchoProposer(), config, bad)

    def test_collapse_on_empty_refinement(self, inst_4_16, presolved):
        config = LoopConfig(rounds=1, seed=0)
        with pytest.raises(GeneratorCollapseError, match="no candidates"):
            run_llome(inst_4_16, _EmptyProposer(), config, presolved)

    def test_collapse_when_filter_empties_pool(self, inst_4_16, presolved):
        mask = inst_4_16.transition.mask
        forbidden = np.argwhere(~mask)[0]
        tokens = inst_4_16.optimum.copy()
        tokens[0], tokens[1] = forbidden
        config = LoopConfig(rounds=1, max_infeasible_fraction=0.0, seed=0)
        with pytest.raises(GeneratorCollapseError, match="filtering removed"):
            run_llome(inst_4_16, _InfeasibleProposer(tokens), config, presolved)

    def test_generator_token_out_of_range_is_invalid_params(self):
        function = generate(EhrlichParams.from_name("Ehr(4,16)-2-2-2", seed=1))
        pre = run_presolver(function, GAConfig(num_particles=50, seed=0), presolver_rounds=2)
        config = LoopConfig(rounds=1, evals_per_round=100, seeds_per_round=10,
                            refine_iters=2, samples_per_iter=2, seed=0)
        proposer = _LastTokenProposer(baseline_mutation_proposer(0.05, 4, 16), 4)
        with pytest.raises(InvalidParamsError, match=r"tokens must lie in \[0, 4\)"):
            run_llome(function, proposer, config, pre)

    def test_improves_over_weak_presolver(self):
        # Instance seed 1 resists a tiny evolution budget (the optimum's
        # second motif sits outside what random drift finds quickly), so
        # there is headroom for the refinement rounds to close.
        function = generate(EhrlichParams.from_name("Ehr(4,16)-2-2-2", seed=1))
        pre = run_presolver(function, GAConfig(num_particles=50, seed=4),
                            presolver_rounds=2)
        assert pre.min_regret > 0
        config = LoopConfig(rounds=4, evals_per_round=400, presolver_rounds=2,
                            seeds_per_round=40, refine_iters=4, samples_per_iter=4,
                            base_temperatures=(0.6, 1.0, 1.4), seed=4)
        prop = baseline_mutation_proposer(0.05, 4, 16)
        result = run_llome(function, prop, config, pre)
        assert result.min_regret < pre.min_regret


class _DatasetDigest:
    """Wraps a proposer and hashes every training dataset it is given."""

    def __init__(self, inner):
        self.inner = inner
        self.hash = hashlib.sha256()

    def propose(self, inputs, temperature, count, seed=0):
        return self.inner.propose(inputs, temperature, count, seed=seed)

    def train(self, dataset):
        for rows in (dataset.pair_inputs, dataset.pair_targets, dataset.triple_inputs,
                     dataset.triple_winners, dataset.triple_losers):
            self.hash.update(repr(rows.shape).encode())
            self.hash.update(np.ascontiguousarray(rows, dtype=np.int64).tobytes())
        self.inner = self.inner.train(dataset)
        return self


class TestGoldenLoopDigests:
    """Whole-loop outputs pinned to the values of the void-sort dedupe and
    int64 k-NN keys. Ehr(32,32) rows need 160 bits, so that run takes the
    dedupe's unpacked fallback. The baseline proposer trains on pairs only,
    so pairs and triples share a loop digest; the dataset digest tells
    the two modes apart."""

    @pytest.mark.parametrize("name,mode,loop_digest,dataset_digest", [
        ("Ehr(4,16)-2-2-2", "pairs",
         "fd710b26f7dd471385b081304f7bc3bddd3f9a06616e6c5661d4f26ad3b647bc",
         "c70ce950b92a8477913f07f5c1a1c354eaa2fadf7802234de3f84e3b8d27c7a3"),
        ("Ehr(4,16)-2-2-2", "triples",
         "fd710b26f7dd471385b081304f7bc3bddd3f9a06616e6c5661d4f26ad3b647bc",
         "8295ac33cf39a639e0c97dfca5b115c3fe32f5fb03982e02f68cea75282e1f32"),
        ("Ehr(32,32)-4-4-4", "pairs",
         "26fbb1bbc4ae1964ced8ece60350a9bd18692f0fbc2ddbe45ff163cc8ee5c6f9",
         "4bd9fee4f89ff12701fb00b5451306223467163bf7c879c0fc438947135184df"),
    ])
    def test_digests(self, name, mode, loop_digest, dataset_digest):
        function = generate(EhrlichParams.from_name(name, seed=1))
        config = LoopConfig(rounds=3, dataset_mode=mode)
        presolved = run_presolver(function, GAConfig(num_particles=100),
                                  config.presolver_rounds)
        params = function.params
        proposer = _DatasetDigest(
            baseline_mutation_proposer(0.05, params.vocab_size, params.length))
        result = run_llome(function, proposer, config, presolved)
        payload = json.dumps({"rounds": [asdict(s) for s in result.rounds],
                              "best": [result.best.tokens.tolist(), result.best.value]})
        assert hashlib.sha256(payload.encode()).hexdigest() == loop_digest
        assert proposer.hash.hexdigest() == dataset_digest
