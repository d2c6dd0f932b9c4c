"""Core construction and evaluation behavior."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from ehrlich import (
    EhrlichFunction,
    EhrlichParams,
    InvalidParamsError,
    SpacedMotifs,
    TransitionMatrix,
    build_motifs,
    build_transition_matrix,
    check_ergodic,
    construct_optimum,
    evaluate,
    evaluate_batch,
    generate,
    is_feasible,
    motif_product,
    motif_score,
    regret,
    response,
    sample_dmp,
)
from ehrlich.function import banded_mask, feasible_count, masked_softmax_rows
from ehrlich.records import EvalLedger

import fixtures
import oracles


class TestParams:
    def test_name_round_trip(self):
        params = EhrlichParams.from_name("Ehr(32,256)-4-8-2")
        assert params.name == "Ehr(32,256)-4-8-2"
        assert (params.vocab_size, params.length) == (32, 256)
        assert (params.num_motifs, params.motif_length, params.quantization) == (4, 8, 2)

    def test_bad_name(self):
        with pytest.raises(InvalidParamsError, match="Ehr"):
            EhrlichParams.from_name("Ehrlich(32,256)-4-8-2")

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(vocab_size=1, length=8, num_motifs=1, motif_length=1, quantization=1), "vocab_size"),
            (dict(vocab_size=4, length=3, num_motifs=2, motif_length=2, quantization=2), "length"),
            (dict(vocab_size=4, length=8, num_motifs=2, motif_length=4, quantization=3), "divide"),
            (dict(vocab_size=4, length=8, num_motifs=2, motif_length=2, quantization=3), "quantization"),
            (dict(vocab_size=4, length=8, num_motifs=2, motif_length=2, quantization=2, epistasis_factor=4.5), "epistasis"),
            (dict(vocab_size=4, length=8, num_motifs=2, motif_length=2, quantization=2, feasible_fraction=1.0), "feasible"),
            (dict(vocab_size=4, length=8, num_motifs=2, motif_length=2, quantization=2, feasible_fraction=0.2), "feasible"),
            (dict(vocab_size=4, length=8, num_motifs=2, motif_length=2, quantization=2, softmax_temperature=0.0), "temperature"),
        ],
    )
    def test_invalid_params_rejected(self, kwargs, match):
        with pytest.raises(InvalidParamsError, match=match):
            EhrlichParams(**kwargs)

    def test_feasible_count_matches_fraction(self):
        assert feasible_count(4, 0.75) == 3
        assert feasible_count(32, 0.75) == 24
        assert feasible_count(8, 0.3) == 2


class TestTransitionMatrix:
    def test_banded_mask_structure(self):
        mask = banded_mask(4, 3)
        assert np.array_equal(mask, fixtures.BANDED_4x4)
        # Every row has exactly `band` ones regardless of v.
        for v, band in [(8, 3), (16, 12), (5, 2)]:
            m = banded_mask(v, band)
            assert (m.sum(axis=1) == band).all()

    def test_masked_softmax_known_values(self):
        probs = masked_softmax_rows(fixtures.Z_4x4, fixtures.MASK_4x4)
        assert np.abs(probs - fixtures.A_4x4).max() <= 5e-3 + 1e-9
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_build_matches_local_invariants(self):
        t = build_transition_matrix(16, 1.0, 0.75, seed=(11, 0, 0))
        assert t.vocab_size == 16
        assert (t.mask.sum(axis=1) >= feasible_count(16, 0.75)).all()
        assert np.diagonal(t.mask).all()
        assert ((t.entries > 0) == t.mask).all()

    def test_row_sum_violation_rejected(self):
        entries = np.full((3, 3), 0.5)
        with pytest.raises(InvalidParamsError, match="sum to 1"):
            TransitionMatrix(entries=entries, mask=entries > 0)

    def test_mask_entry_mismatch_rejected(self):
        entries = np.full((3, 3), 1 / 3)
        mask = np.eye(3, dtype=bool)
        with pytest.raises(InvalidParamsError, match="mask"):
            TransitionMatrix(entries=entries, mask=mask)

    def test_ergodic_on_full_support(self):
        entries = np.full((3, 3), 1 / 3)
        t = TransitionMatrix(entries=entries, mask=np.ones((3, 3), dtype=bool))
        assert check_ergodic(t)

    def test_reducible_mask_not_ergodic(self):
        # Two disconnected 2-state blocks: locally valid, globally reducible.
        mask = np.array(
            [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]], dtype=bool
        )
        entries = mask * 0.5
        t = TransitionMatrix(entries=entries, mask=mask)
        assert not check_ergodic(t)

    def test_unreachable_column_not_ergodic(self):
        # State 2 can leave but never be entered.
        mask = np.array([[1, 1, 0], [1, 1, 0], [1, 1, 1]], dtype=bool)
        entries = np.where(mask, 1.0, 0.0)
        entries /= entries.sum(axis=1, keepdims=True)
        t = TransitionMatrix(entries=entries, mask=mask)
        assert not check_ergodic(t)


class TestMotifScore:
    def test_motif_laid_out_scores_one(self):
        tokens = np.array([5, 0, 7, 0, 2, 9, 9, 9])
        assert motif_score(tokens, [5, 7, 2], [0, 2, 4], 1) == 1

    def test_integer_division_quantization(self):
        # k=4, q=2, exactly 3 matches -> (3 // 2)/2 = 1/2.
        tokens = np.array([1, 2, 3, 9])
        assert motif_score(tokens, [1, 2, 3, 4], [0, 1, 2, 3], 2) == Fraction(1, 2)

    def test_known_window_value(self):
        score = motif_score(fixtures.X3, fixtures.SCORING_MOTIFS[0], fixtures.SCORING_OFFSETS[0], 4)
        assert score == Fraction(1, 2)

    def test_out_of_range_counts_as_mismatch(self):
        # Only token 4 of the motif would land past the end; the best
        # window keeps the three in-range matches.
        tokens = np.array([0, 0, 1, 2, 3])
        assert motif_score(tokens, [1, 2, 3, 4], [0, 1, 2, 3], 4) == Fraction(3, 4)

    def test_agrees_with_reference_scan(self, rng):
        for _ in range(50):
            length = int(rng.integers(4, 20))
            k = int(rng.integers(1, 5))
            tokens = rng.integers(0, 6, size=length)
            motif = rng.integers(0, 6, size=k)
            offsets = np.concatenate([[0], np.cumsum(rng.integers(1, 4, size=k - 1))])
            best = oracles.best_window_matches(tokens, motif, offsets)
            assert motif_score(tokens, motif, offsets, 1) == Fraction(best // k, 1)
            assert motif_score(tokens, motif, offsets, k) == Fraction(best, k)


class TestResponse:
    @pytest.mark.parametrize("a", [0, 1, Fraction(5, 2), 4])
    def test_endpoints_fixed(self, a):
        assert response(Fraction(0), a) == 0
        assert response(Fraction(1), a) == 1

    def test_epistatic_zero_crossing(self):
        assert response(Fraction(1, 2), 4) == 0

    def test_linear_when_a_zero(self):
        assert response(Fraction(1, 4), 0) == Fraction(1, 4)


class TestScoringVectors:
    """Exact-rational products for the three pinned 32-token vectors."""

    def _product(self, x):
        motifs = SpacedMotifs(motifs=fixtures.SCORING_MOTIFS, offsets=fixtures.SCORING_OFFSETS)
        return motif_product(x, motifs, quantization=4)

    def test_x3(self):
        assert self._product(fixtures.X3) == fixtures.X3_PRODUCT

    def test_x4(self):
        assert self._product(fixtures.X4) == fixtures.X4_PRODUCT

    def test_x1_faithful_value(self):
        # See fixtures.py: the stated 1/64 is unattainable; pin the
        # faithful value so any drift is caught.
        assert self._product(fixtures.X1) == fixtures.X1_PRODUCT_FAITHFUL

    def test_x1_window_analysis(self):
        # The two tail windows responsible for the 1/32 product.
        m = fixtures.SCORING_MOTIFS
        s = fixtures.SCORING_OFFSETS
        assert oracles.best_window_matches(fixtures.X1, m[0], s[0]) == 2
        assert oracles.best_window_matches(fixtures.X1, m[1], s[1]) == 2
        assert oracles.best_window_matches(fixtures.X1, m[2], s[2]) == 2
        assert oracles.best_window_matches(fixtures.X1, m[3], s[3]) == 1


class TestChunkedConstruction:
    def test_motifs_and_optimum_walkthrough(self):
        params = EhrlichParams(
            vocab_size=4, length=8, num_motifs=2, motif_length=2, quantization=2
        )
        motifs = SpacedMotifs(motifs=fixtures.CHUNK_MOTIFS, offsets=fixtures.CHUNK_OFFSETS)
        mask = np.ones((4, 4), dtype=bool)
        transition = TransitionMatrix(entries=np.full((4, 4), 0.25), mask=mask)
        optimum = construct_optimum(motifs, params, transition)
        assert np.array_equal(optimum, fixtures.CHUNK_OPTIMUM)

    def test_gap_filling_repeats_previous_element(self):
        params = EhrlichParams(
            vocab_size=4, length=10, num_motifs=1, motif_length=3, quantization=1
        )
        motifs = SpacedMotifs(motifs=np.array([[2, 1, 3]]), offsets=np.array([[0, 3, 5]]))
        transition = TransitionMatrix(
            entries=np.full((4, 4), 0.25), mask=np.ones((4, 4), dtype=bool)
        )
        optimum = construct_optimum(motifs, params, transition)
        assert np.array_equal(optimum, [2, 2, 2, 1, 1, 3, 3, 3, 3, 3])


class TestGeneratedInstances:
    def test_optimum_verifies(self, inst_32_32):
        f = inst_32_32
        assert evaluate(f, f.optimum) == 1.0
        assert is_feasible(f.optimum, f.transition)
        assert check_ergodic(f.transition)

    def test_deterministic_regeneration(self, inst_32_32):
        again = generate(inst_32_32.params)
        assert again == inst_32_32
        assert np.array_equal(again.initial_solution(), inst_32_32.initial_solution())

    def test_distinct_seeds_differ(self):
        a = generate(EhrlichParams.from_name("Ehr(8,16)-2-2-2", seed=0))
        b = generate(EhrlichParams.from_name("Ehr(8,16)-2-2-2", seed=1))
        assert a != b

    def test_dmp_samples_feasible(self, inst_32_32):
        for i in range(20):
            draw = sample_dmp(inst_32_32.transition, 32, (123, 9, i))
            assert is_feasible(draw, inst_32_32.transition)

    def test_motif_chain_is_one_dmp_draw(self, inst_32_32):
        chain = inst_32_32.motifs.motifs.reshape(-1)
        assert is_feasible(chain, inst_32_32.transition)

    def test_offsets_fit_length(self):
        for seed in range(10):
            f = generate(EhrlichParams.from_name("Ehr(8,32)-4-4-2", seed=seed))
            spans = f.motifs.offsets[:, -1] + 1
            assert spans.sum() <= f.params.length

    def test_initial_solution_feasible(self, inst_4_16):
        x0 = inst_4_16.initial_solution()
        assert is_feasible(x0, inst_4_16.transition)
        assert inst_4_16.evaluate(x0) > -math.inf


class TestEvaluate:
    def test_infeasible_scores_minus_inf(self, inst_32_32):
        x = inst_32_32.optimum.copy()
        # One forbidden adjacent transition makes the whole sequence infeasible.
        forbidden = np.argwhere(~inst_32_32.transition.mask)
        x[0], x[1] = forbidden[0]
        assert inst_32_32.evaluate(x) == -math.inf

    def test_regret_values(self, inst_32_32):
        assert regret(inst_32_32, inst_32_32.optimum) == 0.0
        x = inst_32_32.optimum.copy()
        forbidden = np.argwhere(~inst_32_32.transition.mask)
        x[0], x[1] = forbidden[0]
        assert regret(inst_32_32, x) == math.inf

    def test_wrong_shape_rejected(self, inst_32_32):
        with pytest.raises(InvalidParamsError, match="length"):
            inst_32_32.evaluate(np.zeros(5, dtype=np.int64))
        with pytest.raises(InvalidParamsError, match="shape"):
            evaluate_batch(inst_32_32, np.zeros((2, 5), dtype=np.int64))

    def test_out_of_alphabet_rejected(self, inst_4_16):
        with pytest.raises(InvalidParamsError, match="tokens"):
            inst_4_16.evaluate(np.full(16, 9, dtype=np.int64))

    @pytest.mark.parametrize("entry", ["evaluate_batch", "method", "ledger", "is_feasible"])
    def test_batch_entry_rejects_out_of_range_tokens(self, inst_32_32, entry):
        f = inst_32_32
        ledger = EvalLedger(f)
        if entry == "evaluate_batch":
            score = functools.partial(evaluate_batch, f)
        elif entry == "method":
            score = f.evaluate_batch
        elif entry == "ledger":
            score = ledger.evaluate_batch
        else:
            def score(batch):
                return np.array([is_feasible(row, f.transition) for row in batch],
                                dtype=np.float64)
        # The optimum with one token just outside [0, v): -1 must not wrap
        # to v - 1 and v must not index past the mask.
        for bad in (-1, f.params.vocab_size):
            x = f.optimum.copy()
            x[0] = bad
            with pytest.raises(InvalidParamsError, match="tokens"):
                score(x[None, :])
        assert ledger.num_calls == 0
        empty = score(np.zeros((0, f.params.length), dtype=np.int64))
        assert empty.dtype == np.float64 and empty.shape == (0,)

    def test_batch_matches_scalar(self, inst_32_32, rng):
        batch = rng.integers(0, 32, size=(64, 32))
        batch[0] = inst_32_32.optimum
        values = evaluate_batch(inst_32_32, batch)
        for row, expected in zip(batch, values):
            assert inst_32_32.evaluate(row) == expected

    def test_float_matches_exact_rational(self, inst_4_8, rng):
        f = inst_4_8
        batch = rng.integers(0, 4, size=(200, 8))
        values = evaluate_batch(f, batch)
        for row, got in zip(batch, values):
            if not is_feasible(row, f.transition):
                assert got == -math.inf
                continue
            exact = oracles.exact_product(
                row, f.motifs.motifs, f.motifs.offsets, f.params.quantization
            )
            # q=2 keeps everything dyadic, so float arithmetic is exact.
            assert got == float(exact)

    def test_small_brute_force(self):
        f = generate(EhrlichParams(vocab_size=4, length=6, num_motifs=2,
                                   motif_length=2, quantization=2, seed=1))
        batch = oracles.enumerate_sequences(4, 6)
        values = evaluate_batch(f, batch)
        feas = [oracles.feasible_by_scan(row, f.transition.mask) for row in batch]
        assert oracles.exhaustive_max_value(values, feas) == 1.0
        for row, value, ok in zip(batch, values, feas):
            assert is_feasible(row, f.transition) == ok
            assert (value == -math.inf) == (not ok)


class TestGenerationRetry:
    def test_all_seeds_generate(self):
        # A spread of shapes; every one must come back verified.
        for name in ["Ehr(4,8)-2-2-1", "Ehr(8,16)-2-4-4", "Ehr(32,64)-4-4-2"]:
            for seed in range(3):
                f = generate(EhrlichParams.from_name(name, seed=seed))
                assert f.evaluate(f.optimum) == 1.0
