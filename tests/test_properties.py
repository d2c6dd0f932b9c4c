"""Property-based checks of the scoring and construction invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

import oracles
from ehrlich import (
    EhrlichParams,
    evaluate,
    generate,
    is_feasible,
    motif_score,
    parse_instance,
    sample_dmp,
    serialize_instance,
)
from ehrlich.kernels import feasible_rows

# Keep generation-heavy properties cheap: tiny alphabets, short sequences.
small_seed = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def motif_setup(draw):
    length = draw(st.integers(min_value=2, max_value=16))
    k = draw(st.integers(min_value=1, max_value=min(6, length)))
    vocab = draw(st.integers(min_value=2, max_value=8))
    tokens = draw(
        st.lists(st.integers(0, vocab - 1), min_size=length, max_size=length)
    )
    motif = draw(st.lists(st.integers(0, vocab - 1), min_size=k, max_size=k))
    gaps = draw(st.lists(st.integers(1, 3), min_size=k - 1, max_size=k - 1))
    offsets = np.concatenate([[0], np.cumsum(gaps)]).astype(np.int64) if k > 1 else np.zeros(1, np.int64)
    return np.asarray(tokens), np.asarray(motif), offsets


@given(motif_setup())
@settings(max_examples=200, deadline=None)
def test_quantization_refinement_monotone(setup):
    # Finer quantization never lowers the satisfaction level:
    # best/k >= floor(best/k) pointwise.
    tokens, motif, offsets = setup
    k = len(motif)
    assert motif_score(tokens, motif, offsets, k) >= motif_score(tokens, motif, offsets, 1)


@given(motif_setup())
@settings(max_examples=200, deadline=None)
def test_motif_score_bounds(setup):
    tokens, motif, offsets = setup
    k = len(motif)
    for q in [d for d in range(1, k + 1) if k % d == 0]:
        score = motif_score(tokens, motif, offsets, q)
        assert 0 <= score <= 1
        assert score.denominator <= q  # quantized to multiples of 1/q


@given(small_seed)
@settings(max_examples=25, deadline=None)
def test_generated_instance_invariants(seed):
    f = generate(EhrlichParams(vocab_size=4, length=8, num_motifs=2,
                               motif_length=2, quantization=2, seed=seed))
    assert evaluate(f, f.optimum) == 1.0
    assert is_feasible(f.optimum, f.transition)
    assert is_feasible(f.initial_solution(), f.transition)
    spans = f.motifs.offsets[:, -1] + 1
    assert spans.sum() <= f.params.length


@given(small_seed)
@settings(max_examples=10, deadline=None)
def test_serialization_round_trip(seed):
    f = generate(EhrlichParams(vocab_size=8, length=12, num_motifs=2,
                               motif_length=3, quantization=3, seed=seed))
    assert parse_instance(serialize_instance(f)) == f


_DMP_HOST = generate(EhrlichParams(vocab_size=4, length=8, num_motifs=2,
                                   motif_length=2, quantization=2, seed=0))


@given(small_seed, st.integers(min_value=1, max_value=20))
@settings(max_examples=50, deadline=None)
def test_dmp_samples_always_feasible(seed, length):
    draw = sample_dmp(_DMP_HOST.transition, length, (seed, 99))
    assert is_feasible(draw, _DMP_HOST.transition)


@st.composite
def feasibility_case(draw):
    """A random (v, v) mask, v up to 300, and an (N, L) token batch in int64
    or in the narrow dtype that holds v - 1, C-ordered or laid out as the
    transpose of an (L, N) array (as the numpy kernel passes it)."""
    vocab = draw(st.one_of(st.integers(1, 300), st.sampled_from([16, 17, 255, 256, 257, 300])))
    density = draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    mask = np.random.default_rng(draw(small_seed)).random((vocab, vocab)) < density
    length = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(st.integers(0, vocab - 1), min_size=length, max_size=length),
                         max_size=6))
    tokens = np.array(rows, dtype=np.int64).reshape(len(rows), length)
    if draw(st.booleans()):
        tokens = tokens.astype(np.min_scalar_type(vocab - 1))
    if draw(st.booleans()):
        tokens = np.ascontiguousarray(tokens.T).T
    return tokens, mask


@given(feasibility_case())
@settings(max_examples=300, deadline=None)
def test_feasible_rows_matches_scan(case):
    # A flat index a * v + b computed in a dtype narrower than v**2 - 1
    # would wrap and look up the wrong mask entry.
    tokens, mask = case
    expected = np.array([oracles.feasible_by_scan(row, mask) for row in tokens], dtype=bool)
    got = feasible_rows(tokens, mask)
    assert got.dtype == bool and got.shape == (tokens.shape[0],)
    assert np.array_equal(got, expected)
