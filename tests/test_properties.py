"""Property-based checks of the scoring and construction invariants."""

import numpy as np
from hypothesis import event, example, given, settings, strategies as st

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
from ehrlich import rng as ehrlich_rng
from ehrlich.kernels import feasible_rows
from ehrlich.llome import LoopConfig, ScoredSet, iterative_refinement

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


_INT64 = np.iinfo(np.int64)


@st.composite
def refinement_case(draw):
    """A chain layout and a pool of proposal rows whose packed width plus
    arrival bits, L * b + ceil(log2 n), is 63, 64 or 65.

    Returns (seeds, iters, samples, greedy_only, pool, rising). Pool row 0
    holds the pool's minimum and maximum (for L = 1, rows 0 and 1 do), and
    the proposer emits those rows first, so b is the drawn width unless
    only one row is proposed. Twins of pool rows differ from them in one
    bit of one token's offset from the minimum: the top bit of the first
    token, the low bit of the last, and one drawn bit. A packing that
    drops or overlaps bits merges a row with its twin.
    """
    seeds = draw(st.integers(1, 8))
    iters = draw(st.integers(1, 8))
    samples = draw(st.integers(1, 15))
    greedy_only = draw(st.booleans())
    n = seeds * iters * (1 if greedy_only else 1 + samples)
    row_bits = draw(st.sampled_from([63, 64, 65])) - (n - 1).bit_length()
    length, width = draw(st.sampled_from(
        [(L, row_bits // L) for L in range(1, 17) if row_bits % L == 0 and row_bits // L <= 64]))
    # narrow (int8, int16), negative and +-2**40 token ranges
    lo = draw(st.sampled_from([0, -1, -128, -(2 ** 15), -(2 ** 40) - 3, 2 ** 40 - 5, _INT64.min]))
    lo = min(lo, _INT64.max - (1 << width) + 1)
    hi = lo + (1 << width) - 1
    size = draw(st.integers(2 if length == 1 else 1, 6))
    pool = np.array(draw(st.lists(st.lists(st.integers(lo, hi), min_size=length, max_size=length),
                                  min_size=size, max_size=size)), dtype=np.int64)
    if length == 1:
        pool[:2, 0] = lo, hi
    else:
        pool[0, 0], pool[0, -1] = lo, hi
    flips = [(0, 0, width - 1), (0, length - 1, 0),
             (draw(st.integers(0, size - 1)), draw(st.integers(0, length - 1)),
              draw(st.integers(0, width - 1)))]
    twins = pool[[row for row, _, _ in flips]]
    for twin, (_, column, bit) in zip(twins, flips):
        twin[column] = lo + ((int(twin[column]) - lo) ^ (1 << bit))
    pool = np.concatenate([pool, twins])
    return seeds, iters, samples, greedy_only, pool, draw(st.booleans())


class _PoolProposer:
    """Proposes rows of a fixed pool, the extreme rows first, with
    log-likelihoods tied at -1.0, -0.0 and 0.0 (plus the call count when
    ``rising``); with ``greedy_only`` only the temperature-0 chain proposes."""

    def __init__(self, pool, greedy_only, rising):
        self.pool, self.greedy_only, self.rising = pool, greedy_only, rising
        self.extremes = list(range(min(2, pool.shape[0])))
        self.batches = []

    def propose(self, inputs, temperature, count, seed=0):
        batch = inputs.shape[0]
        if self.greedy_only and temperature > 0:
            return np.empty((batch, 0, self.pool.shape[1]), np.int64), np.empty((batch, 0))
        gen = ehrlich_rng.substream(seed)
        picks = gen.integers(0, self.pool.shape[0], size=batch * count)
        lead = self.extremes[:picks.size]
        picks[:len(lead)] = lead
        del self.extremes[:len(lead)]
        proposals = self.pool[picks].reshape(batch, count, -1)
        logliks = np.array([-1.0, -0.0, 0.0])[gen.integers(0, 3, size=(batch, count))]
        if self.rising:
            logliks += len(self.batches)
        self.batches.append((proposals, logliks))
        return proposals, logliks


@given(refinement_case())
@example((1, 1, 1, True, np.array([[5]]), False))  # n = 1
@settings(max_examples=300, deadline=None)
def test_refinement_dedupe_matches_void_sort(case):
    seeds, iters, samples, greedy_only, pool, rising = case
    values = np.arange(seeds, 0, -1) / seeds  # distinct and descending: seed i is row i
    scored = ScoredSet(np.zeros((seeds, pool.shape[1]), np.int64), values)
    config = LoopConfig(seeds_per_round=seeds, refine_iters=iters, samples_per_iter=samples,
                        base_temperatures=(1.0,))
    proposer = _PoolProposer(pool, greedy_only, rising)
    out = iterative_refinement(proposer, scored, config, seed=(4, 2))

    rows = np.concatenate([p.reshape(-1, p.shape[2]) for p, _ in proposer.batches])
    logliks = np.concatenate([ll.ravel() for _, ll in proposer.batches])
    seed_ids = np.concatenate([np.repeat(np.arange(seeds), p.shape[1]) for p, _ in proposer.batches])
    width = (int(rows.max()) - int(rows.min())).bit_length()
    event(f"L*b + arrival bits = {rows.shape[1] * width + (rows.shape[0] - 1).bit_length()}")
    first, winner = oracles.dedupe_by_void_sort(rows, logliks)
    assert out.tokens.dtype == np.int64
    assert np.array_equal(out.tokens, rows[first])
    # bytes, so -0.0 and 0.0 winners are told apart
    assert out.logliks.tobytes() == logliks[winner].tobytes()
    assert np.array_equal(out.seed_indices, seed_ids[winner])
    assert out.seed_values.tobytes() == values[seed_ids[winner]].tobytes()
