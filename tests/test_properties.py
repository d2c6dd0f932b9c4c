"""Property-based checks of the scoring, construction and writer invariants."""

import functools
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

import oracles
from ehrlich import (
    EhrlichError,
    EhrlichParams,
    EvalLedger,
    InvalidParamsError,
    RunRecord,
    baseline_mutation_proposer,
    evaluate,
    format_dataset,
    generate,
    is_feasible,
    motif_score,
    mutate,
    parse_instance,
    read_instance,
    read_run_record,
    read_run_record_json,
    recombine,
    sample_dmp,
    serialize_instance,
    unique_flags,
)
from ehrlich import rng as ehrlich_rng
from ehrlich import tables
from ehrlich.function import incumbent_of, token_dtype
from ehrlich.instance_io import format_sequences, parse_sequences, read_text
from ehrlich.kernels import feasible_rows
from ehrlich.llome import LoopConfig, ScoredSet, iterative_refinement
from test_records import oracle_csv, oracle_json, run_ga_curve

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


# --- table writer against the per-row reference writers ----------------------

# values whose repr or JSON text is long, short, signed, subnormal or inexact
_VALUES = [-np.inf, -0.0, 0.0, 5e-324, 1e-300, 1e16, 0.1 + 0.2, 2.0 / 3.0]
# a few cells per block, so most examples straddle block joins
_SMALL_BLOCKS = st.integers(1, 12)


def _ascending(draw, start, gap, size):
    """``size`` values from ``start`` with drawn gaps, cut where they pass int64."""
    values = [draw(start)]
    for _ in range(size - 1):
        values.append(values[-1] + draw(gap))
    return [v for v in values if v <= _INT64.max]


@st.composite
def run_record(draw):
    size = draw(st.integers(1, 30))
    eval_index = _ascending(draw, st.integers(1, 3), st.one_of(st.integers(1, 3),
                                                               st.integers(1, 2 ** 62)), size)
    size = len(eval_index)
    rounds = _ascending(draw, st.integers(0, 2 ** 40), st.one_of(st.integers(0, 2),
                                                                 st.integers(0, 2 ** 40)), size)
    values = np.array(draw(st.lists(st.sampled_from(_VALUES), min_size=size, max_size=size)))
    return RunRecord(
        run_id=draw(st.sampled_from(["r", 'run "é"', "a\\b"])),
        instance_name="Ehr(4,8)-2-2-2", instance_seed=draw(st.integers(-2 ** 63, 2 ** 63 - 1)),
        solver="ga", config_hash="0" * 12, eval_index=eval_index, rounds=rounds,
        values=values, feasible=~np.isneginf(values),
        unique=draw(st.lists(st.booleans(), min_size=size, max_size=size)),
        duration_seconds=draw(st.sampled_from([0.0, 5e-324, 1e16, 0.1 + 0.2])),
    )


@st.composite
def split_rows(draw):
    """A (N, L) row block of a ledger or caller dtype, with few distinct
    values so rows repeat, and sorted cut points that split it into parts."""
    dtype = np.dtype(draw(st.sampled_from([np.uint8, np.uint16, np.int64])))
    info = np.iinfo(dtype)
    width, n = draw(st.integers(0, 4)), draw(st.integers(0, 30))
    cells = draw(st.lists(st.sampled_from(sorted({0, 1, int(info.min), int(info.max)})),
                          min_size=n * width, max_size=n * width))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=5)))
    return np.array(cells, dtype=dtype).reshape(n, width), cuts


@given(split_rows())
@example((np.zeros((3, 0), dtype=np.uint8), [1, 1]))
@settings(max_examples=300, deadline=None)
def test_unique_flags_streamed_through_one_seen_equal_the_whole(case):
    rows, cuts = case
    seen = {}
    streamed = [unique_flags(part, seen) for part in np.split(rows, cuts)]
    flags = np.concatenate(streamed)
    assert flags.dtype == bool
    assert np.array_equal(flags, unique_flags(rows))
    earlier = [tuple(row) for row in rows.tolist()]
    assert flags.tolist() == [row not in earlier[:i] for i, row in enumerate(earlier)]
    assert len(seen) == int(flags.sum())


@given(run_record(), _SMALL_BLOCKS)
@settings(max_examples=300, deadline=None)
def test_record_writers_match_per_row_references(record, block):
    with mock.patch.object(tables, "_BLOCK_CELLS", block):
        assert record.to_csv() == oracle_csv(record)
        assert record.to_json() == oracle_json(record)


_TOKENS = st.one_of(st.integers(-3, 40), st.sampled_from([_INT64.min, _INT64.max, -1]),
                    st.integers(_INT64.min, _INT64.max))


@given(st.integers(1, 5), st.integers(0, 12), _SMALL_BLOCKS, st.data())
@settings(max_examples=300, deadline=None)
def test_sequence_writer_matches_per_row_reference(length, rows, block, data):
    tokens = np.array(data.draw(st.lists(st.lists(_TOKENS, min_size=length, max_size=length),
                                         min_size=rows, max_size=rows)),
                      dtype=np.int64).reshape(rows, length)
    scores = data.draw(st.one_of(st.none(), st.lists(st.sampled_from(_VALUES),
                                                     min_size=rows, max_size=rows)))
    if scores is not None:
        scores = np.array(scores)
    with mock.patch.object(tables, "_BLOCK_CELLS", block):
        assert format_sequences(tokens, scores) == oracles.format_sequences(tokens, scores)


# labels keep every character a table field may hold: non-ASCII and NUL too
_LABELS = st.text(alphabet="ab=é\0 ", min_size=1, max_size=5)


@given(st.lists(st.tuples(_LABELS, st.sampled_from(_VALUES + [np.inf]),
                          st.sampled_from(_VALUES + [np.inf])),
                min_size=1, max_size=12),
       _SMALL_BLOCKS)
@example([("a\0", 1e16, 0.0), ("é", 2.0 / 3.0, np.inf)], 1)
# a label that would break a row: each character the writer refuses
@example([("a,b", 1.0, 0.5)], 1)
@example([("a", 1.0, 0.5), ("#", 2.0, 0.5)], 1)
@example([("a\nb", 1.0, 0.5)], 2)
@example([("a", 1.0, 0.5), ("b\r", 2.0, 0.5)], 1)
@settings(max_examples=200, deadline=None)
def test_pareto_writer_matches_per_row_reference(points, block):
    labels, budgets, regrets = zip(*points)
    columns = {"label": np.array(labels, dtype=object), "budget": budgets,
               "min_regret": regrets}
    with mock.patch.object(tables, "_BLOCK_CELLS", block):
        if any(mark in label for label in labels for mark in ",#\r\n"):
            with pytest.raises(InvalidParamsError, match="table cell must not contain"):
                tables.format_table("pareto-report", 1, columns)
        else:
            assert (tables.format_table("pareto-report", 1, columns)
                    == oracles.pareto_csv(labels, budgets, regrets))


# values from [0, 1] and -inf, with few distinct ones so ties are common
_RUN_VALUES = st.one_of(st.sampled_from([-np.inf, 0.0, 1.0 / 3.0, 0.5, 1.0]),
                        st.floats(0.0, 1.0))


@given(st.lists(_RUN_VALUES, min_size=1, max_size=40), _SMALL_BLOCKS)
@example([-np.inf], 1)
@example([0.5], 1)
@example([-np.inf, -np.inf, -np.inf], 2)
@example([0.25, 0.25, -np.inf, 0.25], 1)
@example([-np.inf, 5e-324, 1.0, 1.0], 3)
@settings(max_examples=200, deadline=None)
def test_curve_writer_matches_per_row_reference(values, block):
    with tempfile.TemporaryDirectory() as out, \
            mock.patch.object(tables, "_BLOCK_CELLS", block):
        assert run_ga_curve(values, out).read_text() == oracles.curve_csv(values)


# --- the JSON mirror reader under byte mutations ----------------------------

_JSON_BYTES = st.sampled_from(list(b'{}[]",:0123456789-+.eE tnfalsruIN\\\n') + [0, 0x80, 0xC3, 0xFF])


_VALUES = np.array([-np.inf, 0.5, 0.5, 1.0])
_RECORD = RunRecord(run_id="r", instance_name="Ehr(4,8)-2-2-2", instance_seed=3,
                    solver="ga", config_hash="0" * 12, eval_index=[1, 2, 3, 4],
                    rounds=[0, 1, 1, 2], values=_VALUES, feasible=~np.isneginf(_VALUES),
                    unique=[True, True, False, True], duration_seconds=0.5)


@pytest.fixture(scope="module")
def mirror(tmp_path_factory):
    """A valid mirror's bytes, and a path to write mutated copies to."""
    return _RECORD.to_json().encode(), tmp_path_factory.mktemp("mirror") / "mutated.json"


@st.composite
def mutations(draw, data, alphabet=_JSON_BYTES):
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["replace", "delete", "insert", "truncate"]))
        if kind == "replace" and at < len(data):
            data[at] = draw(alphabet)
        elif kind == "delete":
            del data[at:at + draw(st.integers(1, 8))]
        elif kind == "insert":
            data[at:at] = bytes(draw(st.lists(alphabet, min_size=1, max_size=8)))
        else:
            del data[at:]
    return bytes(data)


@given(st.data())
@settings(max_examples=500, deadline=None)
def test_mutated_mirror_raises_only_package_errors(mirror, data):
    valid, path = mirror
    path.write_bytes(data.draw(mutations(valid)))
    try:
        read_run_record_json(path)
    except EhrlichError as exc:
        event(type(exc).__name__)
    else:
        event("read")


# --- the other readers under byte mutations ---------------------------------

# What the JSON and table grammars are made of, the ASCII separators numpy
# strips, and bytes that are not UTF-8 or decode to non-ASCII whitespace.
_READER_BYTES = st.sampled_from(
    list(b'{}[]",:0123456789-+.eE tnfalsruIN\\\n\r\t#=_x\x0b\x1c') + [0, 0x80, 0xA0, 0xC2, 0xC3, 0xFF])


@pytest.fixture(scope="module")
def documents(inst_4_8, tmp_path_factory):
    """Each reader's valid input bytes, and a path to write mutated copies to."""
    rows = np.stack([inst_4_8.optimum, np.roll(inst_4_8.optimum, 1)])
    texts = {
        "parse_instance": serialize_instance(inst_4_8),
        "parse_sequences": format_sequences(rows, np.array([1.0, -np.inf])),
        "read_run_record": _RECORD.to_csv(),
    }
    return ({name: text.encode() for name, text in texts.items()},
            tmp_path_factory.mktemp("documents") / "mutated")


READERS = {
    "parse_instance": read_instance,
    "parse_sequences": lambda path: parse_sequences(read_text(path, "sequence file"), 8, 4),
    "read_run_record": read_run_record,
}


@pytest.mark.parametrize("reader", READERS)
@given(st.data())
@settings(max_examples=500, deadline=None)
def test_mutated_input_raises_only_package_errors(documents, reader, data):
    valid, path = documents
    path.write_bytes(data.draw(mutations(valid[reader], _READER_BYTES)))
    try:
        READERS[reader](path)
    except EhrlichError as exc:
        event(type(exc).__name__)
    else:
        event("read")


_BATCH_VALUES = st.lists(st.sampled_from([-np.inf, 0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=6)


@given(st.lists(_BATCH_VALUES, min_size=1, max_size=6))
@example([[-np.inf, 0.5], [-np.inf], [0.5, 0.5]])
@example([[-np.inf], [-np.inf, -np.inf]])
@settings(max_examples=300, deadline=None)
def test_incumbent_folded_over_batches_is_the_incumbent_of_all(batches):
    # Row i holds tokens [i, i], so the tokens name the row that won.
    values = np.concatenate([np.array(batch) for batch in batches])
    tokens = np.repeat(np.arange(values.size), 2).reshape(-1, 2)
    incumbent, start = None, 0
    for batch in batches:
        stop = start + len(batch)
        incumbent = incumbent_of(tokens[start:stop], values[start:stop], incumbent)
        start = stop
    whole = incumbent_of(tokens, values)
    assert np.array_equal(incumbent.tokens, whole.tokens)
    assert incumbent.value == whole.value
    # the first best row in evaluation order; row 0 when nothing is feasible
    assert int(whole.tokens[0]) == int(np.argmax(values))
    event(f"ties at the best: {int((values == values.max()).sum()) > 1}")
    event(f"all -inf: {bool(np.isneginf(values).all())}")


# --- one token dtype ------------------------------------------------------------

@functools.cache
def _instance_of_vocabulary(vocab):
    # v = 300 is past uint8, so its tokens are uint16
    name, seed = {4: ("Ehr(4,16)-2-2-2", 1), 300: ("Ehr(300,16)-2-2-2", 2)}[vocab]
    return generate(EhrlichParams.from_name(name, seed=seed))


@given(st.sampled_from([4, 300]), st.integers(1, 12), small_seed, st.data())
@settings(max_examples=100, deadline=None)
def test_input_token_dtype_changes_no_result(vocab, rows, seed, data):
    function = _instance_of_vocabulary(vocab)
    length = function.params.length
    cells = st.lists(st.integers(0, vocab - 1), min_size=length, max_size=length)
    tokens = np.array(data.draw(st.lists(cells, min_size=rows, max_size=rows)))
    tokens[0] = function.optimum  # one feasible row with value 1
    values = np.array(data.draw(st.permutations(range(rows)))) / rows
    proposer = baseline_mutation_proposer(0.3, vocab, length)
    outputs = []
    for dtype in (np.uint8, np.uint16, np.int32, np.int64, np.uint64):
        if np.iinfo(dtype).max < vocab - 1:
            continue
        batch = tokens.astype(dtype)
        mutated = mutate(batch, 0.3, 2, vocab, seed)
        children = recombine(batch, 0.5, 5, seed)
        proposals, logliks = proposer.propose(batch, 1.0, 2, seed)
        assert mutated.dtype == proposals.dtype == token_dtype(vocab)
        assert children.dtype == batch.dtype  # recombine knows no vocabulary
        scored = ScoredSet(batch, values)
        dataset = format_dataset(scored, "triples", 1.0, 5)
        assert dataset.tokens is scored.tokens  # indices, not copies of the rows
        assert dataset.pairs.dtype == dataset.triples.dtype == np.int32
        outputs.append((function.evaluate_batch(batch).tobytes(), mutated.tobytes(),
                        children.tolist(), proposals.tobytes(), logliks.tobytes(),
                        dataset.pairs.tobytes(), dataset.triples.tobytes()))
    assert all(output == outputs[0] for output in outputs)


@given(st.sampled_from([4, 300]), st.data())
@settings(max_examples=100, deadline=None)
def test_ledger_rebuilds_the_scored_rows_from_its_distinct_rows(vocab, data):
    # rows drawn from a small pool repeat within and across batches, and a
    # batch the function rejects in between leaves no trace
    function = _instance_of_vocabulary(vocab)
    length = function.params.length
    cells = st.lists(st.sampled_from([0, 1, vocab - 1]), min_size=length, max_size=length)
    pool = np.array(data.draw(st.lists(cells, min_size=1, max_size=4)))
    picks = st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=6)
    batches = [pool[rows] for rows in data.draw(st.lists(picks, min_size=1, max_size=5))]
    rejected_at = data.draw(st.integers(0, len(batches)))
    ledger = EvalLedger(function)
    for i, batch in enumerate([*batches, None]):
        if i == rejected_at:
            with pytest.raises(InvalidParamsError):
                ledger.evaluate_batch(np.vstack([pool[:1], np.full((1, length), vocab)]))
        if batch is not None:
            ledger.evaluate_batch(batch)
    scored = np.concatenate(batches)
    for dtype in (np.int64, token_dtype(vocab)):
        tokens = ledger.tokens(dtype)
        assert tokens.dtype == dtype
        assert np.array_equal(tokens, scored)
    assert np.array_equal(ledger.unique(), unique_flags(ledger.tokens()))
    event(f"distinct rows: {len(np.unique(scored, axis=0))} of {len(scored)}")
