"""Instance document round-trips, rejection paths, and sequence files."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles

from ehrlich import (
    EhrlichParams,
    InvalidParamsError,
    ParseError,
    generate,
    parse_instance,
    read_instance,
    serialize_instance,
    write_instance,
)
from ehrlich.function import PARAM_KEYS
from ehrlich.instance_io import format_sequences, parse_sequences


def test_key_table_names_each_param_field_once_with_its_type():
    fields = {f.name: f.type == "int" for f in dataclasses.fields(EhrlichParams)}
    assert sorted(PARAM_KEYS.values()) == sorted(fields.items())


@pytest.mark.parametrize(
    "name, seed",
    [("Ehr(4,16)-2-2-2", 0), ("Ehr(8,32)-2-4-2", 9), ("Ehr(32,32)-4-4-4", 7)],
)
def test_round_trip_identity(name, seed):
    f = generate(EhrlichParams.from_name(name, seed=seed))
    again = parse_instance(serialize_instance(f))
    assert again == f


def test_round_trip_preserves_bits():
    f = generate(EhrlichParams.from_name("Ehr(32,64)-4-4-4", seed=21))
    again = parse_instance(serialize_instance(f))
    assert np.array_equal(again.transition.entries, f.transition.entries)
    assert serialize_instance(again) == serialize_instance(f)


def test_file_round_trip(tmp_path):
    f = generate(EhrlichParams.from_name("Ehr(4,16)-2-2-2", seed=4))
    path = tmp_path / "instance.json"
    write_instance(f, path)
    assert read_instance(path) == f


def _document(f):
    return json.loads(serialize_instance(f))


def test_rejects_bad_json():
    with pytest.raises(ParseError):
        parse_instance("{not json")


def test_rejects_unknown_version(inst_4_16):
    doc = _document(inst_4_16)
    doc["version"] = 99
    with pytest.raises(ParseError, match="version"):
        parse_instance(json.dumps(doc))


def test_rejects_missing_field(inst_4_16):
    doc = _document(inst_4_16)
    del doc["motifs"]
    with pytest.raises(ParseError, match="motifs"):
        parse_instance(json.dumps(doc))


def test_rejects_name_mismatch(inst_4_16):
    doc = _document(inst_4_16)
    doc["name"] = "Ehr(4,16)-2-2-1"
    with pytest.raises(ParseError, match="name"):
        parse_instance(json.dumps(doc))


def test_rejects_quantization_not_dividing(inst_4_16):
    doc = _document(inst_4_16)
    doc["params"]["q"] = 3
    doc["name"] = "Ehr(4,16)-2-2-3"
    with pytest.raises(InvalidParamsError, match="divide|quantization"):
        parse_instance(json.dumps(doc))


def test_rejects_non_stochastic_row(inst_4_16):
    doc = _document(inst_4_16)
    doc["transition"][0][0] += 0.25
    with pytest.raises(InvalidParamsError, match="sum to 1"):
        parse_instance(json.dumps(doc))


def test_rejects_non_ergodic_transition():
    # Hand-built document whose mask splits into two closed blocks.
    mask = [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]]
    entries = [[0.5 * m for m in row] for row in mask]
    doc = {
        "version": 1,
        "name": "Ehr(4,2)-1-1-1",
        "params": {"v": 4, "L": 2, "c": 1, "k": 1, "q": 1, "a": 0.0,
                   "tau": 1.0, "feasible_fraction": 0.5, "seed": 0},
        "transition": entries,
        "mask": mask,
        "motifs": [[0]],
        "offsets": [[0]],
        "optimum": [0, 0],
    }
    with pytest.raises(InvalidParamsError, match="ergodic"):
        parse_instance(json.dumps(doc))


def test_rejects_tampered_optimum(inst_4_16):
    doc = _document(inst_4_16)
    infeasible = np.argwhere(~inst_4_16.transition.mask)[0]
    doc["optimum"][0], doc["optimum"][1] = int(infeasible[0]), int(infeasible[1])
    with pytest.raises(InvalidParamsError, match="optimum"):
        parse_instance(json.dumps(doc))


class TestSequenceFiles:
    def test_round_trip_without_scores(self, rng):
        tokens = rng.integers(0, 8, size=(5, 12))
        text = format_sequences(tokens)
        parsed, scores = parse_sequences(text, length=12)
        assert np.array_equal(parsed, tokens)
        assert scores is None

    def test_round_trip_with_scores(self, rng):
        tokens = rng.integers(0, 8, size=(4, 6))
        values = np.array([0.25, 1.0, -np.inf, 0.125])
        text = format_sequences(tokens, values)
        parsed, scores = parse_sequences(text, length=6)
        assert np.array_equal(parsed, tokens)
        assert np.array_equal(scores, values)

    def test_malformed_token_names_line_and_column(self):
        text = "1,2,3\n1,x,3\n"
        with pytest.raises(ParseError, match=r"line 2, column 2"):
            parse_sequences(text, length=3)

    def test_wrong_length_rejected(self):
        # 4 fields would parse as tokens+score; 2 and 5 cannot.
        with pytest.raises(ParseError, match="line 1"):
            parse_sequences("1,2\n", length=3)
        with pytest.raises(ParseError, match="line 1"):
            parse_sequences("1,2,3,4,5\n", length=3)

    def test_inconsistent_score_column_rejected(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_sequences("1,2,3,0.5\n1,2,3\n", length=3)

    def test_out_of_alphabet_rejected(self):
        with pytest.raises(ParseError, match="line 1, column 3"):
            parse_sequences("1,2,9\n", length=3, vocab_size=8)

    def test_blank_lines_ignored(self):
        parsed, _ = parse_sequences("\n1,2,3\n\n4,5,6\n", length=3)
        assert parsed.shape == (2, 3)

    def test_blank_lines_before_an_error_count_in_its_line_number(self):
        with pytest.raises(ParseError, match=r"^line 4, column 2: malformed token 'x'$"):
            parse_sequences("1,2,3\n\n  \t\n1,x,3\n", length=3)

    def test_comment_line_is_a_malformed_token(self):
        with pytest.raises(ParseError, match=r"^line 2, column 1: malformed token '# note'$"):
            parse_sequences("1,2,3\n# note,2,3\n", length=3)

    @pytest.mark.parametrize("field", ["1_0", "\u0661", "\xa01", "1\xa0", "1.0", "0x1"])
    def test_tokens_outside_the_grammar_are_malformed(self, field):
        # "1_0", Arabic-Indic one and NBSP-padded fields are what Python's
        # int() reads and the declared grammar does not.
        text = f"1,2,3\n\n1,2,{field}\n"
        with pytest.raises(ParseError, match=r"^line 3, column 3: malformed token "):
            parse_sequences(text, length=3)

    def test_token_beyond_int64_is_malformed_without_vocab(self):
        with pytest.raises(ParseError, match=r"^line 1, column 1: malformed token '99999999999999999999'$"):
            parse_sequences("99999999999999999999,1,2\n", length=3)

    def test_token_beyond_int_conversion_is_malformed(self):
        digits = "1" * 5000
        with pytest.raises(ParseError, match=r"^line 1, column 2: malformed token '1+'$"):
            parse_sequences(f"0,{digits},2\n", length=3, vocab_size=8)

    def test_token_beyond_int64_is_out_of_range_with_vocab(self):
        with pytest.raises(ParseError, match=r"token 99999999999999999999 out of range \[0, 8\)"):
            parse_sequences("99999999999999999999,1,2\n", length=3, vocab_size=8)

    def test_int64_extremes_parse(self):
        top = np.iinfo(np.int64).max
        parsed, _ = parse_sequences(f"{top},0\n", length=2)
        assert parsed.tolist() == [[top, 0]]

    @pytest.mark.parametrize("score", ["1_0.5", "\xa00.5", "0x1p3"])
    def test_scores_outside_the_grammar_are_malformed(self, score):
        with pytest.raises(ParseError, match=r"^line 1, column 4: malformed score "):
            parse_sequences(f"1,2,3,{score}\n", length=3)

    def test_format_rejects_scores_of_another_length(self):
        with pytest.raises(InvalidParamsError, match="scores"):
            format_sequences(np.zeros((3, 2), dtype=np.int64), np.zeros(2))

    def test_format_rejects_a_flat_token_array(self):
        with pytest.raises(InvalidParamsError, match="tokens"):
            format_sequences(np.zeros(3, dtype=np.int64))


# Reference properties: the loadtxt reader and the table-writer output
# against the per-line loops in ``oracles`` on the grammar both accept.

# ASCII padding; "\x0b", "\x0c" and "\x1c"-"\x1e" would end the line.
_PAD = st.sampled_from(["", " ", "\t", "  ", " \x1f"])
_SCORES = [-0.0, 0.0, float("inf"), float("-inf"), float("nan"), 2 / 3, 0.25, 1.0, 1e-300]


@st.composite
def token_text(draw, value):
    sign = draw(st.sampled_from(["", "", "+"]))
    zeros = draw(st.sampled_from(["", "", "0", "000"]))
    return draw(_PAD) + sign + zeros + str(value) + draw(_PAD)


@st.composite
def score_text(draw):
    text = draw(st.sampled_from([repr(v) for v in _SCORES] + ["inf", "-Infinity", "NaN", "1e3", ".5", "5."]))
    return draw(_PAD) + text + draw(_PAD)


_BAD_TOKENS = ["x", "", " ", "1.5", "#3", "0x1", "--1", "-1"]
_BAD_SCORES = ["abc", "", "1e", "--1", "#", "0.5.1"]


@st.composite
def sequence_file(draw):
    """(text, length, vocab_size): a well-formed file, or one with one fault."""
    length = draw(st.integers(1, 5))
    vocab = draw(st.sampled_from([None, 4, 1000]))
    top = (vocab or 10**12) - 1
    rows = draw(st.lists(st.lists(st.integers(0, top), min_size=length, max_size=length),
                         max_size=6))
    with_scores = draw(st.booleans())
    lines = []
    for row in rows:
        fields = [draw(token_text(value)) for value in row]
        if with_scores:
            fields.append(draw(score_text()))
        lines.append(fields)
    fault = draw(st.sampled_from([None, None, "field-count", "score-column", "token", "score"]))
    if fault and lines:
        at = draw(st.integers(0, len(lines) - 1))
        fields = lines[at]
        if fault == "field-count":
            fields = fields[:-2] if len(fields) > 2 else fields + ["0", "0"]
        elif fault == "score-column":
            fields = fields[:length] if with_scores else fields + ["0.5"]
        elif fault == "token" or not with_scores:
            col = draw(st.integers(0, length - 1))
            bad = draw(st.sampled_from(_BAD_TOKENS + [str(vocab or 10**15)]))
            fields = fields[:col] + [bad] + fields[col + 1:]
        else:
            fields = fields[:length] + [draw(st.sampled_from(_BAD_SCORES))]
        lines[at] = fields
    text_lines = [",".join(fields) for fields in lines]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text_lines)))
        text_lines.insert(at, draw(st.sampled_from(["", " ", "\t \t"])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    tail = newline if draw(st.booleans()) else ""
    return newline.join(text_lines) + (tail if text_lines else ""), length, vocab


def _outcome(parse, text, length, vocab):
    try:
        tokens, scores = parse(text, length, vocab)
    except ParseError as exc:
        return "error", str(exc)
    return "ok", tokens, scores


@given(sequence_file())
@settings(max_examples=400, deadline=None)
def test_parse_matches_reference(case):
    text, length, vocab = case
    got = _outcome(parse_sequences, text, length, vocab)
    want = _outcome(oracles.parse_sequences, text, length, vocab)
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
    else:
        assert got[1].dtype == np.int64 and got[1].shape == want[1].shape
        assert np.array_equal(got[1], want[1])
        if want[2] is None:
            assert got[2] is None
        else:
            assert got[2].dtype == np.float64
            assert np.array_equal(got[2], want[2], equal_nan=True)
            assert np.array_equal(np.signbit(got[2]), np.signbit(want[2]))


_JUNK = "0123456789+-_.eEinfaIN #\t \xa0\u0661\x1f\x00,"


@given(st.integers(1, 3),
       st.lists(st.text(alphabet=_JUNK, max_size=8), min_size=1, max_size=4),
       st.sampled_from([None, 8]))
@settings(max_examples=400, deadline=None)
def test_numpy_and_scan_accept_one_grammar(length, lines, vocab):
    # Any text the numpy parse rejects has a line and column the scan
    # names; a text it accepts is one the wider reference reads the same.
    text = "\n".join(lines)
    try:
        tokens, scores = parse_sequences(text, length, vocab)
    except ParseError as exc:
        assert str(exc).startswith("line "), str(exc)
        return
    want_tokens, want_scores = oracles.parse_sequences(text, length, vocab)
    assert np.array_equal(tokens, want_tokens)
    assert (scores is None) == (want_scores is None)
    if scores is not None:
        assert np.array_equal(scores, want_scores, equal_nan=True)


_INT64 = st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max)


@given(st.integers(1, 6), st.integers(0, 8), st.data())
@settings(max_examples=300, deadline=None)
def test_format_matches_reference(length, rows, data):
    values = st.one_of(st.integers(-3, 40), _INT64)
    tokens = np.array(data.draw(st.lists(st.lists(values, min_size=length, max_size=length),
                                         min_size=rows, max_size=rows)),
                      dtype=np.int64).reshape(rows, length)
    scores = data.draw(st.one_of(
        st.none(),
        st.lists(st.one_of(st.sampled_from(_SCORES), st.floats()), min_size=rows, max_size=rows),
    ))
    if scores is not None:
        scores = np.array(scores, dtype=np.float64)
    assert format_sequences(tokens, scores) == oracles.format_sequences(tokens, scores)


def test_format_matches_reference_across_row_blocks(rng):
    # More rows than one writer block, so the block joins are covered.
    tokens = rng.integers(0, 32, size=(40_000, 3))
    scores = rng.choice(np.array(_SCORES), size=40_000)
    assert format_sequences(tokens, scores) == oracles.format_sequences(tokens, scores)
