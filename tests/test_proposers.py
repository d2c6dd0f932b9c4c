"""Proposal generators: exact likelihoods, training, and the text protocol."""

import subprocess
import sys
import textwrap

import numpy as np
import pytest

from ehrlich.errors import InvalidParamsError, ParseError
from ehrlich.ga import mutate
from ehrlich.llome import RefinementDataset
from ehrlich.proposers import (
    EchoProposer,
    MutationProposer,
    ProposalGenerator,
    StdioProposer,
    baseline_mutation_proposer,
    format_completion,
    format_prompt,
    parse_completion,
)


def make_dataset(pair_inputs, pair_targets):
    # pair i is (row i, row P + i) of the stacked inputs and targets
    tokens = np.concatenate([np.asarray(pair_inputs), np.asarray(pair_targets)])
    num_pairs = len(pair_inputs)
    pairs = np.column_stack([np.arange(num_pairs), num_pairs + np.arange(num_pairs)])
    return RefinementDataset(tokens=tokens, pairs=pairs.astype(np.int32),
                             triples=np.empty((0, 3), dtype=np.int32))


class TestMutationProposer:
    def test_satisfies_protocol(self):
        assert isinstance(baseline_mutation_proposer(0.1, 4, 8), ProposalGenerator)
        assert isinstance(EchoProposer(), ProposalGenerator)

    def test_temperature_zero_is_identity_with_loglik_zero(self, rng):
        prop = baseline_mutation_proposer(0.3, 4, 12)
        inputs = rng.integers(0, 4, size=(5, 12))
        proposals, logliks = prop.propose(inputs, 0.0, 3, seed=9)
        assert proposals.shape == (5, 3, 12)
        assert np.array_equal(proposals, np.repeat(inputs[:, None, :], 3, axis=1))
        assert np.array_equal(logliks, np.zeros((5, 3)))

    def test_emitted_loglik_equals_score_likelihood(self, rng):
        prop = baseline_mutation_proposer(0.2, 8, 10)
        inputs = rng.integers(0, 8, size=(6, 10))
        proposals, logliks = prop.propose(inputs, 0.9, 4, seed=(3, 1))
        flat_inputs = np.repeat(inputs, 4, axis=0)
        flat_proposals = proposals.reshape(-1, 10)
        scored = prop.score_likelihood(flat_inputs, flat_proposals, 0.9)
        assert np.array_equal(scored, logliks.ravel())

    def test_draws_through_the_ga_sampler(self, rng):
        prop = MutationProposer(0.2, 4, 8, position_weights=np.linspace(0.0, 2.0, 8))
        inputs = rng.integers(0, 4, size=(5, 8))
        proposals, _ = prop.propose(inputs, 1.3, 6, seed=(4, 1))
        expected = mutate(inputs, prop.edit_probabilities(1.3), 6, 4, (4, 1))
        assert np.array_equal(proposals, expected.reshape(5, 6, 8))

    def test_negative_seed_is_invalid_params(self):
        prop = baseline_mutation_proposer(0.1, 4, 6)
        with pytest.raises(InvalidParamsError, match="non-negative"):
            prop.propose(np.zeros((2, 6), dtype=np.int64), 1.0, 3, seed=-1)

    def test_deterministic_in_seed(self, rng):
        prop = baseline_mutation_proposer(0.15, 4, 8)
        inputs = rng.integers(0, 4, size=(4, 8))
        first = prop.propose(inputs, 1.0, 5, seed=(7, 2))
        second = prop.propose(inputs, 1.0, 5, seed=(7, 2))
        other = prop.propose(inputs, 1.0, 5, seed=(7, 3))
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])
        assert not np.array_equal(first[0], other[0])

    def test_loglik_closed_form(self):
        prop = baseline_mutation_proposer(0.25, 4, 2)
        # edit probability at t=1 is 0.25; emit-same 1-0.25+0.25/4,
        # emit-diff 0.25/4
        same = np.log(1 - 0.25 + 0.0625)
        diff = np.log(0.0625)
        got = prop.score_likelihood(np.array([[1, 2]]), np.array([[1, 3]]), 1.0)
        assert got[0] == pytest.approx(same + diff, abs=1e-15)

    def test_one_dimensional_inputs_accepted(self):
        prop = baseline_mutation_proposer(0.1, 4, 6)
        proposals, logliks = prop.propose(np.zeros(6, dtype=np.int64), 0.0, 2, seed=0)
        assert proposals.shape == (1, 2, 6)
        assert prop.score_likelihood(np.zeros(6, dtype=np.int64), np.zeros(6, dtype=np.int64)).shape == (1,)

    def test_edit_probabilities_clip_to_one(self):
        prop = MutationProposer(0.5, 4, 3, position_weights=np.array([0.5, 1.0, 4.0]))
        edit_p = prop.edit_probabilities(1.0)
        assert edit_p == pytest.approx([0.25, 0.5, 1.0])
        # Position stuck at probability 1 always redraws; likelihoods
        # stay the consistent 1/v for any emission there.
        got = prop.score_likelihood(np.array([[0, 0, 0]]), np.array([[0, 0, 0]]), 1.0)
        assert got[0] == pytest.approx(np.log(0.75 + 0.25 / 4) + np.log(0.5 + 0.5 / 4) + np.log(0.25))

    def test_change_rate_statistics(self, rng):
        rate, vocab = 0.1, 4
        prop = baseline_mutation_proposer(rate, vocab, 100)
        inputs = rng.integers(0, vocab, size=(100, 100))
        proposals, _ = prop.propose(inputs, 1.0, 10, seed=5)
        changed = (proposals != inputs[:, None, :]).mean()
        expected = rate * (1 - 1 / vocab)
        se = np.sqrt(expected * (1 - expected) / proposals.size)
        assert abs(changed - expected) < 3 * se

    def test_train_fits_add_one_smoothed_profile(self):
        # 3 pairs over length 4; per-position edit counts 2, 0, 1, 3
        pair_inputs = np.array([
            [0, 1, 2, 3],
            [1, 1, 1, 1],
            [2, 2, 2, 2],
        ])
        pair_targets = np.array([
            [3, 1, 2, 0],
            [0, 1, 0, 0],
            [2, 2, 2, 0],
        ])
        trained = baseline_mutation_proposer(0.5, 4, 4).train(
            make_dataset(pair_inputs, pair_targets)
        )
        fitted = np.array([3, 1, 2, 4]) / 5.0
        assert trained.mutation_rate == pytest.approx(fitted.mean())
        assert trained.position_weights == pytest.approx(fitted / fitted.mean())
        assert trained.edit_probabilities(1.0) == pytest.approx(fitted)

    def test_train_concentrates_on_edited_positions(self, rng):
        length = 16
        inputs = rng.integers(0, 4, size=(200, length))
        targets = inputs.copy()
        # edits only ever land in the first quarter of the sequence
        for row in targets:
            row[rng.integers(0, length // 4)] ^= 1
        trained = baseline_mutation_proposer(0.1, 4, length).train(
            make_dataset(inputs, targets)
        )
        front = trained.position_weights[: length // 4].mean()
        back = trained.position_weights[length // 4:].mean()
        assert front > 5 * back

    def test_train_without_pairs_returns_self(self):
        prop = baseline_mutation_proposer(0.1, 4, 4)
        assert prop.train(None) is prop
        empty = np.empty((0, 4), dtype=np.int64)
        assert prop.train(make_dataset(empty, empty)) is prop

    @pytest.mark.parametrize("rate", [0.0, 1.0, -0.5, 2.0])
    def test_rejects_bad_rate(self, rate):
        with pytest.raises(InvalidParamsError):
            MutationProposer(rate, 4, 8)

    def test_rejects_bad_weights(self):
        with pytest.raises(InvalidParamsError):
            MutationProposer(0.1, 4, 3, position_weights=np.array([1.0, -1.0, 1.0]))
        with pytest.raises(InvalidParamsError):
            MutationProposer(0.1, 4, 3, position_weights=np.ones(4))

    def test_rejects_wrong_length_inputs(self):
        prop = baseline_mutation_proposer(0.1, 4, 8)
        with pytest.raises(InvalidParamsError):
            prop.propose(np.zeros((2, 5), dtype=np.int64), 1.0, 1, seed=0)


class TestEchoProposer:
    def test_propose_is_identity(self, rng):
        inputs = rng.integers(0, 4, size=(3, 6))
        proposals, logliks = EchoProposer().propose(inputs, 1.3, 4, seed=1)
        assert np.array_equal(proposals, np.repeat(inputs[:, None, :], 4, axis=1))
        assert np.array_equal(logliks, np.zeros((3, 4)))

    def test_score_likelihood(self):
        echo = EchoProposer()
        a = np.array([[1, 2, 3], [4, 5, 6]])
        b = np.array([[1, 2, 3], [4, 5, 0]])
        assert np.array_equal(echo.score_likelihood(a, b), [0.0, -np.inf])

    def test_train_is_noop(self):
        echo = EchoProposer()
        assert echo.train(None) is echo


class TestTextProtocol:
    def test_prompt_format(self):
        assert format_prompt(np.array([3, 0, 12])) == "<inc> [3, 0, 12]"

    def test_completion_round_trip(self):
        tokens = np.array([5, 1, 0, 9])
        parsed, loglik = parse_completion(format_completion(tokens), 4)
        assert np.array_equal(parsed, tokens)
        assert loglik == 0.0

    @pytest.mark.parametrize("line,expected", [
        ("[1, 2, 3] -0.5", -0.5),
        ("[1, 2, 3] -12", -12.0),
        ("  [1,2,3]   -1.5e-3 ", -1.5e-3),
        ("[1, 2, 3]", 0.0),
    ])
    def test_loglik_suffix(self, line, expected):
        tokens, loglik = parse_completion(line, 3)
        assert np.array_equal(tokens, [1, 2, 3])
        assert loglik == expected

    @pytest.mark.parametrize("line", [
        "1, 2, 3",
        "[1, 2, 3",
        "[1, 2, three]",
        "[1, 2, 3] not-a-number",
        "",
    ])
    def test_malformed_lines_rejected(self, line):
        with pytest.raises(ParseError):
            parse_completion(line, 3)

    def test_wrong_token_count_rejected(self):
        with pytest.raises(ParseError, match="expected 4"):
            parse_completion("[1, 2, 3]", 4)

    def test_out_of_range_token_rejected(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_completion("[1, 2, 9]", 3, vocab_size=4)
        with pytest.raises(ParseError, match="out of range"):
            parse_completion("[-1, 2, 3]", 3, vocab_size=4)


CHILD_INCREMENT = textwrap.dedent("""
    import sys
    for line in sys.stdin:
        body = line.strip().removeprefix("<inc> ").strip("[]")
        tokens = [(int(t) + 1) % 4 for t in body.split(",")]
        print("[" + ", ".join(map(str, tokens)) + "] -0.25", flush=True)
""")

CHILD_MALFORMED = textwrap.dedent("""
    import sys
    for line in sys.stdin:
        print("not a completion", flush=True)
""")


class TestStdioProposer:
    def test_round_trip_with_child_process(self, tmp_path, rng):
        script = tmp_path / "child.py"
        script.write_text(CHILD_INCREMENT)
        inputs = rng.integers(0, 4, size=(3, 5))
        with StdioProposer([sys.executable, str(script)], 4, 5) as prop:
            proposals, logliks = prop.propose(inputs, 1.0, 2, seed=0)
        assert proposals.shape == (3, 2, 5)
        assert np.array_equal(proposals, np.repeat((inputs[:, None, :] + 1) % 4, 2, axis=1))
        assert np.array_equal(logliks, np.full((3, 2), -0.25))

    def test_malformed_child_output_raises(self, tmp_path):
        script = tmp_path / "bad.py"
        script.write_text(CHILD_MALFORMED)
        with StdioProposer([sys.executable, str(script)], 4, 5) as prop:
            with pytest.raises(ParseError):
                prop.propose(np.zeros((1, 5), dtype=np.int64), 1.0, 1, seed=0)

    def test_closed_child_raises(self, tmp_path):
        script = tmp_path / "quit.py"
        script.write_text("pass\n")
        with StdioProposer([sys.executable, str(script)], 4, 5) as prop:
            with pytest.raises(ParseError, match="closed its output"):
                prop.propose(np.zeros((1, 5), dtype=np.int64), 1.0, 1, seed=0)

    def test_score_and_train_are_inert(self, tmp_path):
        script = tmp_path / "child.py"
        script.write_text(CHILD_INCREMENT)
        with StdioProposer([sys.executable, str(script)], 4, 5) as prop:
            assert np.array_equal(
                prop.score_likelihood(np.zeros((2, 5), dtype=np.int64),
                                      np.ones((2, 5), dtype=np.int64)),
                np.zeros(2),
            )
            assert prop.train(None) is prop

    @pytest.mark.parametrize("vocab_size, length", [(0, 5), (4, -1), ("4", 5), (4, 2.5)])
    def test_bad_sizes_are_refused_before_the_child_starts(self, monkeypatch, vocab_size, length):
        def no_child(*args, **kwargs):
            raise AssertionError("Popen was called")

        monkeypatch.setattr(subprocess, "Popen", no_child)
        with pytest.raises(InvalidParamsError):
            StdioProposer(["true"], vocab_size, length)

    def test_close_kills_a_child_that_outlives_the_wait(self, tmp_path, monkeypatch):
        script = tmp_path / "stubborn.py"
        script.write_text("import time\ntime.sleep(60)\n")
        prop = StdioProposer([sys.executable, str(script)], 4, 5)
        proc = prop._proc
        real_wait = proc.wait
        timeouts = []

        def wait_times_out_once(timeout=None):
            if not timeouts:
                timeouts.append(timeout)
                raise subprocess.TimeoutExpired(proc.args, timeout)
            return real_wait(timeout)

        monkeypatch.setattr(proc, "wait", wait_times_out_once)
        prop.close()
        assert timeouts == [10]
        assert proc.returncode is not None and proc.returncode < 0  # killed, reaped
