"""Proposal generators: the pluggable stand-in for a sequence editor.

The refinement loop is generator-agnostic; anything implementing the
``ProposalGenerator`` protocol can drive it. ``propose`` is batch-first:
``inputs`` is an (B, L) token array and the result is a (B, count, L)
proposal array with (B, count) log-likelihoods. Log-likelihoods of
returned proposals are always finite, and proposing is deterministic
given an explicit seed.

``MutationProposer`` is the baseline: temperature-scaled per-position
substitution with exactly computable emission likelihoods, plus a
``train`` step that refits the per-position edit profile from improving
pairs. ``EchoProposer`` returns its input unchanged (useful for
plumbing tests). ``StdioProposer`` adapts an external line-based text
process speaking ``<inc> [t1, t2, ...]`` prompts.
"""

from __future__ import annotations

import numbers
import re
import subprocess
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from . import rng
from .errors import ParseError, require, require_counts, require_temperature
from .function import as_tokens
# Bound by name: replacing ``ga.mutate``, as a tracer does, leaves proposals out.
from .ga import mutate


@runtime_checkable
class ProposalGenerator(Protocol):
    def propose(self, inputs: np.ndarray, temperature: float, count: int,
                seed: rng.SeedLike = 0) -> tuple[np.ndarray, np.ndarray]:
        """Return (proposals (B, count, L), log_likelihoods (B, count))."""
        ...

    def score_likelihood(self, inputs: np.ndarray, outputs: np.ndarray,
                         temperature: float = 1.0) -> np.ndarray:
        """Log-likelihood of emitting each output from each input."""
        ...

    def train(self, dataset) -> "ProposalGenerator":
        """Return a new generator fitted to the dataset (may be self)."""
        ...


def _as_batch(inputs, vocab_size: int | None = None, length: int | None = None) -> np.ndarray:
    """(B, L) tokens through ``as_tokens``; one (L,) sequence is a batch of one."""
    return np.atleast_2d(as_tokens(inputs, vocab_size, length, ndims=(1, 2)))


@dataclass(frozen=True)
class MutationProposer:
    """Per-position substitution proposer with exact emission likelihoods.

    Position p is edited with probability
    ``clip(temperature * mutation_rate * weight[p], 0, 1)``; an edit
    redraws the token uniformly over the vocabulary (possibly equal to
    the original). The probability of emitting token o at position p
    from input token i is therefore ``1 - e_p + e_p/v`` when o == i and
    ``e_p / v`` otherwise, which ``score_likelihood`` computes exactly.
    At temperature 0 the proposer is the identity with log-likelihood 0.
    """

    mutation_rate: float
    vocab_size: int
    length: int
    position_weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        rate = self.mutation_rate
        require(isinstance(rate, numbers.Real) and 0.0 < rate < 1.0,
                f"mutation_rate must be in (0, 1), got {rate!r}")
        require_counts(1, vocab_size=self.vocab_size, length=self.length)
        weights = np.ones(self.length) if self.position_weights is None else self.position_weights
        weights = np.asarray(weights, dtype=np.float64)
        require(weights.shape == (self.length,) and bool((weights >= 0).all()),
                "position_weights must be nonnegative with shape (length,)")
        object.__setattr__(self, "position_weights", weights)

    def edit_probabilities(self, temperature: float) -> np.ndarray:
        require_temperature("temperature", temperature)
        return np.clip(temperature * self.mutation_rate * self.position_weights, 0.0, 1.0)

    def propose(self, inputs, temperature, count, seed: rng.SeedLike = 0):
        """(B, count, L) proposals in the token dtype, and their log-likelihoods."""
        inputs = _as_batch(inputs, self.vocab_size, self.length)
        batch, length = inputs.shape
        edit_p = self.edit_probabilities(temperature)
        proposals = mutate(inputs, edit_p, count, self.vocab_size, seed)
        proposals = proposals.reshape(batch, count, length)
        return proposals, self._loglik(inputs[:, None, :], proposals, edit_p)

    def _loglik(self, inputs, outputs, edit_p) -> np.ndarray:
        v = self.vocab_size
        same = outputs == inputs
        with np.errstate(divide="ignore"):
            log_same = np.log(1.0 - edit_p + edit_p / v)
            log_diff = np.log(edit_p / v)
        return np.where(same, log_same, log_diff).sum(axis=-1)

    def score_likelihood(self, inputs, outputs, temperature: float = 1.0):
        inputs = _as_batch(inputs, self.vocab_size, self.length)
        outputs = _as_batch(outputs, self.vocab_size, self.length)
        require(inputs.shape == outputs.shape,
                f"inputs and outputs must have equal shapes, got {inputs.shape} vs {outputs.shape}")
        return self._loglik(inputs, outputs, self.edit_probabilities(temperature))

    def train(self, dataset) -> "MutationProposer":
        """Refit the edit profile from the dataset's improving pairs.

        Per-position edit frequencies get add-one smoothing, so the
        fitted probabilities stay interior. The updated proposer has
        ``rate * weight[p]`` equal to the fitted frequency at
        temperature 1. With no pairs the proposer is returned unchanged.
        """
        if dataset is None or dataset.num_pairs == 0:
            return self
        edits = (dataset.pair_inputs != dataset.pair_targets).sum(axis=0)
        fitted = (edits + 1.0) / (dataset.num_pairs + 2.0)
        rate = float(fitted.mean())
        return MutationProposer(
            mutation_rate=rate,
            vocab_size=self.vocab_size,
            length=self.length,
            position_weights=fitted / rate,
        )


@dataclass(frozen=True)
class EchoProposer:
    """Returns its input unchanged; log-likelihood 0 (probability 1)."""

    def propose(self, inputs, temperature, count, seed: rng.SeedLike = 0):
        inputs = _as_batch(inputs)
        proposals = np.repeat(inputs[:, None, :], count, axis=1)
        return proposals, np.zeros(proposals.shape[:2])

    def score_likelihood(self, inputs, outputs, temperature: float = 1.0):
        inputs = _as_batch(inputs)
        outputs = _as_batch(outputs)
        same = (inputs == outputs).all(axis=-1)
        return np.where(same, 0.0, -np.inf)

    def train(self, dataset) -> "EchoProposer":
        return self


def baseline_mutation_proposer(mutation_rate: float, vocab_size: int,
                               length: int) -> MutationProposer:
    """Untrained uniform-profile mutation proposer."""
    return MutationProposer(
        mutation_rate=mutation_rate, vocab_size=vocab_size, length=length
    )


# --- text protocol adapter ----------------------------------------------

_COMPLETION_PATTERN = re.compile(
    r"^\s*\[(?P<body>[^\]]*)\]\s*(?P<loglik>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)?\s*$"
)


def format_prompt(tokens) -> str:
    """Serialize an input sequence as an ``<inc> [t1, t2, ...]`` prompt."""
    return "<inc> [" + ", ".join(str(int(t)) for t in np.asarray(tokens)) + "]"


def format_completion(tokens) -> str:
    return "[" + ", ".join(str(int(t)) for t in np.asarray(tokens)) + "]"


def parse_completion(line: str, length: int,
                     vocab_size: int | None = None) -> tuple[np.ndarray, float]:
    """Parse a bracketed-list completion, optionally followed by a
    log-likelihood; returns (tokens, log_likelihood or 0.0)."""
    match = _COMPLETION_PATTERN.match(line)
    if match is None:
        raise ParseError(f"malformed completion line: {line!r}")
    body = match.group("body").strip()
    fields = [f.strip() for f in body.split(",")] if body else []
    if len(fields) != length:
        raise ParseError(
            f"completion has {len(fields)} tokens, expected {length}: {line!r}"
        )
    try:
        tokens = np.array([int(f) for f in fields], dtype=np.int64)
    except ValueError as exc:
        raise ParseError(f"malformed token in completion: {line!r}") from exc
    if vocab_size is not None and ((tokens < 0) | (tokens >= vocab_size)).any():
        raise ParseError(f"completion token out of range [0, {vocab_size}): {line!r}")
    loglik = match.group("loglik")
    return tokens, float(loglik) if loglik else 0.0


class StdioProposer:
    """Adapter for an external line-based proposal process.

    Each request writes one ``<inc> [t1, t2, ...]`` prompt line to the
    child's stdin and reads one completion line: a bracketed token list,
    optionally followed by a log-likelihood (default 0.0). Sampling
    temperature and seeding are the child's concern (configure them via
    its command line); ``score_likelihood`` reports 0 for externally
    generated text, and ``train`` is a no-op.
    """

    def __init__(self, argv: list[str], vocab_size: int, length: int):
        require(len(argv) > 0, "argv must name the proposal program, got an empty list")
        # refused before the child is started
        require_counts(1, vocab_size=vocab_size, length=length)
        self.vocab_size = vocab_size
        self.length = length
        self._proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )

    def _round_trip(self, tokens) -> tuple[np.ndarray, float]:
        assert self._proc.stdin is not None and self._proc.stdout is not None
        self._proc.stdin.write(format_prompt(tokens) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if line == "":
            raise ParseError("proposal process closed its output")
        return parse_completion(line, self.length, self.vocab_size)

    def propose(self, inputs, temperature, count, seed: rng.SeedLike = 0):
        inputs = _as_batch(inputs, self.vocab_size, self.length)
        batch = inputs.shape[0]
        proposals = np.empty((batch, count, self.length), dtype=np.int64)
        logliks = np.empty((batch, count))
        for b in range(batch):
            for c in range(count):
                proposals[b, c], logliks[b, c] = self._round_trip(inputs[b])
        return proposals, logliks

    def score_likelihood(self, inputs, outputs, temperature: float = 1.0):
        inputs = _as_batch(inputs, self.vocab_size, self.length)
        return np.zeros(inputs.shape[0])

    def train(self, dataset) -> "StdioProposer":
        return self

    def close(self) -> None:
        """Close the child's input and reap it, killing it after 10 s."""
        if self._proc.stdin is not None:
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def __enter__(self) -> "StdioProposer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
