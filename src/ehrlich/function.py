"""Procedural generation and evaluation of Ehrlich test functions.

An Ehrlich function scores fixed-length token sequences by the product
of quantized spaced-motif satisfaction responses, subject to a hard
feasibility constraint: the sequence must lie in the support of a
discrete Markov process (DMP). Infeasible sequences score ``-inf``.

Construction is fully deterministic given ``EhrlichParams``: the
transition matrix, motifs, offsets, initial solution, and verified
optimum each draw from a named substream of the instance seed (see
``rng``), so regenerating one artifact never disturbs another.
"""

from __future__ import annotations

import numbers
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import rng
from .errors import (ConstructionError, GenerationError, InvalidParamsError, require,
                     require_counts, require_integers, require_seed)
from .kernels import feasible_rows, score_batch

NAME_PATTERN = re.compile(r"^Ehr\((\d+),(\d+)\)-(\d+)-(\d+)-(\d+)$")

# The short key of each EhrlichParams field, in instance-document order, and
# whether the field is an integer. The first five are the v, L, c, k, q of
# ``Ehr(v,L)-c-k-q``, in the order of NAME_PATTERN's groups.
PARAM_KEYS = {
    "v": ("vocab_size", True),
    "L": ("length", True),
    "c": ("num_motifs", True),
    "k": ("motif_length", True),
    "q": ("quantization", True),
    "a": ("epistasis_factor", False),
    "tau": ("softmax_temperature", False),
    "feasible_fraction": ("feasible_fraction", False),
    "seed": ("seed", True),
}
NAME_FIELDS = {short: field for short, (field, _) in list(PARAM_KEYS.items())[:5]}

MAX_GENERATION_RETRIES = 100


@dataclass(frozen=True)
class EhrlichParams:
    """Parameters identifying one test-function instance.

    ``vocab_size``, ``length``, ``num_motifs``, ``motif_length``, and
    ``quantization`` are the v, L, c, k, q of the canonical name
    ``Ehr(v,L)-c-k-q``. ``epistasis_factor`` is the cubic-response
    coefficient a; values above 4 would make partially satisfied
    motifs score negative, so they are rejected. ``feasible_fraction``
    controls the per-row count b of allowed transitions,
    b = round(feasible_fraction * vocab_size), which must leave at
    least one forbidden and two allowed transitions per row.
    """

    vocab_size: int
    length: int
    num_motifs: int
    motif_length: int
    quantization: int
    epistasis_factor: float = 0.0
    softmax_temperature: float = 1.0
    feasible_fraction: float = 0.75
    seed: int = 0

    def __post_init__(self) -> None:
        v, L = self.vocab_size, self.length
        c, k, q = self.num_motifs, self.motif_length, self.quantization
        require_integers(quantization=q)
        require_counts(2, vocab_size=v, length=L)
        require_counts(1, num_motifs=c, motif_length=k)
        require(v <= 1024, f"vocab_size must be <= 1024, got {v}")
        require(c * k <= L, f"num_motifs * motif_length must be <= length: {c}*{k} > {L}")
        require(1 <= q <= k, f"quantization must be in [1, motif_length], got {q}")
        require(k % q == 0, f"quantization must divide motif_length: q={q}, k={k}")
        a = self.epistasis_factor
        require(isinstance(a, numbers.Real) and 0.0 <= a <= 4.0,
                f"epistasis_factor must be in [0, 4], got {a!r}")
        _require_transition_params(v, self.softmax_temperature, self.feasible_fraction)
        require_seed(self.seed)

    @property
    def name(self) -> str:
        v, L = self.vocab_size, self.length
        return f"Ehr({v},{L})-{self.num_motifs}-{self.motif_length}-{self.quantization}"

    @classmethod
    def from_name(cls, name: str, **overrides) -> "EhrlichParams":
        require(isinstance(name, str), f"instance name must be a string, got {name!r}")
        match = NAME_PATTERN.match(name.strip())
        if match is None:
            raise InvalidParamsError(
                f"instance name must match Ehr(<v>,<L>)-<c>-<k>-<q>, got {name!r}"
            )
        return cls(**dict(zip(NAME_FIELDS.values(), (int(g) for g in match.groups()))),
                   **overrides)


def feasible_count(vocab_size: int, feasible_fraction: float) -> int:
    """Per-row count of allowed transitions implied by the fraction."""
    return int(round(feasible_fraction * vocab_size))


def _require_transition_params(vocab_size: int, softmax_temperature: float,
                               feasible_fraction: float) -> int:
    """The transition matrix's construction rules, which ``EhrlichParams``
    and ``build_transition_matrix`` both check; returns the per-row feasible
    count b."""
    require_counts(2, vocab_size=vocab_size)
    require(isinstance(softmax_temperature, numbers.Real) and softmax_temperature > 0,
            f"softmax_temperature must be > 0, got {softmax_temperature!r}")
    ff = feasible_fraction
    require(isinstance(ff, numbers.Real) and 0.0 < ff <= 1.0,
            f"feasible_fraction must be in (0, 1], got {ff!r}")
    b = feasible_count(vocab_size, ff)
    require(b >= 2, f"feasible_fraction {ff} yields per-row feasible count {b} < 2")
    require(b <= vocab_size - 1, f"feasible_fraction {ff} yields per-row feasible count {b} = vocab_size (no infeasible transition)")
    return b


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic DMP transition matrix with its feasibility mask.

    Local invariants (shape, row sums, entries positive exactly on the
    mask, positive diagonal) are checked at construction. Ergodicity is
    a global property checked by ``check_ergodic`` at the generation and
    parsing boundaries, so reducible masks remain constructible for
    testing that check.
    """

    entries: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=np.float64)
        mask = np.asarray(self.mask, dtype=bool)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "mask", mask)
        require(entries.ndim == 2 and entries.shape[0] == entries.shape[1],
                f"transition entries must be square, got shape {entries.shape}")
        require(mask.shape == entries.shape,
                f"mask shape {mask.shape} must match entries shape {entries.shape}")
        require(bool(np.all(entries >= 0)), "transition entries must be nonnegative")
        row_sums = entries.sum(axis=1)
        require(bool(np.all(np.abs(row_sums - 1.0) <= 1e-9)),
                f"every transition row must sum to 1 within 1e-9, worst deviation {np.abs(row_sums - 1.0).max():.3g}")
        require(bool(np.all((entries > 0) == mask)),
                "transition entries must be strictly positive exactly where the mask is true")
        require(bool(np.all(np.diagonal(mask))),
                "transition mask diagonal must be all true (aperiodicity)")

    @property
    def vocab_size(self) -> int:
        return self.entries.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TransitionMatrix):
            return NotImplemented
        return (
            np.array_equal(self.entries, other.entries)
            and np.array_equal(self.mask, other.mask)
        )


@dataclass(frozen=True)
class SpacedMotifs:
    """c motifs of k tokens each plus their positional offsets.

    Offsets start at 0 and increase strictly within each motif.
    Joint-satisfiability properties that need more context (fit within
    the sequence length, feasibility of consecutive tokens) are checked
    by ``validate_against``.
    """

    motifs: np.ndarray
    offsets: np.ndarray

    def __post_init__(self) -> None:
        motifs = np.asarray(self.motifs, dtype=np.int64)
        offsets = np.asarray(self.offsets, dtype=np.int64)
        object.__setattr__(self, "motifs", motifs)
        object.__setattr__(self, "offsets", offsets)
        require(motifs.ndim == 2, f"motifs must be a (c, k) table, got shape {motifs.shape}")
        require(offsets.shape == motifs.shape,
                f"offsets shape {offsets.shape} must match motifs shape {motifs.shape}")
        require(bool(np.all(offsets[:, 0] == 0)), "offsets must start at 0 for every motif")
        if motifs.shape[1] > 1:
            require(bool(np.all(np.diff(offsets, axis=1) > 0)),
                    "offsets must be strictly increasing within every motif")

    @property
    def num_motifs(self) -> int:
        return self.motifs.shape[0]

    @property
    def motif_length(self) -> int:
        return self.motifs.shape[1]

    def validate_against(self, params: EhrlichParams, transition: TransitionMatrix) -> None:
        c, k, L = params.num_motifs, params.motif_length, params.length
        require(self.motifs.shape == (c, k),
                f"motifs shape {self.motifs.shape} must be (num_motifs, motif_length) = ({c}, {k})")
        require(bool(np.all((self.motifs >= 0) & (self.motifs < params.vocab_size))),
                "motif tokens must lie in [0, vocab_size)")
        require(bool(np.all(self.offsets[:, -1] <= L - 1)),
                "every motif must fit in the sequence: last offset <= length - 1")
        spans = self.offsets[:, -1] + 1
        require(int(spans.sum()) <= L,
                "motif spans must fit end-to-end within the sequence length")
        chain = self.motifs.reshape(1, -1)
        require(bool(feasible_rows(chain, transition.mask)[0]),
                "consecutive motif tokens must be feasible transitions (motifs are one DMP draw)")

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpacedMotifs):
            return NotImplemented
        return (
            np.array_equal(self.motifs, other.motifs)
            and np.array_equal(self.offsets, other.offsets)
        )


@dataclass(frozen=True)
class ScoredSequence:
    """A sequence paired with its objective value (-inf iff infeasible); it
    knows no instance, so its (L,) tokens keep their integer dtype."""

    tokens: np.ndarray
    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", as_tokens(self.tokens, None, ndims=(1,)))


@dataclass(frozen=True)
class EhrlichFunction:
    """Immutable test-function instance with a verified optimum.

    Evaluation is pure and reentrant; instances are safe to share
    across threads and batch evaluation is schedule-independent.
    """

    params: EhrlichParams
    transition: TransitionMatrix
    motifs: SpacedMotifs
    optimum: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "optimum", np.asarray(self.optimum, dtype=np.int64))
        self.motifs.validate_against(self.params, self.transition)
        value = evaluate(self, self.optimum)
        require(value == 1.0, f"optimum must be feasible with value exactly 1, got {value}")

    @property
    def name(self) -> str:
        return self.params.name

    def evaluate(self, tokens: np.ndarray) -> float:
        return evaluate(self, tokens)

    def evaluate_batch(self, tokens: np.ndarray) -> np.ndarray:
        return evaluate_batch(self, tokens)

    def regret(self, tokens: np.ndarray) -> float:
        return regret(self, tokens)

    def initial_solution(self) -> np.ndarray:
        """The instance's fixed starting sequence, one DMP draw."""
        return sample_dmp(
            self.transition,
            self.params.length,
            (self.params.seed, rng.DOMAIN_INSTANCE, rng.STREAM_INITIAL),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, EhrlichFunction):
            return NotImplemented
        return (
            self.params == other.params
            and self.transition == other.transition
            and self.motifs == other.motifs
            and np.array_equal(self.optimum, other.optimum)
        )


def banded_mask(vocab_size: int, band: int) -> np.ndarray:
    """Boolean mask with ``band`` ones per row, wrapping around, diagonal included."""
    mask = np.zeros((vocab_size, vocab_size), dtype=bool)
    for j in range(band):
        cols = (np.arange(vocab_size) - 1 + j) % vocab_size
        mask[np.arange(vocab_size), cols] = True
    return mask


def build_transition_matrix(
    vocab_size: int,
    softmax_temperature: float,
    feasible_fraction: float,
    seed: rng.SeedLike,
) -> TransitionMatrix:
    """Draw a random ergodic transition matrix with forbidden transitions.

    The mask is a banded matrix (wrap-around) of b ones per row with
    b = round(feasible_fraction * vocab_size), rows shuffled by a seeded
    permutation and the diagonal forced back to true. Entries are
    softmax(randn / tau) masked and row-renormalized.
    """
    band = _require_transition_params(vocab_size, softmax_temperature, feasible_fraction)
    permutation = rng.substream(seed, rng.STREAM_PERMUTATION).permutation(vocab_size)
    mask = banded_mask(vocab_size, band)[permutation]
    np.fill_diagonal(mask, True)

    z = rng.substream(seed, rng.STREAM_MATRIX).standard_normal((vocab_size, vocab_size))
    entries = masked_softmax_rows(z / softmax_temperature, mask)
    return TransitionMatrix(entries=entries, mask=mask)


def masked_softmax_rows(z: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row softmax followed by masking and row renormalization."""
    z = z - z.max(axis=1, keepdims=True)
    probs = np.exp(z)
    probs /= probs.sum(axis=1, keepdims=True)
    probs = probs * mask
    return probs / probs.sum(axis=1, keepdims=True)


def check_ergodic(transition: TransitionMatrix) -> bool:
    """Reachability form of the Perron-Frobenius condition.

    Computes the boolean power mask^m for m = (v-1)^2 + 1 by repeated
    squaring over booleans (float powers of the probabilities would
    underflow for large v). True iff all entries of the power are true.
    """
    mask = transition.mask
    v = mask.shape[0]
    if not (mask.any(axis=1).all() and mask.any(axis=0).all()):
        return False
    exponent = (v - 1) ** 2 + 1
    result = np.eye(v, dtype=bool)
    base = mask
    while exponent:
        if exponent & 1:
            result = _bool_matmul(result, base)
            # Rows and columns of base are nonempty, so an all-true
            # product stays all-true under further multiplication.
            if result.all():
                return True
        exponent >>= 1
        if exponent:
            base = _bool_matmul(base, base)
    return bool(result.all())


def _bool_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # float32 accumulation is exact for counts up to 2**24 > max vocab.
    return (x.astype(np.float32) @ y.astype(np.float32)) > 0


def sample_dmp(transition: TransitionMatrix, length: int, seed: rng.SeedLike) -> np.ndarray:
    """Draw one sequence of the given length from the DMP.

    The first token is uniform over the vocabulary; each subsequent
    token is drawn from its predecessor's transition row. Outputs are
    feasible by construction.
    """
    require_counts(1, length=length)
    gen = rng.substream(seed)
    v = transition.vocab_size
    tokens = np.empty(length, dtype=np.int64)
    tokens[0] = gen.integers(0, v)
    for pos in range(1, length):
        tokens[pos] = gen.choice(v, p=transition.entries[tokens[pos - 1]])
    return tokens


def build_motifs(
    transition: TransitionMatrix,
    params: EhrlichParams,
    seed: rng.SeedLike,
) -> SpacedMotifs:
    """Draw jointly satisfiable spaced motifs.

    One DMP sample of length c*k is chunked into c motifs, so adjacent
    motif tokens (within and across chunks) are always feasible
    transitions. Offsets start at 0; each subsequent offset adds
    1 + floor(w_j * slack) where w is uniform on the (k-1)-simplex and
    slack = (L - c*k) // c, so motifs laid end-to-end always fit.
    """
    c, k, L = params.num_motifs, params.motif_length, params.length
    draw = sample_dmp(transition, c * k, rng.seed_path(seed, rng.STREAM_MOTIFS))
    motifs = draw.reshape(c, k)

    gen = rng.substream(seed, rng.STREAM_OFFSETS)
    slack = (L - c * k) // c
    offsets = np.zeros((c, k), dtype=np.int64)
    for i in range(c):
        if k > 1:
            w = gen.dirichlet(np.ones(k - 1))
            steps = 1 + np.floor(w * slack).astype(np.int64)
            offsets[i, 1:] = np.cumsum(steps)
    return SpacedMotifs(motifs=motifs, offsets=offsets)


def construct_optimum(
    motifs: SpacedMotifs,
    params: EhrlichParams,
    transition: TransitionMatrix,
) -> np.ndarray:
    """Place motifs end-to-end, filling gaps with the previous element.

    Self-transitions are always feasible, so repeating the previous
    motif element through gaps and through the trailing positions keeps
    the whole sequence feasible while fully satisfying every motif.
    Fails loudly if the result does not verify (feasible and f = 1).
    """
    c, k, L = params.num_motifs, params.motif_length, params.length
    tokens = np.empty(L, dtype=np.int64)
    cursor = 0
    for i in range(c):
        for j in range(k - 1):
            tokens[cursor + motifs.offsets[i, j]: cursor + motifs.offsets[i, j + 1]] = motifs.motifs[i, j]
        tokens[cursor + motifs.offsets[i, k - 1]] = motifs.motifs[i, k - 1]
        cursor += motifs.offsets[i, k - 1] + 1
    tokens[cursor:] = motifs.motifs[c - 1, k - 1]

    try:
        EhrlichFunction(params=params, transition=transition, motifs=motifs, optimum=tokens)
    except InvalidParamsError as exc:
        raise ConstructionError(
            f"constructed optimum does not verify ({exc}); construction bug"
        ) from exc
    return tokens


def generate(params: EhrlichParams) -> EhrlichFunction:
    """Generate the instance identified by ``params``.

    Deterministic in (params, seed). If a sampled transition matrix
    fails the ergodicity check or the optimum fails verification, a
    retry counter mixed into the seed path produces a fresh draw;
    generation aborts with a diagnostic after 100 retries.
    """
    failures = []
    for retry in range(MAX_GENERATION_RETRIES):
        base = (int(params.seed), rng.DOMAIN_INSTANCE, retry)
        transition = build_transition_matrix(
            params.vocab_size,
            params.softmax_temperature,
            params.feasible_fraction,
            base,
        )
        if not check_ergodic(transition):
            failures.append(f"retry {retry}: transition matrix not ergodic")
            continue
        motifs = build_motifs(transition, params, base)
        try:
            optimum = construct_optimum(motifs, params, transition)
        except ConstructionError as exc:
            failures.append(f"retry {retry}: {exc}")
            continue
        return EhrlichFunction(
            params=params, transition=transition, motifs=motifs, optimum=optimum
        )
    raise GenerationError(
        f"instance generation failed after {MAX_GENERATION_RETRIES} retries: "
        + "; ".join(failures[-3:])
    )


def is_feasible(tokens: np.ndarray, transition: TransitionMatrix) -> bool:
    """True iff every adjacent transition in the one sequence is allowed;
    ``InvalidParamsError`` for tokens ``as_tokens`` refuses."""
    tokens = as_tokens(tokens, transition.vocab_size, ndims=(1,))
    return bool(feasible_rows(tokens[None, :], transition.mask)[0])


def motif_score(tokens, motif, offsets, quantization: int) -> Fraction:
    """Quantized satisfaction h_q of one spaced motif, as an exact rational.

    h_q = (max over window starts l < L of the match count at positions
    l + s_j) // (k/q) / q. Window positions at or beyond the end of the
    sequence count as mismatches.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    motif = np.asarray(motif, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    k = motif.shape[0]
    require_counts(1, quantization=quantization)
    require(k % quantization == 0,
            f"quantization must divide motif_length: q={quantization}, k={k}")
    length = tokens.shape[0]
    best = 0
    for start in range(length):
        positions = start + offsets
        valid = positions < length
        matched = int(np.count_nonzero(tokens[positions[valid]] == motif[valid]))
        if matched > best:
            best = matched
    return Fraction(best // (k // quantization), quantization)


def response(h, a):
    """Cubic response g(h) = a*h^3 - a*h^2 + h to a motif presence h in
    [0, 1]; exact on rational inputs."""
    require(isinstance(h, numbers.Real) and 0 <= h <= 1,
            f"motif presence h must be a number in [0, 1], got {h!r}")
    return a * h * h * h - a * h * h + h


def motif_product(tokens, motifs: SpacedMotifs, quantization: int, a=0) -> Fraction:
    """Product of per-motif responses in exact arithmetic, ignoring feasibility."""
    product = Fraction(1)
    for i in range(motifs.num_motifs):
        h = motif_score(tokens, motifs.motifs[i], motifs.offsets[i], quantization)
        product *= response(h, a)
    return product


def evaluate(function: EhrlichFunction, tokens) -> float:
    """f(x): -inf if infeasible, else the product of motif responses.

    The one-row form of ``evaluate_batch``, with its checks.
    """
    return float(evaluate_batch(function, as_tokens(tokens, None, ndims=(1,))[None, :])[0])


def evaluate_batch(function: EhrlichFunction, tokens: np.ndarray) -> np.ndarray:
    """f over an (N, L) token array; the only entry into the scoring kernel.

    Raises ``InvalidParamsError`` for tokens ``as_tokens`` refuses. The
    kernel indexes the transition mask with tokens and assumes these
    checks have been made.
    """
    params = function.params
    return score_batch(
        as_tokens(tokens, params.vocab_size, params.length),
        function.transition.mask,
        function.motifs.motifs,
        function.motifs.offsets,
        params.motif_length // params.quantization,
        params.quantization,
        float(params.epistasis_factor),
    )


def token_dtype(vocab_size: int) -> np.dtype:
    """The one token dtype of a vocabulary of size v: the smallest unsigned
    dtype that holds v - 1, uint8 when v <= 256 and uint16 up to 1024."""
    return np.min_scalar_type(vocab_size - 1)


def as_tokens(tokens, vocab_size: int | None, length: int | None = None,
              ndims: tuple = (2,)) -> np.ndarray:
    """The one token check: ``tokens`` converted once to ``token_dtype(vocab_size)``.

    Any integer dtype is accepted. Float, bool, object, string and ragged
    input is refused, not truncated to another sequence; so are a rank
    not in ``ndims``, rows not ``length`` long and tokens outside [0, v),
    which would index past the transition mask. With ``vocab_size=None``
    (a holder that knows no instance) tokens keep their dtype and values.
    """
    try:
        tokens = np.asarray(tokens)
    except ValueError:
        raise InvalidParamsError("sequence tokens must form a rectangular array") from None
    if (tokens.dtype.kind not in "iu" or tokens.ndim not in ndims
            or (length is not None and tokens.shape[-1] != length)):
        # the message is built only on failure: str(dtype) is slow
        raise InvalidParamsError(
            f"sequence tokens must be integers, {' or '.join(map(str, ndims))}-D, of length "
            f"{length or 'L'}; got dtype {tokens.dtype} and shape {tokens.shape}")
    if vocab_size is None:
        return tokens
    if tokens.size:
        low, high = int(tokens.min()), int(tokens.max())
        require(low >= 0 and high < vocab_size,
                f"sequence tokens must lie in [0, {vocab_size}), got [{low}, {high}]")
    return tokens.astype(token_dtype(vocab_size), copy=False)


def regret(function: EhrlichFunction, tokens) -> float:
    """Simple regret 1 - f(x); +inf for infeasible sequences."""
    return regret_of_value(evaluate(function, tokens))


def incumbent_of(tokens: np.ndarray, values: np.ndarray,
                 incumbent: ScoredSequence | None = None) -> ScoredSequence:
    """Both solvers' best-so-far rule: the batch's first best row if it beats
    ``incumbent`` strictly (or there is none), else ``incumbent``. Folded over
    batches, it keeps the first best row seen, row 0 if all are -inf."""
    best = int(np.argmax(values))
    if incumbent is not None and not values[best] > incumbent.value:
        return incumbent
    return ScoredSequence(tokens=tokens[best].copy(), value=float(values[best]))


def regret_of_value(value) -> float:
    """Simple regret of an already-computed objective value."""
    values = np.asarray(value, dtype=np.float64)
    out = np.where(np.isneginf(values), np.inf, 1.0 - values)
    return float(out) if np.isscalar(value) or values.ndim == 0 else out
