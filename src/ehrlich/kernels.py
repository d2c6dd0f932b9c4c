"""Batch scoring kernels with selectable backends.

Two implementations of the hot path (feasibility check plus quantized
motif scoring over all window starts) are provided: a numba ``@njit``
kernel and a pure-numpy fallback. The active backend is chosen by the
``EHRLICH_BACKEND`` environment variable (``numba`` or ``numpy``); by
default numba is used when importable. Both backends perform the same
floating-point operations in the same order, so results are
bit-identical.

Values are float64: the product of per-motif responses for feasible
sequences, ``-inf`` for infeasible ones.

The kernels assume validated input: an (N, L) int64 batch with every
token in [0, v). ``function.evaluate_batch`` is the only validating
entry; it raises ``InvalidParamsError`` for a bad shape or a token
outside [0, v). Called directly on unchecked tokens, the numpy kernel's
narrowing cast wraps them and the numba kernel reads out of bounds.

The numpy kernel narrows internally: it casts the batch once to the
smallest unsigned dtype that holds v - 1 (the dtype ``EvalLedger``
stores), transposes it to (L, N) so that each shifted comparison is one
contiguous block, finds the feasible rows with ``feasible_rows`` and
scores only those, counting matches in the smallest dtype that holds k
(uint8 when k <= 255). Each row's response g(h) is looked up in a table
computed with the per-row float ops for every count 0..k, so every
feasible row is still 1.0 times the same responses in the same motif
order as in the numba kernel.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import InvalidParamsError

ENV_BACKEND = "EHRLICH_BACKEND"

try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    numba = None
    HAVE_NUMBA = False


def _score_batch_py(tokens, mask, motifs, offsets, divisor, q, a):
    num_seqs, length = tokens.shape
    num_motifs, motif_len = motifs.shape
    out = np.empty(num_seqs, dtype=np.float64)
    for n in range(num_seqs):
        # The feasibility rule of ``feasible_rows``, inlined for the compiled kernel.
        feasible = True
        for pos in range(1, length):
            if not mask[tokens[n, pos - 1], tokens[n, pos]]:
                feasible = False
                break
        if not feasible:
            out[n] = -np.inf
            continue
        value = 1.0
        for i in range(num_motifs):
            best = 0
            for start in range(length):
                matched = 0
                for j in range(motif_len):
                    pos = start + offsets[i, j]
                    if pos < length and tokens[n, pos] == motifs[i, j]:
                        matched += 1
                if matched > best:
                    best = matched
            h = (best // divisor) / q
            value *= a * h * h * h - a * h * h + h
        out[n] = value
    return out


if HAVE_NUMBA:
    _score_batch_numba = numba.njit(cache=True)(_score_batch_py)


# Transitions looked up at once by ``feasible_rows``. numpy gathers through
# an intp index, so a block holds 8 bytes per transition: 512 KB, whatever
# the batch size.
_LOOKUP_BLOCK = 1 << 16


def feasible_rows(tokens, mask):
    """True for each row of an (N, L) batch whose adjacent transitions the
    mask all allows; every row is feasible when L < 2.

    Each transition is one lookup into the flattened (v, v) mask at
    ``a * v + b``, computed in a dtype that holds v**2 - 1 and at least
    the tokens' own, over blocks of rows. The lookups run over the
    batch's columns, so a batch that is the transpose of a C-ordered
    (L, N) array is read in place.
    """
    num_rows, length = tokens.shape
    if length < 2:
        return np.ones(num_rows, dtype=bool)
    v = mask.shape[0]
    flat = mask.ravel()
    index_dtype = np.result_type(tokens.dtype, np.min_scalar_type(v * v - 1))
    feasible = np.empty(num_rows, dtype=bool)
    rows = max(1, _LOOKUP_BLOCK // (length - 1))
    for start in range(0, num_rows, rows):
        columns = tokens[start:start + rows].T
        index = columns[:-1].astype(index_dtype)
        index *= v
        index += columns[1:]
        np.logical_and.reduce(np.take(flat, index), axis=0, out=feasible[start:start + rows])
    return feasible


def score_batch_numpy(tokens, mask, motifs, offsets, divisor, q, a):
    """Pure-numpy batch scorer; see module docstring for the contract
    and the layout it scores in."""
    num_seqs, length = tokens.shape
    num_motifs, motif_len = motifs.shape
    token_dtype = np.min_scalar_type(mask.shape[0] - 1)
    # (L, N): every shifted comparison below is then one contiguous block
    columns = np.ascontiguousarray(tokens.astype(token_dtype).T)
    rows = np.flatnonzero(feasible_rows(columns.T, mask))
    if rows.size < num_seqs:
        columns = np.take(columns, rows, axis=1)
    motifs = motifs.astype(token_dtype)
    # g(h) for each best-window match count 0..k, by the per-row float ops
    h = (np.arange(motif_len + 1) // divisor) / q
    response = a * h * h * h - a * h * h + h
    scores = np.ones(rows.size, dtype=np.float64)
    counts = np.empty(columns.shape, dtype=np.min_scalar_type(motif_len))
    matched = np.empty(columns.shape, dtype=bool)
    for i in range(num_motifs):
        counts[:] = 0
        for j in range(motif_len):
            start = offsets[i, j]
            if start < length:
                span = length - start
                np.equal(columns[start:], motifs[i, j], out=matched[:span])
                counts[:span] += matched[:span].view(np.uint8)
        scores *= np.take(response, counts.max(axis=0))
    values = np.full(num_seqs, -np.inf)
    values[rows] = scores
    return values


def score_batch_numba(tokens, mask, motifs, offsets, divisor, q, a):
    """Numba batch scorer; compiled on first call, cached on disk."""
    if not HAVE_NUMBA:
        raise InvalidParamsError("numba backend requested but numba is not importable")
    return _score_batch_numba(tokens, mask, motifs, offsets, divisor, q, a)


_BACKENDS = {
    "numpy": score_batch_numpy,
    "numba": score_batch_numba,
}


def available_backends() -> tuple[str, ...]:
    return ("numba", "numpy") if HAVE_NUMBA else ("numpy",)


def active_backend() -> str:
    """Resolve the backend from ``EHRLICH_BACKEND`` (default: numba if present);
    an unknown name, or numba when it is not importable, is ``InvalidParamsError``."""
    choice = os.environ.get(ENV_BACKEND, "").strip().lower()
    if choice == "":
        return "numba" if HAVE_NUMBA else "numpy"
    if choice not in _BACKENDS:
        raise InvalidParamsError(
            f"{ENV_BACKEND} must be 'numba' or 'numpy', got {choice!r}"
        )
    if choice == "numba" and not HAVE_NUMBA:
        raise InvalidParamsError(f"{ENV_BACKEND}=numba but numba is not importable")
    return choice


def score_batch(tokens, mask, motifs, offsets, divisor, q, a, backend=None):
    """Score a (N, L) token batch, dispatching to the active backend."""
    name = backend if backend is not None else active_backend()
    if name not in _BACKENDS:
        raise InvalidParamsError(f"backend must be 'numba' or 'numpy', got {name!r}")
    return _BACKENDS[name](tokens, mask, motifs, offsets, divisor, q, a)
