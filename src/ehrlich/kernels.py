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
outside [0, v). Called directly on unchecked tokens, the numpy kernel
wraps negative indices and the numba kernel reads out of bounds.
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


def feasible_rows(tokens, mask):
    """True for each row of an (N, L) batch whose adjacent transitions the
    mask all allows; every row is feasible when L < 2."""
    if tokens.shape[1] < 2:
        return np.ones(tokens.shape[0], dtype=bool)
    return mask[tokens[:, :-1], tokens[:, 1:]].all(axis=1)


def score_batch_numpy(tokens, mask, motifs, offsets, divisor, q, a):
    """Pure-numpy batch scorer; see module docstring for the contract."""
    num_seqs, length = tokens.shape
    num_motifs, motif_len = motifs.shape
    feasible = feasible_rows(tokens, mask)
    values = np.ones(num_seqs, dtype=np.float64)
    counts = np.empty((num_seqs, length), dtype=np.int64)
    for i in range(num_motifs):
        counts[:] = 0
        for j in range(motif_len):
            start = offsets[i, j]
            if start < length:
                counts[:, : length - start] += tokens[:, start:] == motifs[i, j]
        best = counts.max(axis=1)
        h = (best // divisor) / q
        values *= a * h * h * h - a * h * h + h
    values[~feasible] = -np.inf
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
