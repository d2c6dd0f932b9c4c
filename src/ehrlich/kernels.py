"""The batch scoring kernel: feasibility check plus quantized motif
scoring over all window starts, in numpy.

Values are float64: the product of per-motif responses for feasible
sequences, ``-inf`` for infeasible ones.

The kernel assumes validated input: an (N, L) batch in the token dtype
(``function.token_dtype``, uint8 when v <= 256, else uint16) with every
token in [0, v). ``function.evaluate_batch`` is the only validating
entry; through ``function.as_tokens`` it raises ``InvalidParamsError``
for a bad dtype, shape or token and converts the batch once.

The kernel transposes the batch to (L, N), so that each shifted
comparison is one contiguous block, finds the feasible rows with
``feasible_rows`` and scores only those, counting matches in the
smallest dtype that holds k (uint8 when k <= 255). Each row's response
g(h) is looked up in a table computed with the per-row float ops for
every count 0..k, so every feasible row is 1.0 times the same responses
in the same motif order as the per-row loop the tests keep as the
reference.
"""

from __future__ import annotations

import numpy as np


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


def score_batch(tokens, mask, motifs, offsets, divisor, q, a):
    """Score an (N, L) token batch; see the module docstring for the
    contract and the layout it scores in."""
    num_seqs, length = tokens.shape
    num_motifs, motif_len = motifs.shape
    # (L, N): every shifted comparison below is then one contiguous block
    columns = np.ascontiguousarray(tokens.T)
    rows = np.flatnonzero(feasible_rows(columns.T, mask))
    if rows.size < num_seqs:
        columns = np.take(columns, rows, axis=1)
    motifs = motifs.astype(tokens.dtype)
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


def active_backend() -> str:
    """The name of the one scoring kernel, which benchmark reports record."""
    return "numpy"
