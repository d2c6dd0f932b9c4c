"""The scoring kernel against its per-row loop reference, and the
feasibility lookup."""

import numpy as np
import pytest

import oracles
from ehrlich import kernels
from ehrlich.kernels import feasible_rows, score_batch


def _kernel_case(rng, v, length, num_motifs, motif_len, max_offset, density, rows):
    """Direct kernel arguments: a random mask of the given density, motifs
    holding token v - 1, and tokens drawn from the motifs' own tokens (so
    partial matches are common), with every motif planted whole in the
    first row where it fits."""
    mask = rng.random((v, v)) < density
    motifs = rng.integers(0, v, size=(num_motifs, motif_len))
    motifs[0, -1] = v - 1
    offsets = np.zeros((num_motifs, motif_len), dtype=np.int64)
    for i in range(num_motifs):
        offsets[i, 1:] = np.sort(rng.choice(np.arange(1, max_offset + 1), motif_len - 1,
                                            replace=False))
    tokens = rng.choice(np.append(motifs.ravel(), v - 1), size=(rows, length))
    for i in range(num_motifs):
        if rows and offsets[i, -1] < length:
            tokens[0, offsets[i]] = motifs[i]
    return tokens, mask, motifs, offsets


# (v, L, c, k, q, a, largest offset, mask density, rows)
KERNEL_CASES = {
    "v256-uint8-tokens": (256, 24, 2, 4, 4, 0.0, 9, 0.97, 48),
    "v300-uint16-tokens": (300, 24, 2, 4, 2, 2.5, 9, 0.97, 48),
    "length-1": (8, 1, 1, 2, 2, 1.5, 1, 0.5, 16),
    "empty-batch": (8, 6, 2, 2, 2, 0.0, 3, 0.5, 0),
    "all-infeasible": (8, 6, 2, 2, 1, 0.0, 3, 0.0, 16),
    "all-feasible": (5, 12, 2, 3, 3, 0.75, 5, 1.0, 48),
    "offsets-past-end": (6, 8, 2, 3, 3, 2.0, 14, 0.9, 48),
    "k256-uint16-counts": (3, 257, 1, 256, 4, 0.5, 256, 1.0, 4),
}


@pytest.mark.parametrize("case", KERNEL_CASES.values(), ids=KERNEL_CASES.keys())
def test_numpy_kernel_bit_identical_to_python_source(case):
    v, length, c, k, q, a, max_offset, density, rows = case
    tokens, mask, motifs, offsets = _kernel_case(
        np.random.default_rng(v * length + k), v, length, c, k, max_offset, density, rows)
    args = (mask, motifs, offsets, k // q, q, a)
    expected = oracles.score_batch_by_loops(tokens, *args)
    got = score_batch(tokens, *args)
    assert got.dtype == np.float64 and got.shape == (rows,)
    assert np.array_equal(got, expected)
    feasible = expected > -np.inf
    if density == 0.0:
        assert not feasible.any()
    elif density == 1.0 or length == 1:
        assert feasible.all()
    elif rows:
        assert feasible.any() and not feasible.all()


@pytest.mark.parametrize("block", [1, 4, 9, 1 << 16])
def test_feasible_rows_blocks_agree_with_scan(monkeypatch, rng, block):
    # Blocks of one row, of fewer rows than the batch with a ragged last
    # block, and of the whole batch give the scan's answer.
    monkeypatch.setattr(kernels, "_LOOKUP_BLOCK", block)
    mask = rng.random((17, 17)) < 0.8
    tokens = rng.integers(0, 17, size=(40, 4))
    expected = np.array([oracles.feasible_by_scan(row, mask) for row in tokens])
    assert expected.any() and not expected.all()
    for batch in (tokens, tokens.astype(np.uint8), np.ascontiguousarray(tokens.T).T):
        assert np.array_equal(feasible_rows(batch, mask), expected)


def test_numpy_kernel_handles_offsets_past_length(inst_4_16):
    # Degenerate call: offsets larger than the sequence length must not
    # index out of bounds and must score as zero matches.
    mask = inst_4_16.transition.mask
    tokens = np.zeros((3, 4), dtype=np.int64)
    motifs = np.array([[0, 0]])
    offsets = np.array([[0, 9]])
    values = score_batch(tokens, mask, motifs, offsets, 2, 1, 0.0)
    # Best window matches only the in-range first element: 1 // 2 = 0.
    assert np.array_equal(values, np.zeros(3))


def test_single_column_batch_always_feasible(inst_4_16):
    mask = inst_4_16.transition.mask
    tokens = np.array([[0], [1], [2]])
    values = score_batch(tokens, mask, np.array([[0]]), np.array([[0]]), 1, 1, 0.0)
    assert values[0] == 1.0  # token 0 matches motif [0]
    assert values[1] == 0.0
