"""Backend selection and bit-identical agreement between scorers."""

import numpy as np
import pytest

import oracles
from ehrlich import EhrlichParams, InvalidParamsError, evaluate_batch, generate, kernels
from ehrlich.kernels import (
    ENV_BACKEND,
    HAVE_NUMBA,
    _score_batch_py,
    active_backend,
    available_backends,
    feasible_rows,
    score_batch,
    score_batch_numpy,
)

needs_numba = pytest.mark.skipif(not HAVE_NUMBA, reason="numba not importable")


def test_available_backends():
    assert "numpy" in available_backends()
    if HAVE_NUMBA:
        assert available_backends() == ("numba", "numpy")


def test_active_backend_env_override(monkeypatch):
    monkeypatch.setenv(ENV_BACKEND, "numpy")
    assert active_backend() == "numpy"
    monkeypatch.setenv(ENV_BACKEND, "NumPy")
    assert active_backend() == "numpy"
    monkeypatch.delenv(ENV_BACKEND)
    assert active_backend() in available_backends()


def test_active_backend_rejects_unknown(monkeypatch):
    monkeypatch.setenv(ENV_BACKEND, "cuda")
    with pytest.raises(ValueError, match="EHRLICH_BACKEND"):
        active_backend()


def test_score_batch_rejects_unknown_backend(inst_4_16):
    batch = inst_4_16.optimum.reshape(1, -1)
    with pytest.raises(ValueError, match="backend"):
        evaluate_batch(inst_4_16, batch, backend="bogus")


@pytest.mark.skipif(HAVE_NUMBA, reason="numba is importable")
def test_missing_numba_is_invalid_params(inst_4_16, monkeypatch):
    batch = inst_4_16.optimum.reshape(1, -1)
    with pytest.raises(InvalidParamsError, match="numba"):
        evaluate_batch(inst_4_16, batch, backend="numba")
    monkeypatch.setenv(ENV_BACKEND, "numba")
    with pytest.raises(InvalidParamsError, match="EHRLICH_BACKEND"):
        active_backend()


@needs_numba
@pytest.mark.parametrize("name", ["Ehr(4,16)-2-2-2", "Ehr(8,32)-4-4-2", "Ehr(32,32)-4-4-4"])
def test_backends_bit_identical(name, rng):
    f = generate(EhrlichParams.from_name(name, seed=13))
    v, L = f.params.vocab_size, f.params.length
    batch = rng.integers(0, v, size=(512, L))
    batch[0] = f.optimum
    got_numba = evaluate_batch(f, batch, backend="numba")
    got_numpy = evaluate_batch(f, batch, backend="numpy")
    # Bit-identical, including -inf placement: same ops, same order.
    assert np.array_equal(got_numba, got_numpy)


@needs_numba
def test_backends_identical_with_epistasis(rng):
    f = generate(
        EhrlichParams(vocab_size=8, length=24, num_motifs=2, motif_length=4,
                      quantization=4, epistasis_factor=2.5, seed=2)
    )
    batch = rng.integers(0, 8, size=(256, 24))
    assert np.array_equal(
        evaluate_batch(f, batch, backend="numba"),
        evaluate_batch(f, batch, backend="numpy"),
    )


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
    # The numba backend compiles ``_score_batch_py``; comparing the numpy
    # kernel with it uncompiled checks the cross-backend contract without numba.
    v, length, c, k, q, a, max_offset, density, rows = case
    tokens, mask, motifs, offsets = _kernel_case(
        np.random.default_rng(v * length + k), v, length, c, k, max_offset, density, rows)
    args = (mask, motifs, offsets, k // q, q, a)
    expected = _score_batch_py(tokens, *args)
    got = score_batch_numpy(tokens, *args)
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
    values = score_batch_numpy(tokens, mask, motifs, offsets, 2, 1, 0.0)
    # Best window matches only the in-range first element: 1 // 2 = 0.
    assert np.array_equal(values, np.zeros(3))


def test_single_column_batch_always_feasible(inst_4_16):
    mask = inst_4_16.transition.mask
    tokens = np.array([[0], [1], [2]])
    values = score_batch(tokens, mask, np.array([[0]]), np.array([[0]]), 1, 1, 0.0)
    assert values[0] == 1.0  # token 0 matches motif [0]
    assert values[1] == 0.0
