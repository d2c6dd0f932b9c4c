"""Backend selection and bit-identical agreement between scorers."""

import numpy as np
import pytest

from ehrlich import EhrlichParams, InvalidParamsError, evaluate_batch, generate
from ehrlich.kernels import (
    ENV_BACKEND,
    HAVE_NUMBA,
    active_backend,
    available_backends,
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
