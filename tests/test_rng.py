"""Substream determinism and independence."""

import numpy as np
import pytest

from ehrlich import InvalidParamsError, ga, rng


def test_same_path_reproduces():
    a = rng.substream(42, 1, 2).standard_normal(8)
    b = rng.substream(42, 1, 2).standard_normal(8)
    assert np.array_equal(a, b)


def test_tuple_seed_flattens():
    assert rng.seed_path((7, 3), 1) == (7, 3, 1)
    assert rng.seed_path(7, 3, 1) == (7, 3, 1)
    a = rng.substream((7, 3), 1).integers(0, 1 << 30, size=4)
    b = rng.substream(7, 3, 1).integers(0, 1 << 30, size=4)
    assert np.array_equal(a, b)


def test_distinct_paths_differ():
    draws = [
        rng.substream(42).standard_normal(16),
        rng.substream(42, 0).standard_normal(16),
        rng.substream(42, 1).standard_normal(16),
        rng.substream(42, 0, 0).standard_normal(16),
        rng.substream(43).standard_normal(16),
    ]
    for i in range(len(draws)):
        for j in range(i + 1, len(draws)):
            assert not np.array_equal(draws[i], draws[j])


def test_consumption_order_does_not_couple_streams():
    # Drawing from one substream never perturbs another.
    first = rng.substream(5, 1).standard_normal(4)
    _ = rng.substream(5, 2).standard_normal(1000)
    second = rng.substream(5, 1).standard_normal(4)
    assert np.array_equal(first, second)


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        rng.substream(-1)


def test_negative_seed_is_invalid_params():
    for seed in (-1, (-1, 2), np.int64(-5)):
        with pytest.raises(InvalidParamsError, match="non-negative"):
            rng.substream(seed)


@pytest.mark.parametrize("seed", [(1.5, 2), (1, 2.0), (True, 2), ("1", 2)])
def test_non_integer_tuple_element_rejected(seed):
    # (1.5, 2) used to draw exactly as (1, 2)
    with pytest.raises(InvalidParamsError, match="seed must be an integer"):
        rng.substream(seed)
    with pytest.raises(InvalidParamsError, match="seed must be an integer"):
        rng.seed_path(seed, 3)


@pytest.mark.parametrize("seed", [1.5, 2.0, True, "7", None])
def test_non_integer_scalar_seed_rejected(seed):
    with pytest.raises(InvalidParamsError, match="seed must be an integer"):
        rng.substream(seed)
    # it used to raise a raw TypeError from the public sampler
    with pytest.raises(InvalidParamsError, match="seed must be an integer"):
        ga.mutate(np.zeros((2, 4), dtype=np.int64), 0.5, 1, 4, seed=seed)


def test_numpy_integer_seeds_accepted():
    assert rng.seed_path((np.int64(7), np.uint8(3)), np.int32(1)) == (7, 3, 1)


def test_stream_constants_distinct():
    streams = [
        rng.STREAM_MATRIX,
        rng.STREAM_PERMUTATION,
        rng.STREAM_MOTIFS,
        rng.STREAM_OFFSETS,
        rng.STREAM_INITIAL,
    ]
    assert len(set(streams)) == len(streams)
    domains = [rng.DOMAIN_INSTANCE, rng.DOMAIN_GA, rng.DOMAIN_LLOME, rng.DOMAIN_PROPOSER]
    assert len(set(domains)) == len(domains)
