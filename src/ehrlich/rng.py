"""Counter-based random streams.

All randomness in the package flows through named Philox substreams so
that every artifact (transition matrix, motif draw, GA step, proposal
batch) is reproducible in isolation: regenerating one artifact never
consumes state needed by another.

A stream is addressed by a root seed plus an integer path. The path is
fed to ``numpy.random.SeedSequence`` as the spawn key, which guarantees
independent streams for distinct paths under the same root.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .errors import require, require_integers

SeedLike = Union[int, Sequence[int]]

# Stream ids for per-instance artifacts.
STREAM_MATRIX = 0
STREAM_PERMUTATION = 1
STREAM_MOTIFS = 2
STREAM_OFFSETS = 3
STREAM_INITIAL = 4

# Top-level domains keeping solver streams disjoint from instance streams.
DOMAIN_INSTANCE = 0
DOMAIN_GA = 1
DOMAIN_LLOME = 2
DOMAIN_PROPOSER = 3


def seed_path(seed: SeedLike, *path: int) -> tuple[int, ...]:
    """Flatten ``seed`` (an int or an (entropy, *ids) tuple) plus ``path``.

    Raises ``InvalidParamsError`` unless every part is an integer, so a
    float is refused rather than truncated to another stream.
    """
    parts = (*seed, *path) if isinstance(seed, (tuple, list)) else (seed, *path)
    for part in parts:
        require_integers(seed=part)
    # unpacked, not tuple(...): the tuple() form raised the peak RSS of a
    # 1M-evaluation run-ga by 10 MB, with the same output (cause not found)
    return (*(int(part) for part in parts),)


def substream(seed: SeedLike, *path: int) -> np.random.Generator:
    """Philox generator for the named substream ``(seed, *path)``."""
    flat = seed_path(seed, *path)
    entropy, key = flat[0], flat[1:]
    require(entropy >= 0, f"seed must be non-negative, got {entropy}")
    seq = np.random.SeedSequence(entropy=entropy, spawn_key=key)
    return np.random.Generator(np.random.Philox(seed=seq))
