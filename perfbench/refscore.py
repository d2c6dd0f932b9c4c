"""Exact reference scorer for Ehrlich instances.

Plain Python over exact ``Fraction`` values, written apart from
``ehrlich.kernels`` and ``ehrlich.function``: it reads the instance
document as plain JSON, scans adjacent transitions for feasibility, and
takes the best match count of each spaced motif over every window
start, with window positions past the end of the sequence counted as
mismatches. Agreement with the package's float scores is therefore
evidence, not a tautology.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path


@dataclass(frozen=True)
class RefInstance:
    vocab_size: int
    length: int
    quantization: int
    epistasis: Fraction
    allowed: tuple  # allowed[a] is the frozenset of tokens b with a -> b feasible
    motifs: tuple  # c tuples of k tokens
    offsets: tuple  # c tuples of k offsets

    @property
    def motif_length(self) -> int:
        return len(self.motifs[0])


def load_instance(path: str | Path) -> RefInstance:
    """Read an instance document (the ``ehrlich gen`` JSON format)."""
    doc = json.loads(Path(path).read_text())
    params = doc["params"]
    return RefInstance(
        vocab_size=int(params["v"]),
        length=int(params["L"]),
        quantization=int(params["q"]),
        epistasis=Fraction(params["a"]),
        allowed=tuple(
            frozenset(b for b, ok in enumerate(row) if ok) for row in doc["mask"]
        ),
        motifs=tuple(tuple(int(t) for t in m) for m in doc["motifs"]),
        offsets=tuple(tuple(int(s) for s in o) for o in doc["offsets"]),
    )


def response(h: Fraction, a: Fraction) -> Fraction:
    return a * h ** 3 - a * h ** 2 + h


def feasible(inst: RefInstance, row) -> bool:
    return all(b in inst.allowed[a] for a, b in zip(row, row[1:]))


def score(inst: RefInstance, row) -> Fraction | None:
    """Exact value of one sequence; ``None`` stands for -inf (infeasible)."""
    row = [int(t) for t in row]
    if not feasible(inst, row):
        return None
    length = len(row)
    step = inst.motif_length // inst.quantization
    value = Fraction(1)
    for motif, offsets in zip(inst.motifs, inst.offsets):
        best = 0
        for start in range(length):
            matched = sum(
                1 for token, offset in zip(motif, offsets)
                if start + offset < length and row[start + offset] == token
            )
            best = max(best, matched)
        value *= response(Fraction(best // step, inst.quantization), inst.epistasis)
    return value


def level_products(inst: RefInstance) -> set[Fraction]:
    """Every value a feasible sequence can take: products of c responses
    at the quantized levels 0, 1/q, ..., 1."""
    levels = [response(Fraction(j, inst.quantization), inst.epistasis)
              for j in range(inst.quantization + 1)]
    products = set()
    for combo in itertools.combinations_with_replacement(levels, len(inst.motifs)):
        value = Fraction(1)
        for level in combo:
            value *= level
        products.add(value)
    return products
