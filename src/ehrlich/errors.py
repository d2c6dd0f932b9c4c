"""Exception hierarchy.

The CLI maps these onto exit codes: invalid input (bad parameters,
malformed documents or sequence files) exits 2, solver aborts
(generation retries exhausted, generator collapse, non-convergence)
exit 3.
"""

from __future__ import annotations

import numbers

import numpy as np


class EhrlichError(Exception):
    """Base class for all package errors."""


class InvalidParamsError(EhrlichError, ValueError):
    """A parameter or document violates a declared invariant."""


class ParseError(EhrlichError, ValueError):
    """A serialized instance or sequence file is malformed."""


class ConstructionError(EhrlichError):
    """A constructed artifact failed its own verification."""


class GenerationError(EhrlichError):
    """Instance generation exhausted its retry budget."""


class GeneratorCollapseError(EhrlichError):
    """A proposal generator produced too few usable candidates."""


class ConvergenceError(EhrlichError):
    """An iterative solver failed to reach the requested tolerance."""


def require(condition: bool, message: str) -> None:
    """Raise ``InvalidParamsError(message)`` unless ``condition`` holds."""
    if not condition:
        raise InvalidParamsError(message)


def require_integers(**values) -> None:
    """Raise ``InvalidParamsError`` unless each value is a Python or numpy
    integer; ``bool``, ``16.0`` and ``"16"`` are not."""
    for name, value in values.items():  # the message is built only on failure
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise InvalidParamsError(f"{name} must be an integer, got {value!r}")


def require_counts(minimum: int, /, **counts) -> None:
    """Raise ``InvalidParamsError`` unless each count is an integer >= ``minimum``."""
    require_integers(**counts)
    for name, value in counts.items():
        require(value >= minimum, f"{name} must be >= {minimum}, got {value}")


def require_probability(name: str, p, length: int | None = None) -> None:
    """Raise ``InvalidParamsError`` unless ``p`` is a probability in [0, 1], or
    a (length,) array of them when ``length`` is given; NaN, ``True`` and
    ``"0.5"`` are not."""
    array = np.asarray(p)
    if (array.dtype.kind not in "iuf" or array.shape not in ((), (length,))
            or not ((array >= 0) & (array <= 1)).all()):
        raise InvalidParamsError(f"{name} must be a probability in [0, 1], got {p!r}")


def require_temperature(name: str, temperature) -> None:
    """Raise ``InvalidParamsError`` unless ``temperature`` is a finite number
    >= 0: the sampling temperatures a proposer accepts, and every ``beta``
    and ``lam`` of the losses; ``True`` and ``"1"`` are not."""
    array = np.asarray(temperature)
    if (array.dtype.kind not in "iuf" or array.shape != ()
            or not (np.isfinite(array) and array >= 0)):
        raise InvalidParamsError(f"{name} must be finite and >= 0, got {temperature!r}")


def require_seed(seed) -> None:
    """Raise ``InvalidParamsError`` unless ``seed`` is an integer in [0, 2**64 - 1]."""
    require_integers(seed=seed)
    require(0 <= seed <= 2**64 - 1, f"seed must be a 64-bit unsigned integer, got {seed}")
