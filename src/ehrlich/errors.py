"""Exception hierarchy.

The CLI maps these onto exit codes: invalid input (bad parameters,
malformed documents or sequence files) exits 2, solver aborts
(generation retries exhausted, generator collapse, non-convergence)
exit 3.
"""

from __future__ import annotations


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
