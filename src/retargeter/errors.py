"""Exception types shared across the package."""

from __future__ import annotations


class RetargeterError(Exception):
    """Base class for every error this package raises on purpose."""


class ParseError(RetargeterError):
    """Input text rejected by one of the parsers.

    ``line`` and ``column`` are 1-based and refer to the offending token
    when the parser can pinpoint one.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{line}:{column}: {message}"
        super().__init__(message)


class StuckError(RetargeterError):
    """Evaluation reached a state with no applicable rule.

    Examples: projecting a non-tuple, arithmetic on a non-integer, a match
    with no applicable branch, applying a value that is not a function.
    """


class FuelExhausted(RetargeterError):
    """A step or unfolding budget ran out before evaluation finished."""


class ReifyError(RetargeterError):
    """A runtime value has no literal syntax (closures, abstract values)."""
