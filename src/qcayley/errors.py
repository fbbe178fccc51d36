"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "QCayleyError",
    "SpecSyntaxError",
    "GateError",
    "TreeSizeError",
    "EnumerationSizeError",
    "ToeplitzSizeError",
]


class QCayleyError(Exception):
    """Base class for all package errors."""


class SpecSyntaxError(QCayleyError):
    """Malformed quantum-group spec text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class GateError(QCayleyError):
    """A theorem hypothesis is violated (e.g. a generator of quantum dimension 2).

    Raised instead of silently producing uncertified output.
    """


class TreeSizeError(QCayleyError):
    """Tree construction would exceed the configured vertex cap."""


class EnumerationSizeError(QCayleyError):
    """An exhaustive enumeration would exceed the grade-walk cap."""


class ToeplitzSizeError(QCayleyError):
    """A truncated Toeplitz matrix would exceed the size cap."""
