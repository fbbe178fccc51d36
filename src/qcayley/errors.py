"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "QCayleyError",
    "SpecSyntaxError",
    "GateError",
    "SizeError",
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


class SizeError(QCayleyError):
    """An exact computation would exceed a size cap: the base class of every
    size refusal, so that one except clause catches them all."""


class TreeSizeError(SizeError):
    """Tree construction would exceed the configured vertex cap."""


class EnumerationSizeError(SizeError):
    """An exhaustive enumeration would exceed the grade-walk cap."""


class ToeplitzSizeError(SizeError):
    """A truncated Toeplitz matrix would exceed the size cap."""
