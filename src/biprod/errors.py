"""Exception types shared across the package.

Anything raised on a precondition violation or a failed certification
derives from CategoryError, so callers that want to report rather than
crash can catch one type.
"""
from __future__ import annotations


class CategoryError(Exception):
    """Base class for every error this package raises on purpose."""


class DomainMismatch(CategoryError):
    """Composition or construction applied to morphisms that do not line up."""


class WitnessInvalid(CategoryError):
    """A supplied or constructed witness failed its defining equations."""

    def __init__(self, message: str, result=None):
        super().__init__(message)
        # CheckResult with the failed equations, when one is available.
        self.result = result


class NoNullaryStructure(CategoryError):
    """The instance lacks a terminal or initial object.

    A missing inverse of a nullary distributor is a MissingStructure.
    """


class MissingStructure(CategoryError, NotImplementedError):
    """The instance does not supply a structure map the construction asks for."""


class UnknownInstance(CategoryError):
    """Instance selector does not name a registered instance."""


class InvalidBounds(CategoryError):
    """Size bounds for a run are out of range."""


class ParseError(CategoryError):
    """An expression or object spelling could not be parsed."""
