"""Exception hierarchy shared across the package, and its one range rule.

Everything raised on purpose derives from StarQkdError so callers can
catch one base. Every numeric field of the library's and the scenario's
types is checked by `check_range`, whose RangeError is a ValueError
naming the field; NaN and +-infinity fail it, and a type raises it for
its other one-field rules too. Other precondition slips raise ValueError.
"""

from __future__ import annotations

import math
from typing import Any


class StarQkdError(Exception):
    """Base class for errors raised by this package."""


class InsufficientKey(StarQkdError):
    """A pool, budget, or key holds fewer bits than the operation needs."""


class KeyAlreadyConsumed(StarQkdError):
    """Single-use key material was presented a second time."""


class LengthMismatch(StarQkdError):
    """Two keys that must be the same bit length are not."""


class WrongProvenance(StarQkdError):
    """Key material of the wrong origin was offered to an operation."""


class InsufficientAuthKey(StarQkdError):
    """The authentication budget cannot cover the requested messages."""


class DomainError(StarQkdError, ValueError):
    """Numeric argument outside the function's domain."""


class RangeError(DomainError):
    """A field's value is outside what its type accepts; field names it."""

    def __init__(self, field: str, message: str) -> None:
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")


def check_range(
    field: str, value: Any, low: float = 0, high: float = math.inf, positive: bool = False
) -> None:
    """Raise RangeError unless value is a finite number in [low, high], or > 0 if positive.

    NaN fails every comparison; an int of any size compares exactly.
    """
    try:
        finite = -math.inf < value < math.inf
    except TypeError:  # None, or not a number
        finite = False
    if finite and (0 < value if positive else low <= value <= high):
        return
    if not finite:
        message = f"must be a finite number, got {value!r}"
    elif positive:
        message = f"must be positive, got {value}"
    else:
        bound = f">= {low}" if value < low else f"<= {high}"
        message = f"must be {bound}, got {value}"
    raise RangeError(field, message)


class MissingKey(StarQkdError):
    """A cipher state lacks the key slot the operation requires."""


class ClockRegression(StarQkdError):
    """Time moved backwards relative to recorded state."""


class DuplicateId(StarQkdError):
    """Two nodes or entities share an identifier."""


class NoBranches(StarQkdError):
    """A star topology needs at least one branch."""


class BadField(StarQkdError):
    """field_prime is not prime or is too small for the share count."""


class FieldTooLarge(StarQkdError):
    """The exhaustive secrecy check only runs over small fields."""


class NotEnoughShares(StarQkdError):
    """Fewer shares than the reconstruction threshold."""


class MissingShares(StarQkdError):
    """Refresh needs the full share set."""


class MixedRounds(StarQkdError):
    """Shares from different refresh rounds cannot be combined."""


class DuplicateX(StarQkdError):
    """Two shares claim the same evaluation point."""


class BadDimensions(StarQkdError):
    """A policy matrix needs at least two rows and two columns."""


class IndexOutOfBounds(StarQkdError):
    """Asset class indices fall outside the policy matrix."""


class ScenarioInvalid(StarQkdError):
    """A scenario file or structure failed validation."""

    def __init__(self, path: str, message: str) -> None:
        # path is a dotted field path like "branches[2].qber", or a
        # filename for file-level problems.
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class ValidationError(ScenarioInvalid):
    """A well-formed scenario violates a schema or cross-field rule."""


class ParseError(ScenarioInvalid):
    """The scenario file is not readable JSON."""


class IoError(StarQkdError):
    """Report emission could not write its output files."""
