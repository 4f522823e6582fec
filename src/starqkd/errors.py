"""Exception hierarchy shared across the package, and its one rule per kind.

Everything raised on purpose derives from StarQkdError so callers can
catch one base. Every field of the scenario's types, the fields that
size, bound or label a library type (not all of them: `KeyMaterial`'s
`id` and `created_at` and the kind of its `bits` are not checked), and
every library function argument or CLI argument that comes from outside
the program, is checked by the rule of its kind: `check_int`,
`check_float`, `check_text`, `check_flag`, `check_enum`, or
`store_tuple` for a tuple that may be given as a list, with the range if
it has one. Their RangeError is a ValueError naming the field, and a
type raises it for its other one-field rules too. A float field takes
any int or float but a bool, fails NaN and +-infinity, and is stored as
a float by `store_float`, so equal values print alike. Other
precondition slips raise ValueError.
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


def _range_error(field: str, value: Any, low: float, high: float, positive: bool) -> RangeError:
    bound = "positive" if positive else f">= {low}" if value < low else f"<= {high}"
    return RangeError(field, f"must be {bound}, got {value}")


def check_int(field: str, value: Any, low: float = -math.inf, high: float = math.inf) -> int:
    """value if it is an int (not a bool) in [low, high]; any size compares exactly."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise RangeError(field, f"expected an integer, got {value!r}")
    if not low <= value <= high:
        raise _range_error(field, value, low, high, False)
    return value


def check_float(
    field: str, value: Any, low: float = -math.inf, high: float = math.inf, positive: bool = False
) -> float:
    """float(value) if value is a finite int or float (not a bool) in [low, high], or > 0."""
    out = value
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise RangeError(field, f"expected a number, got {value!r}")
        try:
            out = float(value)
        except OverflowError:  # an int too large for a float
            out = math.inf
    if not math.isfinite(out):
        raise RangeError(field, f"must be a finite number, got {value!r}")
    if not ((0 < out) if positive else (low <= out <= high)):
        raise _range_error(field, out, low, high, positive)
    return out


def store_float(
    owner: Any, field: str, low: float = -math.inf, high: float = math.inf, positive: bool = False
) -> None:
    """Check owner.field by `check_float` and store it back as a float, frozen or not."""
    value = getattr(owner, field)
    out = check_float(field, value, low, high, positive)
    if out is not value:
        object.__setattr__(owner, field, out)


def check_text(field: str, value: Any) -> str:
    if not isinstance(value, str) or not value:
        raise RangeError(field, f"expected a non-empty string, got {value!r}")
    return value


def check_flag(field: str, value: Any) -> bool:
    if not isinstance(value, bool):
        raise RangeError(field, f"expected true/false, got {value!r}")
    return value


def check_enum(field: str, value: Any, kind: type) -> Any:
    if not isinstance(value, kind):
        raise RangeError(field, f"expected a {kind.__name__}, got {value!r}")
    return value


def store_tuple(owner: Any, field: str) -> tuple:
    """owner.field, which must be a tuple or a list, stored as a tuple so equal values stay ==."""
    value = getattr(owner, field)
    if not isinstance(value, (tuple, list)):
        raise RangeError(field, f"expected a tuple, got {value!r}")
    if type(value) is not tuple:
        value = tuple(value)
        object.__setattr__(owner, field, value)
    return value


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
