"""Exception types shared across the package.

Everything raised deliberately by this library derives from
:class:`CycleSplinesError`, so callers can catch one base class.  Mixing in
the closest builtin (ValueError, ArithmeticError, RuntimeError) keeps the
types usable in generic code that never imports this module.
"""

import dataclasses
import math
from typing import Optional


class CycleSplinesError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(CycleSplinesError, ValueError):
    """A vector's length does not match the vertex count it is paired with."""


class NotInvertibleError(CycleSplinesError, ValueError):
    """Modular inverse requested for a non-coprime pair."""


class NoSolutionError(CycleSplinesError, ValueError):
    """The paired congruence system has no integer solution."""


class KingPreconditionError(CycleSplinesError, ValueError):
    """The king construction needs the last two edge labels to be coprime."""


class BasisStructureError(CycleSplinesError, ValueError):
    """A candidate basis is malformed: wrong count, wrong zero pattern, or a
    candidate that is not a spline at all."""


class NotInSpanError(CycleSplinesError, ArithmeticError):
    """A vector is not an integer combination of the given basis elements."""


class BudgetExceededError(CycleSplinesError, RuntimeError):
    """An exhaustive search was aborted after exhausting its budget.

    ``spent`` is the number of states charged when it stopped, the walk
    that crossed the limit in full, ``limit`` the state limit and
    ``entry_bound`` the bound of the searched box.  Every raise in this
    package sets all three; they default to None only for callers that
    raise it themselves.
    """

    def __init__(
        self,
        message: str,
        spent: Optional[int] = None,
        limit: Optional[int] = None,
        entry_bound: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.spent, self.limit, self.entry_bound = spent, limit, entry_bound


class InvariantViolationError(CycleSplinesError, RuntimeError):
    """An internal consistency check failed; this indicates a bug, not bad
    input."""


def _int_text(value: int) -> str:
    """``str(value)`` for error messages, or the digit count when the value
    is wider than CPython's int -> str digit limit allows.

    The caller's limit is left as it is: a message about a 5000-digit entry
    reads ``<5000-digit integer>`` instead of the intended error turning into
    a ValueError about the limit.
    """
    try:
        return str(value)
    except ValueError:
        magnitude = abs(value)
        digits = math.floor(math.log10(magnitude)) + 1
        # the float estimate can be one off near a power of ten
        digits += magnitude >= 10**digits
        digits -= magnitude < 10 ** (digits - 1)
        return f"{'-' if value < 0 else ''}<{digits}-digit integer>"


def _dataclass_repr(self) -> str:
    """The package's dataclasses' repr: the default one, with every int, also
    inside tuples, written by :func:`_int_text`, so it works at any width."""
    fields = (f"{f.name}={_repr_text(getattr(self, f.name))}" for f in dataclasses.fields(self) if f.repr)
    return f"{type(self).__qualname__}({', '.join(fields)})"


def _repr_text(value) -> str:
    if type(value) is int:
        return _int_text(value)
    if type(value) is tuple:
        return f"({', '.join(map(_repr_text, value))}{',' if len(value) == 1 else ''})"
    return repr(value)
