"""Exception hierarchy shared by all modules, and the two argument rules.

DomainError signals arguments outside a documented contract and maps to
CLI exit code 3. The numerical-consistency family signals computations
whose internal cross-checks failed and maps to exit code 2.

Every module checks its arguments by the same two rules. An order (a
matrix size, degree, sample count or seed) is any integer, numpy
integers included, but not a bool, and a float is refused even when it
holds a whole number (`check_order`). A real argument must be finite
(`check_finite`).
"""

import math
import numbers


class DomainError(ValueError):
    """Argument outside the documented domain of an operation."""


def check_order(n, low, high, what: str) -> None:
    """Refuse n, named `what`, unless it is an integer in [low, high]."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise DomainError(f"{what} {n!r} is not an integer")
    if not low <= n <= high:
        raise DomainError(f"{what} {n} outside [{low}, {high}]")


def check_finite(what: str, *values) -> None:
    """Refuse the real arguments `what` unless every one is finite."""
    if not all(math.isfinite(v) for v in values):
        raise DomainError(f"{what} ({', '.join(map(repr, values))}) must be finite")


class NumericalConsistencyError(RuntimeError):
    """An internal cross-check failed (imaginary residue, non-finite sample);
    the message names the point."""


class CancellationError(NumericalConsistencyError):
    """Catastrophic cancellation detected; the value is refused."""


class DegenerateDenominatorError(NumericalConsistencyError):
    """A ratio's denominator is exactly zero, or a variance factor in a
    correlation ratio is not positive."""
