"""Scaled arithmetic and quadrature primitives.

Everything downstream manipulates quantities of order N! * exp(2N) for N
up to a million, far outside double range, so the basic number type here
is a sign plus a natural-log magnitude. The quadrature helpers evaluate
line integrals of analytic, Gaussian-decaying integrands where a uniform
trapezoid rule converges geometrically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalConsistencyError, check_finite, check_order

__all__ = [
    "ScaledReal",
    "QuadratureSpec",
    "scaled_add",
    "scaled_mul",
    "scaled_div",
    "scaled_from_real",
    "scaled_to_real_checked",
    "trapezoid_line",
]


@dataclass(frozen=True)
class ScaledReal:
    """A real number as sign * exp(log_mag).

    sign is -1, 0, or +1; sign 0 represents exactly zero and log_mag is
    ignored in that case (kept at 0.0 by the constructors here).
    """

    sign: int
    log_mag: float

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise DomainError(f"sign must be -1, 0, or +1, got {self.sign!r}")
        if self.sign != 0:
            check_finite("ScaledReal log_mag", self.log_mag)


ZERO = ScaledReal(0, 0.0)
ONE = ScaledReal(1, 0.0)


def scaled_from_real(x: float) -> ScaledReal:
    check_finite("scaled_from_real argument", x)
    if x == 0.0:
        return ZERO
    return ScaledReal(1 if x > 0 else -1, math.log(abs(x)))


def scaled_to_real_checked(x: ScaledReal) -> float:
    if x.sign == 0:
        return 0.0
    if abs(x.log_mag) >= 700.0:
        raise DomainError(
            f"log magnitude {x.log_mag:.3f} outside double range (|log| < 700)"
        )
    return x.sign * math.exp(x.log_mag)


def scaled_add(x: ScaledReal, y: ScaledReal) -> ScaledReal:
    if x.sign == 0:
        return y
    if y.sign == 0:
        return x
    # Align to the larger exponent; the ratio term never overflows.
    if x.log_mag >= y.log_mag:
        big, small = x, y
    else:
        big, small = y, x
    m = big.sign + small.sign * math.exp(small.log_mag - big.log_mag)
    if m == 0.0:
        return ZERO
    return ScaledReal(1 if m > 0 else -1, big.log_mag + math.log(abs(m)))


def scaled_neg(x: ScaledReal) -> ScaledReal:
    if x.sign == 0:
        return x
    return ScaledReal(-x.sign, x.log_mag)


def scaled_mul(x: ScaledReal, y: ScaledReal) -> ScaledReal:
    s = x.sign * y.sign
    if s == 0:
        return ZERO
    return ScaledReal(s, x.log_mag + y.log_mag)


def scaled_div(x: ScaledReal, y: ScaledReal) -> ScaledReal:
    if y.sign == 0:
        raise DomainError("division by exact zero")
    if x.sign == 0:
        return ZERO
    return ScaledReal(x.sign * y.sign, x.log_mag - y.log_mag)


@dataclass(frozen=True)
class QuadratureSpec:
    """Uniform trapezoid rule on [-U, U] with a fixed point count."""

    truncation_halfwidth: float
    point_count: int

    def __post_init__(self):
        check_finite("truncation_halfwidth", self.truncation_halfwidth)
        if not (self.truncation_halfwidth > 0):
            raise DomainError("truncation_halfwidth must be positive")
        check_order(self.point_count, 64, math.inf, "point_count")

    def nodes(self) -> np.ndarray:
        return np.linspace(
            -self.truncation_halfwidth, self.truncation_halfwidth, self.point_count
        )


# The one line rule: i_alpha, i_alpha_diagonal and airy_contour use it.
DEFAULT_LINE_QUAD = QuadratureSpec(truncation_halfwidth=20.0, point_count=4000)


def trapezoid_line(vals: np.ndarray, spec: QuadratureSpec) -> complex:
    """Trapezoid approximation of an integral over [-U, U] from its
    samples on the nodes of the rule. Every sample must be finite."""
    finite = np.isfinite(vals)
    if not finite.all():
        bad = float(spec.nodes()[~finite][0])
        raise NumericalConsistencyError(f"non-finite integrand sample at u = {bad!r}")
    h = 2.0 * spec.truncation_halfwidth / (spec.point_count - 1)
    total = vals.sum() - 0.5 * (vals[0] + vals[-1])
    return complex(total * h)

