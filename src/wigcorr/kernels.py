"""Limit kernels and the one-parameter family interpolating them.

The bulk kernels (sine_kernel, t_kernel) are elementary. The edge
kernels (airy_kernel, b_kernel) have closed forms with a removable
diagonal singularity, handled by explicit near-diagonal branches. The
family i_alpha is a line integral along z = 1 - iu that reproduces the
Airy product at alpha = 0, airy_kernel at alpha = 1, and b_kernel at
alpha = 2, and gives meaning to non-integer orders.

i_alpha and i_alpha_diagonal evaluate one rule, DEFAULT_LINE_QUAD, in one
helper, so a diagonal value is i_alpha(alpha, x, x) bit for bit. The
argument-free node factors are computed on first use and kept.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .errors import DomainError, NumericalConsistencyError
from .numeric_core import QuadratureSpec, mixed_central_diff, trapezoid_line
from .special_fn import airy

__all__ = [
    "sine_kernel",
    "t_kernel",
    "airy_kernel",
    "b_kernel",
    "i_alpha",
    "i_alpha_diagonal",
    "airy_product",
    "operator_step",
    "diag_recursion_check",
]

ARG_BOX = 30.0
ALPHA_MAX = 10.0

# Near-diagonal switchover thresholds: below these the explicit formulas
# lose more than ~8 digits to cancellation, so a stable branch takes over.
SINE_TAYLOR_AT = 1e-6
T_TAYLOR_AT = 1e-3
AIRY_MIDPOINT_AT = 1e-5
B_QUAD_AT = 1e-3

IMAG_TOL = 1e-10

DEFAULT_LINE_QUAD = QuadratureSpec(truncation_halfwidth=20.0, point_count=4000)
# Gauss-Legendre nodes of diag_recursion_check's integral over y. Its
# |lhs - rhs| stays below 1e-13 at 80 nodes (6e-13 at 64, 1e-6 at 48).
_RECURSION_NODES = 80


def _check_finite(mu: float, nu: float, name: str) -> None:
    if not (math.isfinite(mu) and math.isfinite(nu)):
        raise DomainError(f"{name} arguments ({mu}, {nu}) not finite")


def sine_kernel(mu: float, nu: float) -> float:
    """sin(pi d) / (pi d) with d = mu - nu, continuously extended."""
    _check_finite(mu, nu, "sine_kernel")
    d = mu - nu
    if abs(d) < SINE_TAYLOR_AT:
        return 1.0 - (math.pi * d) ** 2 / 6.0
    return math.sin(math.pi * d) / (math.pi * d)


def t_kernel(mu: float, nu: float) -> float:
    """2 sin(pi d)/(pi d^3) - 2 cos(pi d)/d^2 with d = mu - nu."""
    _check_finite(mu, nu, "t_kernel")
    d = mu - nu
    if abs(d) < T_TAYLOR_AT:
        return 2.0 * math.pi ** 2 / 3.0 - math.pi ** 4 * d * d / 15.0
    return 2.0 * math.sin(math.pi * d) / (math.pi * d ** 3) - 2.0 * math.cos(math.pi * d) / (d * d)


def _check_box(mu: float, nu: float, name: str) -> None:
    # written so that NaN fails it too
    if not (abs(mu) <= ARG_BOX and abs(nu) <= ARG_BOX):
        raise DomainError(
            f"{name} arguments ({mu}, {nu}) outside [-{ARG_BOX}, {ARG_BOX}]^2"
        )


def _airy_kernel_diag(x: float) -> float:
    p = airy(x)
    return p.ai_prime ** 2 - x * p.ai ** 2


def airy_kernel(mu: float, nu: float) -> float:
    """Edge kernel (Ai(mu)Ai'(nu) - Ai'(mu)Ai(nu)) / (mu - nu).

    On the diagonal the removable singularity resolves to
    Ai'(mu)^2 - mu Ai(mu)^2; just off the diagonal the diagonal form at
    the midpoint is second-order accurate and free of cancellation.
    """
    _check_box(mu, nu, "airy_kernel")
    d = mu - nu
    if d == 0.0:
        return _airy_kernel_diag(mu)
    if abs(d) < AIRY_MIDPOINT_AT:
        return _airy_kernel_diag(0.5 * (mu + nu))
    pm, pn = airy(mu), airy(nu)
    return (pm.ai * pn.ai_prime - pm.ai_prime * pn.ai) / d


def b_kernel(mu: float, nu: float) -> float:
    """Edge kernel with a second-order diagonal singularity.

    ((mu+nu) Ai Ai - 2 Ai' Ai') / d^2 + (2 Ai Ai' - 2 Ai' Ai) / d^3 with
    d = mu - nu. Near the diagonal the quadrature route i_alpha(2, .) is
    authoritative: its integrand is smooth at mu = nu.
    """
    _check_box(mu, nu, "b_kernel")
    d = mu - nu
    if abs(d) < B_QUAD_AT:
        return i_alpha(2.0, mu, nu)
    pm, pn = airy(mu), airy(nu)
    lead = ((mu + nu) * pm.ai * pn.ai - 2.0 * pm.ai_prime * pn.ai_prime) / (d * d)
    sub = (2.0 * pm.ai * pn.ai_prime - 2.0 * pm.ai_prime * pn.ai) / (d ** 3)
    return lead + sub


def _check_alpha(alpha: float) -> None:
    if not (0.0 <= alpha <= ALPHA_MAX):
        raise DomainError(f"alpha {alpha} outside [0, {ALPHA_MAX}]")


@functools.lru_cache(maxsize=4)
def _line_nodes(quad: QuadratureSpec):
    """w = 1 - iu and w^3/12 on the nodes of the rule, read-only."""
    w = 1.0 - 1j * quad.nodes()
    cubic = w ** 3 / 12.0
    w.flags.writeable = cubic.flags.writeable = False
    return w, cubic


@functools.lru_cache(maxsize=16)
def _line_power(quad: QuadratureSpec, alpha: float) -> np.ndarray:
    """w^(alpha+1/2) on the nodes of the rule, read-only."""
    power = _line_nodes(quad)[0] ** (alpha + 0.5)
    power.flags.writeable = False
    return power


def _line_value(alpha: float, mu: float, nu: float, quad: QuadratureSpec,
                name: str, at) -> float:
    """i_alpha for checked arguments; an imaginary residue above IMAG_TOL
    (absolute at unit scale, relative above it) raises naming `at`."""
    s = 0.5 * (mu + nu)
    q = 0.25 * (mu - nu) ** 2
    w, cubic = _line_nodes(quad)
    power = _line_power(quad, alpha)
    val = trapezoid_line(np.exp(cubic - s * w - q / w) / power, quad)
    val /= 4.0 * math.pi ** 1.5
    if abs(val.imag) > IMAG_TOL * max(1.0, abs(val.real)):
        raise NumericalConsistencyError(
            f"{name} imaginary residue {val.imag:.3e} exceeds tolerance", at=at)
    return val.real


def i_alpha(alpha: float, mu: float, nu: float,
            quad: QuadratureSpec = DEFAULT_LINE_QUAD) -> float:
    """Line-integral kernel family along z = 1 - iu.

    (1/4 pi^(3/2)) * integral over u of
    exp((1-iu)^3/12 - (mu+nu)(1-iu)/2 - (mu-nu)^2/(4(1-iu))) / (1-iu)^(alpha+1/2).

    The principal power is well defined since Re(1-iu) = 1 > 0. The exact
    value is real; the quadrature's imaginary residue is asserted small.
    """
    _check_alpha(alpha)
    _check_box(mu, nu, "i_alpha")
    return _line_value(alpha, mu, nu, quad, "i_alpha", (alpha, mu, nu))


def i_alpha_diagonal(alpha: float, xs: np.ndarray) -> np.ndarray:
    """i_alpha(alpha, x, x) over an array of diagonal points, bit for bit.
    All points are box-checked first; an imaginary residue names the
    (alpha, x) of the first point that leaves one."""
    _check_alpha(alpha)
    xs = np.asarray(xs, dtype=float)
    if not (np.abs(xs) <= ARG_BOX).all():
        raise DomainError("diagonal points outside the argument box or not finite")
    vals = [_line_value(alpha, x, x, DEFAULT_LINE_QUAD, "i_alpha_diagonal", (alpha, x))
            for x in xs.ravel().tolist()]
    return np.array(vals, dtype=float).reshape(xs.shape)


def airy_product(x: float, y: float) -> float:
    """Contour representation of the product Ai(x) Ai(y).

    The alpha = 0 member of the line-integral family: the weight is
    z^(-1/2) on the line z = 1 - iu, and the result equals the pointwise
    product of Airy values.
    """
    _check_box(x, y, "airy_product")
    return i_alpha(0.0, x, y)


def operator_step(f: Callable[[float, float], float], mu: float, nu: float,
                  h: float) -> float:
    """One application of (1/(mu-nu)) (d/dnu - d/dmu) to a kernel.

    Applied once to the Airy product it yields the alpha = 1 kernel;
    applied again, alpha = 2. Same operator links the two bulk kernels.
    """
    if not (1e-6 <= h <= 1e-2):
        raise DomainError(f"step h = {h} outside [1e-6, 1e-2]")
    if abs(mu - nu) < 10.0 * h:
        raise DomainError(
            f"arguments ({mu}, {nu}) too close for stencil with h = {h}"
        )
    return mixed_central_diff(f, mu, nu, h)


@functools.lru_cache(maxsize=1)
def _recursion_rule():
    """Gauss-Legendre nodes and weights on [-1, 1], read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(_RECURSION_NODES)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def diag_recursion_check(alpha: float, x: float):
    """Both sides of the diagonal downward recursion.

    lhs = i_alpha(alpha, x, x); rhs integrates i_alpha(alpha-1, y, y) over
    [x, min(x + 40, ARG_BOX)], past which the integrand is below 1e-40, by
    Gauss-Legendre, which converges geometrically on this analytic
    integrand. Every node lies inside the argument box.
    """
    if not (alpha >= 1.0):
        raise DomainError(f"recursion needs alpha >= 1, got {alpha}")
    if abs(x) > 10.0:
        raise DomainError(f"recursion check point {x} outside [-10, 10]")
    lhs = i_alpha(alpha, x, x)
    nodes, weights = _recursion_rule()
    half = 0.5 * (min(x + 40.0, ARG_BOX) - x)
    rhs = half * float(weights @ i_alpha_diagonal(alpha - 1.0, x + half * (nodes + 1.0)))
    return lhs, rhs
