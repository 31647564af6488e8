"""Airy and Hermite special functions, the mean characteristic polynomial
and the correlation coefficient centred by it, and the Gaussian-unitary
orthogonal-polynomial kernel.

The Airy pair is served by two independent routes: a library route
(scipy's AMOS-backed implementation) used for production values, and a
vertical-line contour quadrature kept as a cross-check oracle. The two
routes are compared in the self-test suite.

One Hermite recurrence, `_hermite_advance`, serves both Hermite jobs:
`hermite_phys` (and through it `char_poly_mean`) runs it once over all
orders, and `gue_kernel` steps it one order at a time at x and at y,
adding each order's term to a running sum as soon as it reaches it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import airy as _scipy_airy

from .errors import DegenerateDenominatorError, DomainError, check_finite, check_order
from .numeric_core import (
    DEFAULT_LINE_QUAD,
    ONE,
    ZERO,
    ScaledReal,
    scaled_add,
    scaled_mul,
    scaled_neg,
    trapezoid_line,
)

__all__ = [
    "AiryPair",
    "airy",
    "airy_contour",
    "hermite_phys",
    "char_poly_mean",
    "sigma_from_moments",
    "gue_kernel",
]

AIRY_DOMAIN = 30.0
HERMITE_MAX_N = 10 ** 6
GUE_KERNEL_MAX_N = 2000

# Renormalization threshold for the Hermite recurrence; values are scaled
# down before they can overflow, with the scale tracked in log space.
_RENORM_AT = 1e250


@dataclass(frozen=True)
class AiryPair:
    ai: float
    ai_prime: float


def _check_airy_domain(x: float) -> None:
    check_finite("airy argument", x)
    if abs(x) > AIRY_DOMAIN:
        raise DomainError(f"airy argument {x} outside [-{AIRY_DOMAIN}, {AIRY_DOMAIN}]")


def airy(x: float) -> AiryPair:
    """Ai(x) and Ai'(x) on [-30, 30], absolute error below 1e-12."""
    _check_airy_domain(x)
    ai, aip, _, _ = _scipy_airy(x)
    return AiryPair(float(ai), float(aip))


def airy_contour(x: float) -> AiryPair:
    """Independent contour route for the Airy pair.

    Integrates exp(z^3/3 - x z) along the vertical line z = c + it. The
    abscissa c = max(1, sqrt(x)) keeps the integrand peaked for positive
    x; the envelope decays like exp(-c t^2), so the truncation at |t| = 20
    is far past any contribution.
    """
    _check_airy_domain(x)
    c = math.sqrt(x) if x > 1.0 else 1.0
    # The factor exp(z^3/3 - x z) serves both integrands: Ai' integrates -z
    # times it.
    z = c + 1j * DEFAULT_LINE_QUAD.nodes()
    e = np.exp(z ** 3 / 3.0 - x * z)
    ai = trapezoid_line(e, DEFAULT_LINE_QUAD).real / (2.0 * math.pi)
    aip = trapezoid_line(-z * e, DEFAULT_LINE_QUAD).real / (2.0 * math.pi)
    return AiryPair(ai, aip)


def _hermite_advance(tx: float, k: int, stop: int, h_prev: float,
                     h_cur: float, scale: float):
    """Step (H_{k-1}(x), H_k(x)) to (H_{stop-1}(x), H_stop(x)), tx = 2x,
    both carried divided by exp(scale). A new H_j past _RENORM_AT divides
    the pair by |H_j|; the older member never passes it, since a
    renormalized pair has largest modulus 1."""
    for j in range(k, stop):
        h_prev, h_cur = h_cur, tx * h_cur - 2.0 * j * h_prev
        m = abs(h_cur)
        if m > _RENORM_AT:
            h_prev /= m
            h_cur /= m
            scale += math.log(m)
    return h_prev, h_cur, scale


def hermite_phys(n: int, x: float) -> ScaledReal:
    """Physicists' Hermite polynomial H_n(x) in scaled form."""
    check_order(n, 0, HERMITE_MAX_N, "hermite_phys degree")
    check_finite("hermite_phys argument", x)
    if n == 0:
        return ONE
    tx = 2.0 * x
    _, h_cur, scale = _hermite_advance(tx, 1, n, 1.0, tx, 0.0)
    if not math.isfinite(h_cur):
        raise DomainError(f"hermite_phys({n}, {x!r}) overflows double range")
    if h_cur == 0.0:
        return ZERO
    return ScaledReal(1 if h_cur > 0 else -1, math.log(abs(h_cur)) + scale)


def char_poly_mean(n: int, lam: float) -> ScaledReal:
    """Mean characteristic polynomial of an n x n matrix from either
    ensemble: (-1)^n 2^(-n/2) H_n(lam / sqrt(2))."""
    h = hermite_phys(n, lam / math.sqrt(2.0))
    if h.sign == 0:
        return ZERO
    sign = h.sign if n % 2 == 0 else -h.sign
    return ScaledReal(sign, h.log_mag - 0.5 * n * math.log(2.0))


def sigma_from_moments(f_cross: ScaledReal, f_mumu: ScaledReal, f_nunu: ScaledReal,
                       g_mu: ScaledReal, g_nu: ScaledReal, degenerate: str) -> float:
    """Correlation coefficient (f_cross - g_mu g_nu) / sqrt((f_mumu -
    g_mu^2)(f_nunu - g_nu^2)) of det(X - mu) and det(X - nu), from the
    scaled second moments f_n and the mean polynomials g = char_poly_mean,
    with the differences formed by scaled addition. A variance factor
    that is not positive raises DegenerateDenominatorError(degenerate)."""
    numer = scaled_add(f_cross, scaled_neg(scaled_mul(g_mu, g_nu)))
    var_mu = scaled_add(f_mumu, scaled_neg(scaled_mul(g_mu, g_mu)))
    var_nu = scaled_add(f_nunu, scaled_neg(scaled_mul(g_nu, g_nu)))
    if var_mu.sign <= 0 or var_nu.sign <= 0:
        raise DegenerateDenominatorError(degenerate)
    if numer.sign == 0:
        return 0.0
    log_ratio = numer.log_mag - 0.5 * (var_mu.log_mag + var_nu.log_mag)
    return numer.sign * math.exp(log_ratio)


def gue_kernel(n: int, x: float, y: float) -> ScaledReal:
    """Orthogonal-polynomial kernel K_n(x, y) for the Gaussian unitary
    ensemble with weight exp(-x^2/2).

    K_n(x,y) = exp(-(x^2+y^2)/4) * sum_{k=0}^{n-1} p_k(x) p_k(y) /
    (sqrt(2 pi) k!) with monic p_k(x) = 2^(-k/2) H_k(x / sqrt(2)). Each
    term joins a running max-shifted sum as soon as the recurrence reaches
    its order. A Hermite step or a log magnitude that leaves double range
    raises DomainError.
    """
    check_order(n, 1, GUE_KERNEL_MAX_N, "gue_kernel order")
    check_finite("gue_kernel arguments", x, y)
    tx, ty = (2.0 * (v / math.sqrt(2.0)) for v in (x, y))
    # (H_{k-1}, H_k, log scale) at x and at y from H_{-1} = 0, H_0 = 1;
    # the k = 0 term, 1, starts the sum under shift 0
    px, hx, gx = py, hy, gy = 0.0, 1.0, 0.0
    shift, total = 0.0, 1.0
    for k in range(1, n):
        px, hx, gx = _hermite_advance(tx, k - 1, k, px, hx, gx)
        py, hy, gy = _hermite_advance(ty, k - 1, k, py, hy, gy)
        if hx == 0.0 or hy == 0.0:
            continue
        # each factor's log is formed apart, so swapping x and y keeps the bits
        log_t = ((math.log(abs(hx)) + gx) + (math.log(abs(hy)) + gy)
                 - k * math.log(2.0) - math.lgamma(k + 1))
        sign = 1.0 if (hx > 0.0) == (hy > 0.0) else -1.0
        if log_t > shift:
            total, shift = total * math.exp(shift - log_t) + sign, log_t
        else:
            total += sign * math.exp(log_t - shift)
    if total == 0.0:
        return ZERO
    log_mag = (shift + math.log(abs(total)) - 0.5 * math.log(2.0 * math.pi)
               - (x * x + y * y) / 4.0)
    if not math.isfinite(log_mag):
        raise DomainError(f"gue_kernel({n}, {x!r}, {y!r}) overflows double range")
    return ScaledReal(1 if total > 0 else -1, log_mag)
