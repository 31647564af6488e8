"""Generating-function evaluation and scaled coefficient extraction.

The n-th correlation value is n! times the n-th Taylor coefficient of a
closed-form generating function with a square-root-type singularity at
z = 1. Coefficients are extracted by trapezoid quadrature on a circle
whose radius approaches the singularity like 1 - n^(-1/3); all exponent
arithmetic is done in log space under a single max shift so the method
reaches n = 10^6 without overflow.

The generating function has real coefficients, so the trapezoid sum
needs only the upper half circle. Its log-integrand is a coefficient
vector times six functions of the node, which depend only on the
circle: they are kept read-only for the 8 latest (radius, points)
pairs, 96 B per half-circle node, at most about 19.7 MB (8 circles at
n = 10^6). Work that shares a circle gains (sigma_alpha, sweeps over
alpha, bstar or offsets at fixed n, every n <= 8); one pass over
distinct n, as in an `edge` n-list, does not.

Bulk values (n <= 512) use no circle: they come from the 40-digit f_n
recurrence, which the contour falls back to when it cancels.
"""

from __future__ import annotations

import decimal
import functools
import math
import mmap
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Optional

import numpy as np
from scipy.special import gammaln

from .errors import CancellationError, DomainError, check_finite, check_order
from .numeric_core import ScaledReal
from .special_fn import char_poly_mean, sigma_from_moments

__all__ = [
    "EgfParams",
    "ContourJob",
    "SaddleData",
    "rho",
    "edge_lognorm",
    "extract_f",
    "edge_points",
    "edge_scaled_f",
    "edge_scaled_full",
    "bulk_scaled_full",
    "sigma_alpha",
]

MAX_ABS_Z = 0.9999
EDGE_MAX_N = 10 ** 6
BULK_MAX_N = 512
BULK_MAX_XI = 1.8

# The double-precision contour average loses up to 2.5e-15 times its
# condition number in relative error, plus 2 ulp of log |f| (measured
# over edge points up to n = 10^6): within about 2.5e-11 and that floor
# at the 1e4 trigger. An average that cancels past MP_CONDITION_AT is
# recomputed by the f_n recurrence instead, at every order a job admits
# (EDGE_MAX_N; about 0.3 s at n = 10^5 and 3 s at 10^6).
MP_CONDITION_AT = 1e4
# The benchmark's traced pass reads this alias.
MP_MAX_N = EDGE_MAX_N
# The recurrence refuses a value whose error estimate exceeds the
# tolerance. Its true error was measured at up to 3.1e3 times the
# estimate (near zeros of f_n in the bulk), so accepted values stay
# within about 3e-12.
_RECURRENCE_DIGITS = 40
_RECURRENCE_UNIT = 0.5 * 10.0 ** (1 - _RECURRENCE_DIGITS)
_RECURRENCE_TOL = 1e-15
_RECURRENCE_CONTEXT = decimal.Context(
    prec=_RECURRENCE_DIGITS, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN
)

# The default contour would degenerate to radius 0 at n = 1, so small n
# fall back to a fixed interior circle; the coefficient is radius-free.
MIN_RADIUS = 0.5


@dataclass(frozen=True)
class EgfParams:
    """Arguments of one generating function: family order alpha, fourth-
    moment shift bstar, and the two evaluation points of the underlying
    correlation."""

    alpha: float
    bstar: float
    mu: float
    nu: float

    def __post_init__(self):
        check_finite("generating-function arguments alpha, bstar, mu, nu, mu*mu + nu*nu",
                     self.alpha, self.bstar, self.mu, self.nu,
                     self.mu * self.mu + self.nu * self.nu)
        if not (self.alpha > 0):
            raise DomainError(f"alpha must be positive, got {self.alpha}")


def default_radius(n: int) -> float:
    check_order(n, 1, EDGE_MAX_N, "coefficient order")
    return max(MIN_RADIUS, 1.0 - n ** (-1.0 / 3.0))


def default_points(n: int) -> int:
    check_order(n, 1, EDGE_MAX_N, "coefficient order")
    return max(2048, 512 * math.ceil(n ** (1.0 / 3.0)))


@dataclass(frozen=True)
class ContourJob:
    """One coefficient extraction: which generating function, which
    coefficient order, and the circle it is integrated on. The circle's
    point count follows from the order: `default_points(n)`."""

    params: EgfParams
    n: int
    radius: float
    points: int = field(init=False)

    def __post_init__(self):
        # default_points checks the order
        object.__setattr__(self, "points", default_points(self.n))
        if not (0.0 < self.radius <= MAX_ABS_Z):
            raise DomainError(f"radius {self.radius} outside (0, {MAX_ABS_Z}]")

    @classmethod
    def with_defaults(cls, params: EgfParams, n: int,
                      radius: Optional[float] = None) -> "ContourJob":
        return cls(params, n, default_radius(n) if radius is None else radius)


@dataclass(frozen=True)
class SaddleData:
    """Diagnostics of one value: the contour's cancellation,
    max |integrand| / |result|, or for a bulk value the recurrence's."""

    condition: float


def rho(xi: float) -> float:
    """Semicircle density at bulk position xi in (-2, 2)."""
    if not (abs(xi) < 2.0):
        raise DomainError(f"bulk position {xi} outside (-2, 2)")
    return math.sqrt(4.0 - xi * xi) / (2.0 * math.pi)


def edge_lognorm(alpha: float, n: int, mu: float, nu: float) -> float:
    """Natural log of the edge normalizer."""
    check_order(n, 1, EDGE_MAX_N, "edge order n =")
    check_finite("edge normalizer arguments alpha, mu, nu", alpha, mu, nu)
    return (0.5 * math.log(2.0 * math.pi) + float(gammaln(n + 1))
            + (2.0 * alpha - 1.0) / 6.0 * math.log(n)
            + 2.0 * n + (mu + nu) * n ** (1.0 / 3.0))


@functools.lru_cache(maxsize=8)
def _half_circle(radius: float, points: int):
    """Read-only basis of the log-integrand on the upper-half trapezoid
    nodes of one circle, shared by its extractions: a (6, points/2 + 1)
    array whose rows are z/(1+z), z/(1-z), z^2, Log(1-z), Log(1+z) and
    log radius + i t at z = radius e^(i t), t = 2 pi k / points,
    k = 0 .. points/2. The radius is a ContourJob's, at most MAX_ABS_Z,
    so both logs are principal: Re(1 +- z) > 0 inside the unit disc."""
    m = points // 2 + 1
    # Anonymous pages, not the malloc heap: there a long-lived array pins
    # the freed temporaries around it (about 2 MB more peak RSS at n = 10^6).
    buf = mmap.mmap(-1, 96 * m)
    phi = np.frombuffer(buf, dtype=complex).reshape(6, m)
    z = phi[2]
    phi[5].real = math.log(radius)
    np.divide(2.0 * math.pi * np.arange(m), points, out=phi[5].imag)
    np.multiply(1j, phi[5].imag, out=z)
    np.exp(z, out=z)
    z *= radius
    np.subtract(1.0, z, out=phi[3])
    np.add(1.0, z, out=phi[4])
    np.divide(z, phi[4], out=phi[0])
    np.divide(z, phi[3], out=phi[1])
    z *= z
    np.log(phi[3:5], out=phi[3:5])
    phi.flags.writeable = False
    return phi


def _coefficients(params: EgfParams, n: int) -> np.ndarray:
    """Coefficients over the rows of `_half_circle` of log EGF(z) - n log z,

    log EGF = mu nu z/(1-z^2) - (mu^2+nu^2)/2 * z^2/(1-z^2) + bstar z^2
              - (alpha + 1/2) Log(1-z) - (1/2) Log(1+z).

    Its first two terms, each about 2 n^(4/3) at the edge where their sum
    is about 2 n, are taken as ((mu+nu)/2)^2 z/(1+z) - ((mu-nu)/2)^2 z/(1-z),
    which does not cancel. Both squares are at most (mu^2+nu^2)/2, which
    `EgfParams` keeps finite."""
    plus = 0.5 * (params.mu + params.nu)
    minus = 0.5 * (params.mu - params.nu)
    return np.array([plus * plus, -(minus * minus), params.bstar,
                     -(params.alpha + 0.5), -0.5, -n])


def extract_f(job: ContourJob):
    """n! times the n-th Taylor coefficient of the generating function.

    Trapezoid rule on the circle of the job; on a periodic integrand the
    uniform sum is spectrally accurate. The generating function has real
    coefficients, so its samples at t and -t are complex conjugates: the
    sum runs over the upper half circle and is real by construction. The
    power z^(-n) is assembled from polar pieces r^(-n) e^(-int), never
    through a complex log, so there is no branch-cut hazard. Contours far
    from the optimal radius concentrate the coefficient in a heavily
    cancelling average. One rule holds at every order: an average that
    cancels past MP_CONDITION_AT (an exact zero or NaN included) is
    replaced by the f_n recurrence's value instead of returning digits
    that doubles cannot support, so the recurrence's error-estimate rule
    is the only refusal. Returns the scaled value and extraction
    diagnostics; the condition is always the contour's cancellation.
    The exponent is `_coefficients` times the basis `_half_circle` caches.
    """
    params = job.params
    # A real product over the float view: its bits do not depend on the
    # BLAS thread count, where those of a complex product did.
    basis = _half_circle(job.radius, job.points).view(float)
    expo = (_coefficients(params, job.n) @ basis).view(complex)
    shift = float(expo.real.max())
    expo -= shift
    samples = np.exp(expo, out=expo).real
    mean = float(2.0 * samples.sum() - samples[0] - samples[-1]) / job.points
    # After the shift the largest sample has modulus exactly 1, so
    # 1/|mean| is the cancellation suffered by the average.
    if not abs(mean) >= 1.0 / MP_CONDITION_AT:
        value, log_c, _ = _recurrence_value(params, job.n)
        condition = max(1.0, math.exp(min(shift - log_c, 709.0)))
        return value, SaddleData(condition)
    value = ScaledReal(1 if mean > 0 else -1,
                       float(gammaln(job.n + 1)) + shift + math.log(abs(mean)))
    return value, SaddleData(max(1.0, 1.0 / abs(mean)))


def _unscaled(value: ScaledReal, lognorm: float) -> float:
    """value / e^lognorm, refused by a DomainError outside double range."""
    try:
        return value.sign * math.exp(value.log_mag - lognorm)
    except OverflowError:
        raise DomainError("a value left double range (scaled value "
                          f"e^{value.log_mag - lognorm:.6g})") from None


def _recurrence_f(params: EgfParams, n: int):
    """Sign and log |c_n| of c_n = f_n / n!, n >= 1, from the linear
    recurrence of the generating function, with an error estimate.

    (1 - z^2)^2 F' = P F with
    P = mu nu (1+z^2) - (mu^2+nu^2) z + 2 bstar z (1-z^2)^2
        + (alpha+1/2)(1-z)(1+z)^2 - (1/2)(1+z)(1-z)^2,
    so c_{m+1} = [sum_k p_k c_{m-k} + 2(m-1) c_{m-1} - (m-3) c_{m-3}] / (m+1)
    (Flajolet & Sedgewick, Analytic Combinatorics, App. B.4). It runs in
    decimal arithmetic, whose exponent range needs no rescaling. Doubles
    do not suffice: in the oscillatory bulk they lost up to 6e-8 in log
    while the estimate below read under 1e-11. The error estimate is
    (n+1) u kappa, with u the unit roundoff and kappa the sum of
    |products| over |sum| of the last step, each p_k split into its
    separate terms; an exact zero gives kappa = inf.
    """
    with decimal.localcontext(_RECURRENCE_CONTEXT):
        mu, nu, bstar = Decimal(params.mu), Decimal(params.nu), Decimal(params.bstar)
        half = Decimal("0.5")
        cross = mu * nu
        squares = mu * mu + nu * nu
        power = Decimal(params.alpha) + half
        p0 = cross + power - half
        p1 = 2 * bstar - squares + power + half
        p2 = cross - power + half
        p3 = -4 * bstar - power - half
        p5 = 2 * bstar
        window = (Decimal(1),) + (Decimal(0),) * 5
        for m in range(n):
            c0, c1, c2, c3, c4, c5 = window
            total = (p0 * c0 + (p1 + 2 * (m - 1)) * c1 + p2 * c2
                     + (p3 - (m - 3)) * c3 + p5 * c5)
            window = (total / (m + 1), c0, c1, c2, c3, c4)
        if total == 0:
            return 0, -math.inf, math.inf
        size = ((abs(cross) + power + half) * (abs(c0) + abs(c2))
                + (squares + 2 * abs(bstar) + power + half + abs(2 * (m - 1))) * abs(c1)
                + (4 * abs(bstar) + power + half + abs(m - 3)) * abs(c3)
                + 2 * abs(bstar) * abs(c5))
        error = (n + 1) * _RECURRENCE_UNIT * float(size / abs(total))
        return (1 if total > 0 else -1), float(abs(window[0]).ln()), error


def _recurrence_value(params: EgfParams, n: int):
    """f_n = n! c_n from `_recurrence_f` as a ScaledReal, with log |c_n|
    and the error estimate; a CancellationError naming n and params
    refuses an estimate above _RECURRENCE_TOL."""
    sign, log_c, error = _recurrence_f(params, n)
    if not error <= _RECURRENCE_TOL:
        raise CancellationError(
            f"recurrence error estimate {error:.3e} above "
            f"{_RECURRENCE_TOL:.0e} at n = {n}, {params}"
        )
    return ScaledReal(sign, float(gammaln(n + 1)) + log_c), log_c, error


def edge_points(n: int, mu: float, nu: float):
    """Evaluation points at offsets (mu, nu) from the spectral edge."""
    check_order(n, 1, EDGE_MAX_N, "edge order n =")
    check_finite("edge offsets mu, nu", mu, nu)
    root = math.sqrt(n)
    sixth = n ** (-1.0 / 6.0)
    return 2.0 * root + mu * sixth, 2.0 * root + nu * sixth


def edge_scaled_full(alpha: float, bstar: float, mu: float, nu: float, n: int):
    """Edge-scaled value together with the raw coefficient and diagnostics."""
    mu_n, nu_n = edge_points(n, mu, nu)
    job = ContourJob.with_defaults(EgfParams(alpha, bstar, mu_n, nu_n), n)
    value, diag = extract_f(job)
    lognorm = edge_lognorm(alpha, n, mu, nu)
    scaled = _unscaled(value, lognorm)
    return scaled, value, diag


def edge_scaled_f(alpha: float, bstar: float, mu: float, nu: float, n: int) -> float:
    """Edge-scaled correlation value; approaches exp(bstar) * i_alpha(alpha,
    mu, nu) with an O(n^(-1/3)) correction."""
    scaled, _, _ = edge_scaled_full(alpha, bstar, mu, nu, n)
    return scaled


def bulk_scaled_full(alpha: float, bstar: float, xi: float, mu: float,
                     nu: float, n: int):
    """Bulk-scaled value with raw coefficient and diagnostics.

    The bulk integrand has two oscillatory saddles, so a contour average
    cancels by a factor that grows with n. The f_n recurrence does not:
    the value comes from it directly, and the condition is its last
    step's cancellation kappa (error estimate over (n+1) u).
    """
    if alpha not in (1.0, 2.0):
        raise DomainError(f"bulk mode supports alpha 1 or 2, got {alpha}")
    check_order(n, 1, BULK_MAX_N, "bulk order n =")
    if abs(xi) > BULK_MAX_XI:
        raise DomainError(f"bulk position {xi} outside [-{BULK_MAX_XI}, {BULK_MAX_XI}]")
    rho_xi = rho(xi)
    root = math.sqrt(n)
    mu_n = root * xi + mu / (root * rho_xi)
    nu_n = root * xi + nu / (root * rho_xi)
    params = EgfParams(alpha, bstar, mu_n, nu_n)
    value, _, error = _recurrence_value(params, n)
    n_pow, rho_pow = (0.5, 1.0) if alpha == 1.0 else (1.5, 3.0)
    lognorm = (0.5 * math.log(2.0 * math.pi) + float(gammaln(n + 1))
               + n_pow * math.log(n) + rho_pow * math.log(rho_xi)
               + 0.5 * n * xi * xi + 0.5 * (mu + nu) * xi / rho_xi)
    scaled = _unscaled(value, lognorm)
    return scaled, value, SaddleData(error / ((n + 1) * _RECURRENCE_UNIT))


def sigma_alpha(alpha: float, bstar: float, mu_pt: float, nu_pt: float,
                n: int, f_cross: Optional[ScaledReal] = None) -> float:
    """Correlation coefficient of the two characteristic-polynomial values,
    from extracted second moments (see special_fn.sigma_from_moments).
    Evaluation points are raw arguments; callers studying edge behaviour
    pass edge-scaled points themselves. A caller that already holds
    f_cross = f_n(mu_pt, nu_pt) passes it, and it is not extracted again.
    At mu_pt == nu_pt sigma is 1 by definition, after the argument checks.
    """
    EgfParams(alpha, bstar, mu_pt, nu_pt)
    check_order(n, 1, EDGE_MAX_N, "correlation order n =")
    if mu_pt == nu_pt:
        return 1.0

    def f_at(mu: float, nu: float) -> ScaledReal:
        return extract_f(ContourJob.with_defaults(EgfParams(alpha, bstar, mu, nu), n))[0]

    if f_cross is None:
        f_cross = f_at(mu_pt, nu_pt)
    return sigma_from_moments(
        f_cross, f_at(mu_pt, mu_pt), f_at(nu_pt, nu_pt),
        char_poly_mean(n, mu_pt), char_poly_mean(n, nu_pt),
        f"nonpositive variance factor at n = {n}, points ({mu_pt}, {nu_pt})",
    )
