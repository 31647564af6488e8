"""Limit kernels and the one-parameter family interpolating them.

The bulk kernels (sine_kernel, t_kernel) are elementary. The edge
kernels (airy_kernel, b_kernel) have closed forms with a removable
diagonal singularity, handled by explicit near-diagonal branches. The
family i_alpha is a line integral along z = 1 - iu that reproduces the
Airy product at alpha = 0, airy_kernel at alpha = 1, and b_kernel at
alpha = 2, and gives meaning to non-integer orders.
"""

from __future__ import annotations

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
_DIAGONAL_BLOCK = 1024  # diagonal points per matrix product in i_alpha_diagonal
_NODE_STRIDE = 64  # inner factor of the node index in i_alpha_diagonal


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


def i_alpha(alpha: float, mu: float, nu: float,
            quad: QuadratureSpec = DEFAULT_LINE_QUAD) -> float:
    """Line-integral kernel family along z = 1 - iu.

    (1/4 pi^(3/2)) * integral over u of
    exp((1-iu)^3/12 - (mu+nu)(1-iu)/2 - (mu-nu)^2/(4(1-iu))) / (1-iu)^(alpha+1/2).

    The principal power is well defined since Re(1-iu) = 1 > 0. The exact
    value is real; the quadrature's imaginary residue is asserted small.
    """
    if not (0.0 <= alpha <= ALPHA_MAX):
        raise DomainError(f"alpha {alpha} outside [0, {ALPHA_MAX}]")
    _check_box(mu, nu, "i_alpha")
    s = 0.5 * (mu + nu)
    q = 0.25 * (mu - nu) ** 2

    def integrand(u: np.ndarray) -> np.ndarray:
        w = 1.0 - 1j * u
        return np.exp(w ** 3 / 12.0 - s * w - q / w) / w ** (alpha + 0.5)

    val = trapezoid_line(integrand, quad) / (4.0 * math.pi ** 1.5)
    return float(_real_part(np.array([val]), "i_alpha", lambda i: (alpha, mu, nu))[0])


def _real_part(vals: np.ndarray, name: str, at: Callable[[int], object]) -> np.ndarray:
    """vals.real, raising at(i) for the first imaginary residue above
    IMAG_TOL (absolute at unit scale, relative above it)."""
    bad = np.abs(vals.imag) > IMAG_TOL * np.maximum(1.0, np.abs(vals.real))
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericalConsistencyError(
            f"{name} imaginary residue {vals[i].imag:.3e} exceeds tolerance", at=at(i))
    return vals.real


def i_alpha_diagonal(alpha: float, xs: np.ndarray) -> np.ndarray:
    """Vectorized i_alpha(alpha, x, x) over an array of diagonal points.

    With node index k = aB + b (B = _NODE_STRIDE) the node exponentials
    factor as exp(-x w_k) = exp(-x w_aB) exp(i x b h), so a point needs
    ceil(n/B) + B exponentials and one matrix product instead of n. The
    rounding of the factored phase leaves it within 4e-13 of i_alpha at
    x = -10 (relative above 1), the floor set by terms that grow as e^|x|.
    """
    if not (0.0 <= alpha <= ALPHA_MAX):
        raise DomainError(f"alpha {alpha} outside [0, {ALPHA_MAX}]")
    xs = np.asarray(xs, dtype=float)
    if xs.size and not (np.abs(xs) <= ARG_BOX).all():
        raise DomainError("diagonal points outside the argument box or not finite")
    u = DEFAULT_LINE_QUAD.nodes()
    h = 2.0 * DEFAULT_LINE_QUAD.truncation_halfwidth / (u.size - 1)
    w = 1.0 - 1j * u
    weights = np.full(u.size, h)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    # fixed_w[b, a] is the weighted fixed factor of node aB + b, zero past the last node
    fixed_w = np.exp(w ** 3 / 12.0) / w ** (alpha + 0.5) * weights
    fixed_w = np.pad(fixed_w, (0, -u.size % _NODE_STRIDE)).reshape(-1, _NODE_STRIDE).T
    coarse, fine_phase = w[::_NODE_STRIDE], 1j * h * np.arange(_NODE_STRIDE)
    out = np.empty(xs.size, dtype=complex)
    flat = xs.ravel()
    for i in range(0, flat.size, _DIAGONAL_BLOCK):
        block = flat[i:i + _DIAGONAL_BLOCK, None]
        # numpy hands a one-row product to gemv, which rounds unlike gemm;
        # two rows keep each point's bits independent of its block
        rows = np.repeat(block, 2, axis=0) if len(block) == 1 else block
        inner = (np.exp(rows * fine_phase) @ fixed_w)[:len(block)]
        out[i:i + _DIAGONAL_BLOCK] = (np.exp(-block * coarse) * inner).sum(axis=1)
    out /= 4.0 * math.pi ** 1.5
    real = _real_part(out, "i_alpha_diagonal", lambda i: (alpha, float(flat[i])))
    return real.reshape(xs.shape)


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


def diag_recursion_check(alpha: float, x: float):
    """Both sides of the diagonal downward recursion.

    lhs = i_alpha(alpha, x, x); rhs integrates i_alpha(alpha-1, y, y)
    from x out to the argument box (the integrand decays
    super-exponentially, so the cutoff is conservative). The trapezoid
    sum carries an O(h^2)
    left-endpoint term because the integrand does not vanish at y = x;
    one Richardson step over the pair (h, h/2) removes it. Both sums
    share one evaluation: every other node of the fine grid is bit-equal
    to the coarse grid's.
    """
    if not (alpha >= 1.0):
        raise DomainError(f"recursion needs alpha >= 1, got {alpha}")
    if abs(x) > 10.0:
        raise DomainError(f"recursion check point {x} outside [-10, 10]")
    lhs = i_alpha(alpha, x, x)

    # The tail beyond the argument box is below 1e-40, so capping the
    # cutoff there loses nothing while keeping every node in domain.
    cutoff = min(x + 40.0, ARG_BOX)
    span = cutoff - x

    def trap(vals: np.ndarray) -> float:
        return (span / (vals.size - 1)) * (vals.sum() - 0.5 * (vals[0] + vals[-1]))

    count = max(64, int(round(span / 0.04)))
    fine = i_alpha_diagonal(alpha - 1.0, np.linspace(x, cutoff, 2 * count + 1))
    t_h, t_half = trap(fine[::2]), trap(fine)
    rhs = (4.0 * t_half - t_h) / 3.0
    return lhs, rhs
