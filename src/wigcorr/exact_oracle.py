"""Exact finite-n expectations by permutation-pair expansion.

E[det(X - mu) det(X - nu)] expands over pairs of permutations into
monomials in the matrix entries; independence factorizes each monomial
over the entry positions, and every factor is a polynomial in the first
four moments of the entry distribution. No sampling, no quadrature: this
module is the ground truth the other routes are checked against at small
n.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import DomainError, check_finite, check_order

__all__ = [
    "EnsembleKind",
    "MomentProfile",
    "law_moments",
    "gaussian_profile",
    "bstar_for",
    "ensemble_alpha",
    "ensemble_variance",
    "oracle_f",
]

ORACLE_F_MAX_N = 6
# sigma rows per block of oracle_f: a (rows, n!) complex block stays
# under 1 MB at n = 6.
_ORACLE_BLOCK_ROWS = 60

_M2_TOL = 1e-12


class EnsembleKind(str, Enum):
    HERMITIAN = "hermitian"
    REAL_SYMMETRIC = "real_symmetric"


@dataclass(frozen=True)
class MomentProfile:
    """Moments m2..m4 of the centred entry distribution (m1 = 0).

    The entry law enters every expectation here only through these
    numbers, which is exactly the universality being tested.
    """

    m2: float
    m3: float
    m4: float

    def __post_init__(self):
        check_finite("moments m2, m3, m4", self.m2, self.m3, self.m4)
        if not (self.m2 > 0.0):
            raise DomainError(f"m2 must be positive, got {self.m2}")
        if self.m4 < self.m2 ** 2 - 1e-12:
            raise DomainError(
                f"m4 = {self.m4} violates m4 >= m2^2 = {self.m2 ** 2}"
            )


def law_moments(law: str, m2: float, p: float = 0.5) -> MomentProfile:
    """Moments of a centred entry law at variance m2, one row per law:
    "gaussian", "uniform", and "two_point", which puts mass p on its
    positive atom. "rademacher" is the two-point law at p = 1/2. A p
    outside (0, 1) is refused whatever the law."""
    if not (0.0 < p < 1.0):
        raise DomainError(f"two_point_p must be in (0, 1), got {p}")
    if law == "gaussian":
        return MomentProfile(m2, 0.0, 3.0 * m2 * m2)
    if law == "uniform":
        return MomentProfile(m2, 0.0, 9.0 * m2 * m2 / 5.0)
    if law == "rademacher":
        p = 0.5
    elif law != "two_point":
        raise DomainError(f"unknown entry distribution {law!r}")
    m3 = m2 ** 1.5 * (1.0 - 2.0 * p) / math.sqrt(p * (1.0 - p))
    m4 = m2 * m2 * (1.0 - 3.0 * p + 3.0 * p * p) / (p * (1.0 - p))
    return MomentProfile(m2, m3, m4)


def gaussian_profile(kind: EnsembleKind) -> MomentProfile:
    """Moments of a centered Gaussian at the variance the ensemble fixes."""
    return law_moments("gaussian", ensemble_variance(kind))


def _check_profile(kind: EnsembleKind, moments: MomentProfile) -> None:
    want = ensemble_variance(kind)
    if abs(moments.m2 - want) > _M2_TOL:
        raise DomainError(
            f"{kind.value} ensemble requires m2 = {want}, got {moments.m2}"
        )


def bstar_for(kind: EnsembleKind, moments: MomentProfile) -> float:
    """Fourth-moment shift entering the generating function's exp(b* z^2)."""
    _check_profile(kind, moments)
    if kind == EnsembleKind.HERMITIAN:
        return moments.m4 - 0.75
    return (moments.m4 - 3.0) / 2.0


def ensemble_alpha(kind: EnsembleKind) -> float:
    """Order of the generating-function denominator for the ensemble."""
    return 1.0 if kind == EnsembleKind.HERMITIAN else 2.0


def ensemble_variance(kind: EnsembleKind) -> float:
    """Entry variance m2 the ensemble fixes (of each of the real and
    imaginary parts in the Hermitian case)."""
    return 0.5 if kind == EnsembleKind.HERMITIAN else 1.0


@lru_cache(maxsize=8)
def _perm_codes(n: int):
    """Signatures and per-position state codes of every permutation of
    range(n), for `oracle_f`.

    `signs` holds each permutation's signature as +-1.0.
    `fixed[i]` is true where the permutation fixes i. `pairs[k]` is
    3*[p(i) = j] + [p(j) = i] for the k-th pair i < j in lexicographic
    order. Codes add over the two permutations of a pair, so
    `2*fixed_s + fixed_t` indexes the diagonal factor and
    `pairs_s + pairs_t` = 3*k1 + k2 indexes the flattened 3 x 3 table of
    the moment E[x^k1 conj(x)^k2].
    """
    perms = list(itertools.permutations(range(n)))
    table = np.array(perms, dtype=np.int64)
    signs = np.empty(len(perms))
    for idx, p in enumerate(perms):
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if p[a] > p[b])
        signs[idx] = -1.0 if inv % 2 else 1.0
    fixed = [table[:, i] == i for i in range(n)]
    pairs = [3 * (table[:, i] == j) + (table[:, j] == i)
             for i in range(n) for j in range(i + 1, n)]
    return signs, fixed, pairs


def _hermitian_pair_table(m2: float, m3: float, m4: float) -> np.ndarray:
    """E[(R + iI)^k1 (R - iI)^k2] for independent R, I sharing moments m_k.

    Powers up to 2 per factor occur: a position pair is touched at most
    once by each determinant's product.
    """
    table = np.zeros((3, 3), dtype=complex)
    table[0, 0] = 1.0
    table[1, 1] = 2.0 * m2
    table[2, 1] = m3 * (1.0 + 1.0j)
    table[1, 2] = m3 * (1.0 - 1.0j)
    table[2, 2] = 2.0 * m4 + 2.0 * m2 * m2
    return table


def oracle_f(kind: EnsembleKind, moments: MomentProfile, n: int,
             mu: float, nu: float) -> float:
    """E[det(X - mu I) det(X - nu I)] for an n x n ensemble matrix.

    Sums sgn(sigma) sgn(tau) times the factorized expectation of the
    entry monomial picked out by the permutation pair (sigma, tau); cost
    grows like (n!)^2. A block of sigma rows is evaluated against every
    tau at once: each position's factor is looked up from the state
    codes of the pair (`_perm_codes`), and the factors are multiplied in
    the same order as a per-pair product, so the result does not depend
    on the block size.
    """
    check_order(n, 1, ORACLE_F_MAX_N, "oracle_f order")
    check_finite("oracle_f points", mu, nu)
    _check_profile(kind, moments)
    m2, m3, m4 = moments.m2, moments.m3, moments.m4
    signs, fixed, pairs = _perm_codes(n)
    if kind == EnsembleKind.HERMITIAN:
        ptab = _hermitian_pair_table(m2, m3, m4).ravel()
    else:
        powers = np.array([1.0, 0.0, m2, m3, m4])
        ptab = powers[np.add.outer(np.arange(3), np.arange(3))].ravel()
    ptab = ptab.astype(complex)
    dtab = np.array([1.0, -nu, -mu, 2.0 * m2 + mu * nu], dtype=complex)

    total = 0.0 + 0.0j
    for start in range(0, len(signs), _ORACLE_BLOCK_ROWS):
        rows = slice(start, start + _ORACLE_BLOCK_ROWS)
        factor = (signs[rows, None] * signs).astype(complex)
        for code in fixed:
            factor *= dtab.take(2 * code[rows, None] + code)
        for code in pairs:
            factor *= ptab.take(code[rows, None] + code)
        for row_sum in factor.sum(axis=1):
            total += row_sum
    if abs(total.imag) > 1e-9 * max(1.0, abs(total.real)):
        raise DomainError(
            f"oracle accumulation lost realness: imag = {total.imag!r}"
        )
    return float(total.real)
