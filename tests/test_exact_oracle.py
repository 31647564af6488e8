"""Permutation-expansion oracle: exact small-n ground truth."""

import itertools

import numpy as np
import pytest

from wigcorr.errors import DomainError
from wigcorr.exact_oracle import (
    EnsembleKind,
    MomentProfile,
    bstar_for,
    ensemble_alpha,
    ensemble_variance,
    gaussian_profile,
    law_moments,
    oracle_f,
    _hermitian_pair_table,
    _perm_codes,
)
from wigcorr.numeric_core import scaled_to_real_checked
from wigcorr.special_fn import char_poly_mean
from wigcorr.wigner_mc import dist_for, moments_of

HERM = EnsembleKind.HERMITIAN
SYM = EnsembleKind.REAL_SYMMETRIC


def rademacher_profile(kind):
    return law_moments("rademacher", ensemble_variance(kind))


def test_profile_validation():
    with pytest.raises(DomainError):
        MomentProfile(-1.0, 0.0, 3.0)
    with pytest.raises(DomainError):
        MomentProfile(1.0, 0.0, 0.5)  # m4 below m2^2
    with pytest.raises(DomainError, match="unknown entry distribution"):
        law_moments("cauchy", 1.0)
    # a two-point law needs both atoms: p outside (0, 1) is refused, not
    # divided by zero or passed to a negative square root
    for p in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(DomainError, match="two_point_p must be in"):
            law_moments("two_point", 0.5, p)


def test_builtin_profiles():
    assert gaussian_profile(HERM) == MomentProfile(0.5, 0.0, 0.75)
    assert gaussian_profile(SYM) == MomentProfile(1.0, 0.0, 3.0)
    assert rademacher_profile(HERM) == MomentProfile(0.5, 0.0, 0.25)
    assert rademacher_profile(SYM) == MomentProfile(1.0, 0.0, 1.0)


def test_bstar_values():
    assert bstar_for(HERM, gaussian_profile(HERM)) == 0.0
    assert bstar_for(HERM, rademacher_profile(HERM)) == -0.5
    assert bstar_for(SYM, gaussian_profile(SYM)) == 0.0
    assert bstar_for(SYM, rademacher_profile(SYM)) == -1.0


def test_bstar_rejects_wrong_variance():
    with pytest.raises(DomainError):
        bstar_for(HERM, MomentProfile(1.0, 0.0, 3.0))
    with pytest.raises(DomainError):
        bstar_for(SYM, MomentProfile(0.5, 0.0, 0.75))


def test_ensemble_alpha():
    assert ensemble_alpha(HERM) == 1.0
    assert ensemble_alpha(SYM) == 2.0


def test_oracle_f_order_one():
    # single entry: E[(x - mu)(x - nu)] = var + mu nu, var = alpha
    for kind in (HERM, SYM):
        prof = gaussian_profile(kind)
        alpha = ensemble_alpha(kind)
        for mu, nu in ((0.0, 0.0), (0.5, -1.0), (2.0, 0.25)):
            assert oracle_f(kind, prof, 1, mu, nu) == pytest.approx(
                alpha + mu * nu, abs=1e-14
            )
        # exact root of the first correlator
        assert oracle_f(kind, prof, 1, alpha, -1.0) == pytest.approx(0.0, abs=1e-14)


def test_oracle_f_order_two_closed_forms():
    # 2x2 expansions done by hand:
    #   hermitian gaussian  (1 + mu nu)^2 - mu^2 - nu^2 + 2
    #   symmetric gaussian  (2 + mu nu)^2 - mu^2 - nu^2 + 3
    for mu, nu in ((0.0, 0.0), (0.3, -0.7), (1.0, 1.0), (-1.2, 0.4)):
        want_h = (1.0 + mu * nu) ** 2 - mu * mu - nu * nu + 2.0
        want_s = (2.0 + mu * nu) ** 2 - mu * mu - nu * nu + 3.0
        assert oracle_f(HERM, gaussian_profile(HERM), 2, mu, nu) == pytest.approx(
            want_h, rel=1e-13, abs=1e-13
        )
        assert oracle_f(SYM, gaussian_profile(SYM), 2, mu, nu) == pytest.approx(
            want_s, rel=1e-13, abs=1e-13
        )


def test_oracle_f_fourth_moment_sensitivity():
    # rademacher entries lower m4, which shows up at order two and beyond
    assert oracle_f(HERM, gaussian_profile(HERM), 2, 0.0, 0.0) == pytest.approx(3.0)
    assert oracle_f(HERM, rademacher_profile(HERM), 2, 0.0, 0.0) == pytest.approx(2.0)


def test_oracle_f_third_moment_invariance():
    # m3 never survives the expectation: every odd-power factor dies
    base = gaussian_profile(SYM)
    for n in (2, 3, 4):
        ref = oracle_f(SYM, base, n, 0.6, -0.9)
        for m3 in (-1.0, 0.5, 1.0):
            skewed = MomentProfile(1.0, m3, 3.0)
            assert oracle_f(SYM, skewed, n, 0.6, -0.9) == pytest.approx(
                ref, rel=1e-13
            )
    skewed_h = MomentProfile(0.5, 0.4, 0.75)
    assert oracle_f(HERM, skewed_h, 3, 0.6, -0.9) == pytest.approx(
        oracle_f(HERM, gaussian_profile(HERM), 3, 0.6, -0.9), rel=1e-13
    )


def test_oracle_f_symmetric_in_arguments():
    for kind in (HERM, SYM):
        prof = gaussian_profile(kind)
        assert oracle_f(kind, prof, 3, 0.8, -0.3) == pytest.approx(
            oracle_f(kind, prof, 3, -0.3, 0.8), rel=1e-13
        )


def _reference_oracle_f(kind, moments, n, mu, nu):
    # The per-sigma loop oracle_f ran before it was blocked, kept verbatim
    # as the bit-identity reference (realness check and bounds omitted).
    m2, m3, m4 = moments.m2, moments.m3, moments.m4
    table = np.array(list(itertools.permutations(range(n))))
    signs, _, _ = _perm_codes(n)
    hermitian = kind == EnsembleKind.HERMITIAN
    if hermitian:
        pair = _hermitian_pair_table(m2, m3, m4)
    else:
        powers = np.array([1.0, 0.0, m2, m3, m4])
    diag_both = 2.0 * m2 + mu * nu

    total = 0.0 + 0.0j
    for sidx in range(len(signs)):
        s = table[sidx]
        factor = (signs[sidx] * signs).astype(complex)
        for i in range(n):
            on_diag = table[:, i] == i
            if s[i] == i:
                factor *= np.where(on_diag, diag_both, -mu)
            else:
                factor *= np.where(on_diag, -nu, 1.0)
        for i in range(n):
            for j in range(i + 1, n):
                k1 = (1 if s[i] == j else 0) + (table[:, i] == j)
                k2 = (1 if s[j] == i else 0) + (table[:, j] == i)
                if hermitian:
                    factor *= pair[k1, k2]
                else:
                    factor *= powers[k1 + k2]
        total += factor.sum()
    return float(total.real)


def _bit_identity_profiles(kind):
    laws = [moments_of(dist_for(law, kind))
            for law in ("gaussian", "rademacher", "uniform")]
    laws.append(moments_of(dist_for("two_point", kind, two_point_p=0.3)))
    m2 = 0.5 if kind == HERM else 1.0
    laws.append(MomentProfile(m2, -0.45, 2.4 * m2 * m2))
    return laws


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("kind", (HERM, SYM))
def test_oracle_f_bit_identical_to_per_sigma_loop(kind, n):
    # The blocked evaluation multiplies the same factors in the same order
    # and sums the same rows in sigma order, so it must agree exactly:
    # at distinct points, at mu = nu, and at mu nu = -alpha, where f_1 is
    # an exact zero. n = 6 keeps one point (about 0.2 s per reference).
    alpha = ensemble_alpha(kind)
    points = [(0.3, -0.7), (0.5, 0.5), (-1.3, 2.0), (2.0, -0.25), (0.0, 0.0),
              (alpha, -1.0)]
    if n == 6:
        points = points[:1]
    profiles = _bit_identity_profiles(kind)
    assert any(p.m3 != 0.0 for p in profiles)
    for moments in profiles:
        for mu, nu in points:
            got = oracle_f(kind, moments, n, mu, nu)
            assert got == _reference_oracle_f(kind, moments, n, mu, nu), (
                moments, mu, nu
            )
    if n == 1:
        assert oracle_f(kind, profiles[0], 1, alpha, -1.0) == 0.0


def test_oracle_f_bounds():
    prof = gaussian_profile(HERM)
    with pytest.raises(DomainError):
        oracle_f(HERM, prof, 0, 0.0, 0.0)
    with pytest.raises(DomainError):
        oracle_f(HERM, prof, 7, 0.0, 0.0)


def oracle_mean(kind, moments, n, lam):
    """E[det(X - lam I)] for an n x n ensemble matrix.

    Only involutions survive: any cycle of length >= 3 touches some
    off-diagonal position exactly once, and its first moment is zero.
    Fixed points contribute -lam; transpositions contribute the pair
    second moment.
    """
    # The permutation-sum route to the mean, the independent reference
    # for char_poly_mean (bounds and profile check omitted).
    pair_m2 = 2.0 * moments.m2 if kind == EnsembleKind.HERMITIAN else moments.m2
    total = 0.0
    for perm in itertools.permutations(range(n)):
        value = 1.0
        involution = True
        for i in range(n):
            if perm[i] == i:
                value *= -lam
            elif perm[perm[i]] == i:
                if i < perm[i]:
                    value *= pair_m2
            else:
                involution = False
                break
        if not involution:
            continue
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        total += -value if inv % 2 else value
    return total


def test_oracle_mean_small_orders():
    prof = gaussian_profile(HERM)
    assert oracle_mean(HERM, prof, 1, 0.8) == pytest.approx(-0.8)
    assert oracle_mean(HERM, prof, 2, 1.5) == pytest.approx(1.25)  # lam^2 - 1


def test_oracle_mean_matches_hermite_route():
    # the mean characteristic polynomial is the same Hermite polynomial
    # for both ensembles and any entry law with these low moments
    for lam in (-1.3, 0.0, 0.8):
        for n in range(1, 8):
            want = scaled_to_real_checked(char_poly_mean(n, lam))
            got_h = oracle_mean(HERM, gaussian_profile(HERM), n, lam)
            got_s = oracle_mean(SYM, rademacher_profile(SYM), n, lam)
            assert got_h == pytest.approx(want, rel=1e-12, abs=1e-12)
            assert got_s == pytest.approx(want, rel=1e-12, abs=1e-12)

