import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from wigcorr import egf_engine, wigner_mc
from wigcorr.errors import DegenerateDenominatorError, DomainError
from wigcorr.exact_oracle import EnsembleKind
from wigcorr.numeric_core import (
    ZERO,
    scaled_add,
    scaled_mul,
    scaled_neg,
    scaled_to_real_checked,
)
from wigcorr.special_fn import (
    AIRY_DOMAIN,
    _hermite_seq,
    airy,
    airy_contour,
    char_poly_mean,
    gue_kernel,
    hermite_phys,
)


def test_airy_at_zero():
    # Ai(0) = 3^(-2/3)/Gamma(2/3), Ai'(0) = -3^(-1/3)/Gamma(1/3)
    pair = airy(0.0)
    assert pair.ai == pytest.approx(0.3550280538878172, abs=1e-15)
    assert pair.ai_prime == pytest.approx(-0.2588194037928068, abs=1e-15)


def test_airy_domain_guard():
    airy(AIRY_DOMAIN)
    airy(-AIRY_DOMAIN)
    with pytest.raises(DomainError):
        airy(AIRY_DOMAIN + 1e-9)
    with pytest.raises(DomainError):
        airy(math.nan)


def test_airy_contour_agrees_with_library():
    # Two unrelated routes: AMOS series/asymptotics vs line quadrature.
    for x in (-5.0, -1.3, 0.0, 0.7, 2.0, 6.0):
        lib = airy(x)
        alt = airy_contour(x)
        assert alt.ai == pytest.approx(lib.ai, abs=1e-12)
        assert alt.ai_prime == pytest.approx(lib.ai_prime, abs=1e-12)


def test_hermite_small_degrees():
    assert scaled_to_real_checked(hermite_phys(0, 5.0)) == 1.0
    assert scaled_to_real_checked(hermite_phys(1, 1.5)) == pytest.approx(3.0)
    assert scaled_to_real_checked(hermite_phys(3, 1.0)) == pytest.approx(-4.0)
    assert scaled_to_real_checked(hermite_phys(4, 0.0)) == pytest.approx(12.0)
    # odd degree at the origin vanishes identically
    assert hermite_phys(5, 0.0).sign == 0


def test_hermite_parity():
    for n in (2, 3, 6, 11):
        plus = hermite_phys(n, 1.7)
        minus = hermite_phys(n, -1.7)
        assert minus.sign == (plus.sign if n % 2 == 0 else -plus.sign)
        assert minus.log_mag == pytest.approx(plus.log_mag, rel=1e-14)


def test_hermite_renormalized_high_degree():
    # degree 600 tops out near exp(1832), far beyond doubles; checked
    # against an arbitrary-precision evaluation of the same polynomial
    val = hermite_phys(600, 3.0)
    assert val.sign == -1
    assert val.log_mag == pytest.approx(1831.8578894116734, rel=1e-12)
    with mp.workdps(40):
        ref = mp.hermite(600, mp.mpf(3))
        assert val.log_mag == pytest.approx(float(mp.log(abs(ref))), rel=1e-12)


def test_hermite_domain_guard():
    with pytest.raises(DomainError):
        hermite_phys(-1, 0.0)
    with pytest.raises(DomainError):
        hermite_phys(2, math.inf)


@pytest.mark.parametrize("n, x", [
    (600, 3.0),
    (5000, (2.0 * math.sqrt(5000) + 1.5 * 5000 ** (-1.0 / 6.0)) / math.sqrt(2.0)),
    (10 ** 5, 1.234),
    (7, 0.0),
    (999, -2.5),
    (40, -150.0),
])
def test_hermite_phys_is_the_last_entry_of_the_sequence(n, x):
    # hermite_phys runs the Hermite loop once over all orders and
    # _hermite_seq one order at a time; both must give the same bits
    signs, logs = _hermite_seq(n, x)
    val = hermite_phys(n, x)
    if signs[n] == 0.0:
        assert val is ZERO
    else:
        assert val.sign == int(signs[n])
        assert val.log_mag == float(logs[n])


def test_hermite_overflow_names_the_input():
    # a step that leaves double range used to surface as a NaN log
    # magnitude; it must be refused with the degree and the argument
    with pytest.raises(DomainError, match=r"hermite_phys\(5, 1e\+200\)"):
        hermite_phys(5, 1e200)
    with pytest.raises(DomainError, match="overflows"):
        char_poly_mean(3, 1e120)


def test_char_poly_mean_small_orders():
    # E det(M - lam I): n = 2 gives lam^2 - 1 for both ensembles
    for lam in (-2.0, 0.0, 0.5, 3.0):
        got = scaled_to_real_checked(char_poly_mean(2, lam))
        assert got == pytest.approx(lam * lam - 1.0, abs=1e-13)
    # n = 1 gives -lam
    assert scaled_to_real_checked(char_poly_mean(1, 0.75)) == pytest.approx(-0.75)
    assert char_poly_mean(1, 0.0).sign == 0


def test_char_poly_mean_leading_coefficient():
    # highest power of lam carries (-1)^n, the det(M - lam I) convention
    lam = 25.0
    for n in (3, 5):
        got = scaled_to_real_checked(char_poly_mean(n, lam))
        assert got == pytest.approx((-lam) ** n, rel=0.02)


def test_gue_kernel_closed_form_order_two():
    # K_2(x, y) = (1 + x y) exp(-(x^2+y^2)/4) / sqrt(2 pi)
    for x, y in ((0.0, 0.0), (0.3, -0.7), (1.0, 1.0), (-2.0, 0.4)):
        want = (1.0 + x * y) * math.exp(-(x * x + y * y) / 4.0) / math.sqrt(
            2.0 * math.pi
        )
        got = scaled_to_real_checked(gue_kernel(2, x, y))
        assert got == pytest.approx(want, rel=1e-14)


def test_gue_kernel_symmetry():
    a = gue_kernel(17, 0.9, -1.4)
    b = gue_kernel(17, -1.4, 0.9)
    assert a.sign == b.sign
    assert a.log_mag == pytest.approx(b.log_mag, rel=1e-14)


def test_gue_kernel_diagonal_positive():
    for n in (1, 5, 40, 300):
        assert gue_kernel(n, 0.6, 0.6).sign == 1


def test_gue_kernel_domain_guard():
    with pytest.raises(DomainError):
        gue_kernel(0, 0.0, 0.0)
    with pytest.raises(DomainError):
        gue_kernel(2001, 0.0, 0.0)


@pytest.mark.parametrize("x, y", [(0.0, math.inf), (-math.inf, 0.5), (math.nan, 0.0),
                                  (0.3, math.nan)])
def test_gue_kernel_refuses_non_finite_arguments(x, y):
    # an infinite argument used to warn from numpy and then fail in
    # ScaledReal; it must be refused up front, naming the arguments
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"gue_kernel arguments \(.*\) must be finite"):
            gue_kernel(3, x, y)


def test_gue_kernel_christoffel_darboux_consistency():
    # K_{n+1} - K_n equals the single added term p_n(x) p_n(y) weighting
    n, x, y = 6, 0.8, -0.3
    rt2 = math.sqrt(2.0)
    pn = lambda t: scaled_to_real_checked(hermite_phys(n, t / rt2)) * 2.0 ** (
        -n / 2.0
    )
    extra = (
        pn(x)
        * pn(y)
        / (math.sqrt(2.0 * math.pi) * math.factorial(n))
        * math.exp(-(x * x + y * y) / 4.0)
    )
    diff = scaled_to_real_checked(gue_kernel(n + 1, x, y)) - scaled_to_real_checked(
        gue_kernel(n, x, y)
    )
    assert diff == pytest.approx(extra, rel=1e-12)


def _extract(alpha, bstar, mu, nu, n):
    job = egf_engine.ContourJob.with_defaults(egf_engine.EgfParams(alpha, bstar, mu, nu), n)
    return egf_engine.extract_f(job)[0]


# The two plug-in correlation formulas that egf_engine's sigma and
# wigner_mc._sigma_from_arrays each carried before they shared
# sigma_from_moments, kept verbatim as the bit-identity reference.
def _reference_sigma_from_cross(f_cross, alpha, bstar, mu_pt, nu_pt, n):
    if mu_pt == nu_pt:
        # Definitionally the numerator equals either variance factor.
        return 1.0
    f_mumu = _extract(alpha, bstar, mu_pt, mu_pt, n)
    f_nunu = _extract(alpha, bstar, nu_pt, nu_pt, n)
    g_mu = char_poly_mean(n, mu_pt)
    g_nu = char_poly_mean(n, nu_pt)
    numer = scaled_add(f_cross, scaled_neg(scaled_mul(g_mu, g_nu)))
    var_mu = scaled_add(f_mumu, scaled_neg(scaled_mul(g_mu, g_mu)))
    var_nu = scaled_add(f_nunu, scaled_neg(scaled_mul(g_nu, g_nu)))
    if var_mu.sign <= 0 or var_nu.sign <= 0:
        raise DegenerateDenominatorError(
            f"nonpositive variance factor at n = {n}, points "
            f"({mu_pt}, {nu_pt})"
        )
    if numer.sign == 0:
        return 0.0
    log_ratio = numer.log_mag - 0.5 * (var_mu.log_mag + var_nu.log_mag)
    return numer.sign * math.exp(log_ratio)


def _reference_sigma_from_arrays(signs, logs, lambdas, mu, nu, n, where):
    mean_scaled, pair_samples = wigner_mc._mean_scaled, wigner_mc._pair_samples
    i_mu, i_nu = lambdas.index(mu), lambdas.index(nu)
    f_cross, _ = mean_scaled(*pair_samples(signs, logs, i_mu, i_nu))
    f_mumu, _ = mean_scaled(*pair_samples(signs, logs, i_mu, i_mu))
    f_nunu, _ = mean_scaled(*pair_samples(signs, logs, i_nu, i_nu))
    g_mu = char_poly_mean(n, mu)
    g_nu = char_poly_mean(n, nu)
    numer = scaled_add(f_cross, scaled_neg(scaled_mul(g_mu, g_nu)))
    var_mu = scaled_add(f_mumu, scaled_neg(scaled_mul(g_mu, g_mu)))
    var_nu = scaled_add(f_nunu, scaled_neg(scaled_mul(g_nu, g_nu)))
    if var_mu.sign <= 0 or var_nu.sign <= 0:
        raise DegenerateDenominatorError(
            f"nonpositive variance estimate at point ({mu}, {nu}) in {where}"
        )
    if numer.sign == 0:
        return 0.0
    return numer.sign * math.exp(
        numer.log_mag - 0.5 * (var_mu.log_mag + var_nu.log_mag)
    )


def _reference_sigma_detail(cfg):
    """estimate_sigma_detail on the reference formula, in 20 batches, or
    fewer so that each holds at least 50 samples."""
    batches = min(20, cfg.samples // 50)
    lambdas = wigner_mc._lambda_index(cfg.points)
    signs, logs = wigner_mc._collect_dets(cfg, lambdas)
    edges = np.linspace(0, cfg.samples, batches + 1, dtype=int)
    out = []
    for mu, nu in cfg.points:
        value = _reference_sigma_from_arrays(
            signs, logs, lambdas, mu, nu, cfg.n,
            f"the whole sample ({cfg.samples} samples)",
        )
        batch_vals = [
            _reference_sigma_from_arrays(
                signs[lo:hi], logs[lo:hi], lambdas, mu, nu, cfg.n,
                f"batch index {b} of {batches} batches ({hi - lo} samples; "
                f"the whole-sample estimate is {value!r})",
            )
            for b, (lo, hi) in enumerate(zip(edges[:-1], edges[1:]))
        ]
        out.append((value, float(np.std(batch_vals, ddof=1)) / math.sqrt(batches)))
    return out


@pytest.mark.parametrize("alpha, bstar, mu, nu, n", [
    (1.0, 0.0, 0.3, -0.7, 4),
    (1.0, 0.25, -1.3, 2.0, 16),
    (1.0, 0.0, *egf_engine.edge_points(1024, 0.0, 1.0), 1024),
    (1.0, -0.5, 0.8, 0.8, 8),
    (2.0, 0.0, 0.3, -0.7, 4),
    (2.0, -1.0, -0.5, 1.2, 32),
    (2.0, 0.5, *egf_engine.edge_points(125, -1.0, 0.5), 125),
    (2.0, 0.0, 2.5, -2.5, 64),
])
def test_sigma_alpha_bit_identical_to_reference(alpha, bstar, mu, nu, n):
    f_cross = _extract(alpha, bstar, mu, nu, n)
    want = _reference_sigma_from_cross(f_cross, alpha, bstar, mu, nu, n)
    assert egf_engine.sigma_alpha(alpha, bstar, mu, nu, n) == want
    assert egf_engine.sigma_alpha(alpha, bstar, mu, nu, n, f_cross=f_cross) == want


@pytest.mark.parametrize("kind", [EnsembleKind.HERMITIAN,
                                  EnsembleKind.REAL_SYMMETRIC])
def test_estimate_sigma_detail_bit_identical_to_reference(kind):
    points = ((0.3, -0.7), (1.0, 0.2), (-0.5, 1.5), (0.4, 0.4))
    cfg = wigner_mc.MCConfig(kind, wigner_mc.dist_for("uniform", kind), 4,
                             2000, 5, points=points)
    assert wigner_mc.estimate_sigma_detail(cfg) == _reference_sigma_detail(cfg)


def test_estimate_sigma_degenerate_message_matches_reference():
    cfg = wigner_mc.MCConfig(EnsembleKind.HERMITIAN,
                             wigner_mc.dist_for("gaussian", EnsembleKind.HERMITIAN),
                             4, 200, 5, points=((5.0, -1.0),))
    with pytest.raises(DegenerateDenominatorError) as want:
        _reference_sigma_detail(cfg)
    with pytest.raises(DegenerateDenominatorError) as got:
        wigner_mc.estimate_sigma_detail(cfg)
    assert str(got.value) == str(want.value)
