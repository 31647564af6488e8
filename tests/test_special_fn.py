import math

import mpmath as mp
import numpy as np
import pytest

from wigcorr.errors import DomainError
from wigcorr.numeric_core import ZERO, QuadratureSpec, scaled_to_real_checked
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


def test_airy_contour_respects_quadrature_spec():
    coarse = QuadratureSpec(truncation_halfwidth=20.0, point_count=1500)
    pair = airy_contour(1.0, coarse)
    assert pair.ai == pytest.approx(airy(1.0).ai, abs=1e-10)


def test_hermite_small_degrees():
    assert scaled_to_real_checked(hermite_phys(0, 5.0)) == 1.0
    assert scaled_to_real_checked(hermite_phys(1, 1.5)) == pytest.approx(3.0)
    assert scaled_to_real_checked(hermite_phys(3, 1.0)) == pytest.approx(-4.0)
    assert scaled_to_real_checked(hermite_phys(4, 0.0)) == pytest.approx(12.0)
    # odd degree at the origin vanishes identically
    assert hermite_phys(5, 0.0).is_zero()


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
    # hermite_phys keeps only the running pair of the recurrence that
    # _hermite_seq stores in full; both must give the same bits
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
    assert char_poly_mean(1, 0.0).is_zero()


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
