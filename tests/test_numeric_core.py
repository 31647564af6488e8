"""Scaled arithmetic and quadrature primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wigcorr.errors import DomainError, NumericalConsistencyError
from wigcorr.numeric_core import (
    ONE,
    ZERO,
    QuadratureSpec,
    ScaledReal,
    scaled_add,
    scaled_div,
    scaled_from_real,
    scaled_mul,
    scaled_neg,
    scaled_to_real_checked,
    trapezoid_line,
)

finite_reals = st.floats(
    min_value=1e-100, max_value=1e100, allow_nan=False, allow_infinity=False
)
signed_reals = st.one_of(finite_reals, finite_reals.map(lambda x: -x))


def test_scaled_real_validation():
    with pytest.raises(DomainError):
        ScaledReal(2, 0.0)
    with pytest.raises(DomainError):
        ScaledReal(1, math.inf)
    # sign 0 ignores log_mag
    assert ScaledReal(0, 0.0).sign == 0


def test_round_trip():
    # exp(log(x)) is only good to ulp(log|x|), about 3e-14 relative at 1e80
    for x in (3.5, -2.25, 1e-30, -1e80, 0.0):
        assert scaled_to_real_checked(scaled_from_real(x)) == pytest.approx(
            x, rel=1e-13
        )


def test_from_real_rejects_nonfinite():
    with pytest.raises(DomainError):
        scaled_from_real(math.nan)
    with pytest.raises(DomainError):
        scaled_from_real(math.inf)


def test_to_real_overflow_refused():
    big = ScaledReal(1, 800.0)
    with pytest.raises(DomainError):
        scaled_to_real_checked(big)
    small = ScaledReal(-1, -800.0)
    with pytest.raises(DomainError):
        scaled_to_real_checked(small)


def test_exact_cancellation_gives_zero():
    x = scaled_from_real(7.25)
    assert scaled_add(x, scaled_neg(x)) == ZERO
    assert scaled_add(ZERO, ZERO) == ZERO


def test_add_identity_and_zero_divisor():
    x = scaled_from_real(-4.0)
    assert scaled_add(x, ZERO) == x
    assert scaled_add(ZERO, x) == x
    with pytest.raises(DomainError):
        scaled_div(x, ZERO)
    assert scaled_div(ZERO, x) == ZERO


def test_huge_magnitudes_survive_arithmetic():
    # Orders of magnitude far outside doubles: 10^5000 * 10^-4990 = 10^10.
    a = ScaledReal(1, 5000.0 * math.log(10.0))
    b = ScaledReal(1, -4990.0 * math.log(10.0))
    prod = scaled_mul(a, b)
    assert scaled_to_real_checked(prod) == pytest.approx(1e10, rel=1e-12)


@given(signed_reals, signed_reals)
def test_add_matches_floats(x, y):
    got = scaled_add(scaled_from_real(x), scaled_from_real(y))
    want = x + y
    if abs(want) < 1e-4 * (abs(x) + abs(y)):
        return  # cancellation regime, exercised by the exact-cancel test
    assert got.sign == (1 if want > 0 else -1)
    # compare in log space so the check works even where floats overflow
    assert got.log_mag == pytest.approx(math.log(abs(want)), abs=1e-9)


@given(signed_reals, signed_reals)
def test_mul_commutes_and_matches(x, y):
    a, b = scaled_from_real(x), scaled_from_real(y)
    assert scaled_mul(a, b) == scaled_mul(b, a)
    got = scaled_mul(a, b)
    assert got.sign == (1 if (x > 0) == (y > 0) else -1)
    assert got.log_mag == pytest.approx(
        math.log(abs(x)) + math.log(abs(y)), abs=1e-12
    )


@given(signed_reals)
def test_div_inverts_mul(x):
    a = scaled_from_real(x)
    assert scaled_to_real_checked(scaled_div(a, a)) == pytest.approx(1.0)


def test_quadrature_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(truncation_halfwidth=-1.0, point_count=100)
    with pytest.raises(DomainError):
        QuadratureSpec(truncation_halfwidth=1.0, point_count=10)
    spec = QuadratureSpec(truncation_halfwidth=2.0, point_count=65)
    nodes = spec.nodes()
    assert nodes[0] == -2.0 and nodes[-1] == 2.0 and len(nodes) == 65


def test_trapezoid_gaussian():
    spec = QuadratureSpec(truncation_halfwidth=20.0, point_count=4000)
    u = spec.nodes()
    val = trapezoid_line(np.exp(-u * u), spec)
    assert val.real == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert abs(val.imag) < 1e-15


def test_trapezoid_complex_shift():
    # integral of exp(-u^2 + iu) = sqrt(pi) exp(-1/4)
    spec = QuadratureSpec(truncation_halfwidth=20.0, point_count=4000)
    u = spec.nodes()
    val = trapezoid_line(np.exp(-u * u + 1j * u), spec)
    assert val.real == pytest.approx(math.sqrt(math.pi) * math.exp(-0.25), rel=1e-13)
    assert abs(val.imag) < 1e-14


def test_trapezoid_nonfinite_sample_located():
    spec = QuadratureSpec(truncation_halfwidth=1.0, point_count=101)
    vals = np.ones(101)
    vals[50] = np.nan
    with pytest.raises(NumericalConsistencyError, match=r"at u = 0\.0$"):
        trapezoid_line(vals, spec)


def test_one_constant():
    assert scaled_to_real_checked(ONE) == 1.0
