"""Bulk and edge limit kernels, plus the interpolating line-integral family."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wigcorr.errors import DomainError, NumericalConsistencyError
from wigcorr.kernels import (
    ALPHA_MAX,
    ARG_BOX,
    airy_kernel,
    airy_product,
    b_kernel,
    diag_recursion_check,
    i_alpha,
    i_alpha_diagonal,
    operator_step,
    sine_kernel,
    t_kernel,
)
from wigcorr.numeric_core import QuadratureSpec
from wigcorr.special_fn import airy


def test_sine_kernel_values():
    assert sine_kernel(0.3, 0.3) == 1.0
    assert sine_kernel(0.0, 0.5) == pytest.approx(2.0 / math.pi, rel=1e-14)
    assert sine_kernel(0.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert sine_kernel(0.25, -0.25) == pytest.approx(2.0 / math.pi, rel=1e-14)


def test_sine_kernel_taylor_seam():
    below = sine_kernel(0.2, 0.2 - 9.99e-7)
    above = sine_kernel(0.2, 0.2 - 1.001e-6)
    assert abs(below - above) < 1e-12


def test_t_kernel_values():
    assert t_kernel(0.7, 0.7) == pytest.approx(2.0 * math.pi ** 2 / 3.0, rel=1e-14)
    # at integer separation only the cosine term survives
    assert t_kernel(0.0, 1.0) == pytest.approx(2.0, abs=1e-12)
    assert t_kernel(1.0, 0.0) == pytest.approx(2.0, abs=1e-12)


def test_t_kernel_taylor_seam():
    below = t_kernel(0.2, 0.2 - 9.99e-4)
    above = t_kernel(0.2, 0.2 - 1.001e-3)
    assert abs(below - above) < 1e-7


def test_airy_kernel_diagonal_value():
    # Ai'(0)^2 at the origin
    assert airy_kernel(0.0, 0.0) == pytest.approx(0.06698748377966399, rel=1e-13)


def test_airy_kernel_symmetry():
    assert airy_kernel(0.4, -1.1) == pytest.approx(airy_kernel(-1.1, 0.4), rel=1e-14)


def test_airy_kernel_midpoint_seam():
    below = airy_kernel(-1.0, -1.0 - 9.9e-6)
    above = airy_kernel(-1.0, -1.0 - 1.01e-5)
    assert abs(below - above) < 1e-6


def test_airy_kernel_matches_quadrature():
    for mu, nu in ((0.0, 0.0), (0.3, -0.8), (-2.0, 1.5), (4.0, 4.0)):
        assert i_alpha(1.0, mu, nu) == pytest.approx(airy_kernel(mu, nu), abs=1e-12)


def test_b_kernel_matches_quadrature():
    for mu, nu in ((0.3, -0.8), (1.0, -0.5), (-2.0, 1.5)):
        assert i_alpha(2.0, mu, nu) == pytest.approx(b_kernel(mu, nu), abs=1e-12)
    # regression anchor for the closed form itself
    assert b_kernel(1.0, -0.5) == pytest.approx(0.013936292672865325, rel=1e-12)


def test_b_kernel_near_diagonal_branch():
    # just outside the switchover the closed form eats Airy input error
    # amplified by 1/d^3, about 6e-9 here; the quadrature is the referee
    d = 2e-3
    assert b_kernel(0.5, 0.5 - d) == pytest.approx(
        i_alpha(2.0, 0.5, 0.5 - d), abs=1e-7
    )
    seam_below = b_kernel(0.5, 0.5 - 9.9e-4)
    seam_above = b_kernel(0.5, 0.5 - 1.01e-3)
    assert abs(seam_below - seam_above) < 1e-6


def test_airy_product_is_pointwise_product():
    for x, y in ((0.0, 0.0), (1.2, -0.7), (-3.0, 2.0)):
        want = airy(x).ai * airy(y).ai
        assert airy_product(x, y) == pytest.approx(want, abs=1e-12)


def test_i_alpha_symmetry_and_domain():
    assert i_alpha(1.7, 0.6, -0.9) == pytest.approx(
        i_alpha(1.7, -0.9, 0.6), rel=1e-12
    )
    with pytest.raises(DomainError):
        i_alpha(-0.1, 0.0, 0.0)
    with pytest.raises(DomainError):
        i_alpha(ALPHA_MAX + 1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        i_alpha(1.0, ARG_BOX + 1.0, 0.0)


def test_i_alpha_diagonal_matches_scalar():
    xs = np.array([-3.0, -0.5, 0.0, 1.25, 6.0])
    want = np.array([i_alpha(1.0, x, x) for x in xs])
    assert np.array_equal(i_alpha_diagonal(1.0, xs), want)
    with pytest.raises(DomainError, match=r"\(30\.5, 30\.5\)"):
        i_alpha_diagonal(1.0, np.array([0.0, ARG_BOX + 0.5]))


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
def test_i_alpha_diagonal_matches_scalar_across_orders(alpha):
    # both routes evaluate one rule in one helper, so the bits agree
    xs = np.linspace(-10.0, 10.0, 81)
    want = np.array([i_alpha(alpha, x, x) for x in xs])
    assert np.array_equal(i_alpha_diagonal(alpha, xs), want)


def test_i_alpha_diagonal_refuses_imaginary_residue():
    # at x = -30 the quadrature leaves an imaginary part far above
    # IMAG_TOL on both routes; the diagonal names the first such point
    with pytest.raises(NumericalConsistencyError):
        i_alpha(0.0, -30.0, -30.0)
    with pytest.raises(NumericalConsistencyError, match=r"^i_alpha\(0\.0, -30\.0, -30\.0\) "):
        i_alpha_diagonal(0.0, np.array([0.0, -30.0, -29.5]))


@pytest.mark.parametrize("call", [
    lambda: sine_kernel(math.nan, 0.0),
    lambda: t_kernel(0.0, math.nan),
    lambda: airy_kernel(math.nan, 0.0),
    lambda: b_kernel(0.0, math.nan),
    lambda: i_alpha(1.0, math.nan, 0.0),
    lambda: i_alpha_diagonal(1.0, np.array([0.0, math.nan])),
], ids=["sine_kernel", "t_kernel", "airy_kernel", "b_kernel", "i_alpha",
        "i_alpha_diagonal"])
def test_nan_arguments_are_domain_errors(call):
    with pytest.raises(DomainError):
        call()


def test_i_alpha_diagonal_positive():
    xs = np.linspace(-6.0, 6.0, 25)
    for alpha in (0.0, 1.0, 2.0, 3.0):
        assert (i_alpha_diagonal(alpha, xs) > 0.0).all()


def test_operator_step_descends_the_family():
    # one application of the mixed-derivative operator maps the Airy
    # product onto the alpha = 1 kernel
    got = operator_step(airy_product, 0.5, -0.5, 1e-4)
    assert got == pytest.approx(airy_kernel(0.5, -0.5), abs=1e-8)
    got2 = operator_step(airy_kernel, 1.0, 0.2, 1e-4)
    assert got2 == pytest.approx(b_kernel(1.0, 0.2), abs=1e-6)


def test_operator_step_exact_on_quadratics():
    # (1/(x-y))(d_y - d_x) on x^2 y gives (x^2 - 2xy)/(x - y); the
    # symmetric stencil is exact on quadratics.
    got = operator_step(lambda x, y: x * x * y, 3.0, 1.0, 1e-4)
    assert got == pytest.approx(1.5, abs=1e-9)


def test_operator_step_bulk_link():
    # the same operator carries the sine kernel onto the t kernel
    got = operator_step(sine_kernel, 0.9, 0.1, 1e-4)
    assert got == pytest.approx(t_kernel(0.9, 0.1), rel=1e-6)


def test_operator_step_guards():
    with pytest.raises(DomainError):
        operator_step(airy_product, 0.5, -0.5, 1e-7)
    with pytest.raises(DomainError):
        operator_step(airy_product, 0.5, 0.5005, 1e-4)


def test_diag_recursion_holds():
    lhs, rhs = diag_recursion_check(1.0, 0.5)
    assert lhs == pytest.approx(rhs, abs=1e-8)
    lhs, rhs = diag_recursion_check(2.0, -2.0)
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_diag_recursion_near_box_edge():
    # cutoff clamps to the argument box; both sides are ~1e-19 out here
    lhs, rhs = diag_recursion_check(1.5, 9.0)
    assert lhs == pytest.approx(rhs, abs=1e-20)
    assert lhs > 0.0


@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0, 3.0])
def test_diag_recursion_is_tight(alpha):
    # the Gauss-Legendre rhs meets the lhs to near rounding, across the
    # oscillating left side, the peak and the decaying right side
    for x in (-10.0, -6.0, -2.0, 0.5, 3.0, 9.0):
        lhs, rhs = diag_recursion_check(alpha, x)
        assert abs(lhs - rhs) <= 1e-12, (x, lhs, rhs)


def test_diag_recursion_guards():
    with pytest.raises(DomainError):
        diag_recursion_check(0.5, 0.0)
    with pytest.raises(DomainError):
        diag_recursion_check(1.0, 11.0)


def test_custom_quadrature_propagates():
    coarse = QuadratureSpec(truncation_halfwidth=20.0, point_count=2000)
    assert i_alpha(1.0, 0.0, 0.0, coarse) == pytest.approx(
        airy_kernel(0.0, 0.0), abs=1e-10
    )
