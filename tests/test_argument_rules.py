"""The two argument rules of `wigcorr.errors`, at every entry point that
takes an order or a real argument.

An order is an integer (numpy integers count, bool and whole-number
floats do not) in the entry's range; a real argument is finite. Either
violation raises DomainError, with no numpy warning on the way.
"""

import math
import warnings

import numpy as np
import pytest

from wigcorr.egf_engine import (
    ContourJob,
    EgfParams,
    bulk_scaled_full,
    default_points,
    default_radius,
    edge_lognorm,
    edge_points,
    edge_scaled_full,
    sigma_alpha,
)
from wigcorr.errors import DomainError
from wigcorr.exact_oracle import EnsembleKind, MomentProfile, gaussian_profile, oracle_f
from wigcorr.kernels import sine_kernel, t_kernel
from wigcorr.numeric_core import ONE, QuadratureSpec, scaled_from_real
from wigcorr.special_fn import airy, char_poly_mean, gue_kernel, hermite_phys
from wigcorr.wigner_mc import MC_MIN_SAMPLES, MCConfig, dist_for, estimate_f

HERM = EnsembleKind.HERMITIAN
PROFILE = gaussian_profile(HERM)
PARAMS = EgfParams(1.0, 0.0, 0.3, -0.7)


def _mc(n=4, samples=200, seed=3, points=((0.3, -0.7),)):
    return MCConfig(HERM, dist_for("gaussian", HERM), n, samples, seed, points)


# name -> (call with the order, lowest order admitted, an order admitted).
# Each MCConfig entry runs its estimate, so an accepted order is compared
# by its Monte Carlo value, not only by the config.
ORDER_ENTRIES = {
    "ContourJob": (lambda n: ContourJob(PARAMS, n, 0.5), 1, 5),
    "default_radius": (default_radius, 1, 8),
    "default_points": (default_points, 1, 8),
    "edge_points": (lambda n: edge_points(n, 0.0, 1.0), 1, 8),
    "edge_lognorm": (lambda n: edge_lognorm(1.0, n, 0.0, 1.0), 1, 8),
    "edge_scaled_full": (lambda n: edge_scaled_full(1.0, 0.0, 0.0, 1.0, n), 1, 8),
    "bulk_scaled_full": (lambda n: bulk_scaled_full(1.0, 0.0, 0.0, 0.25, -0.25, n), 1, 8),
    # equal points: the coefficient is 1 by definition, after the checks
    "sigma_alpha": (lambda n: sigma_alpha(1.0, 0.0, 0.3, 0.3, n), 1, 8),
    "sigma_f_cross": (lambda n: sigma_alpha(1.0, 0.0, 0.3, 0.3, n, f_cross=ONE), 1, 8),
    "hermite_phys": (lambda n: hermite_phys(n, 0.3), 0, 5),
    "char_poly_mean": (lambda n: char_poly_mean(n, 0.3), 0, 5),
    "gue_kernel": (lambda n: gue_kernel(n, 0.3, -0.7), 1, 5),
    "oracle_f": (lambda n: oracle_f(HERM, PROFILE, n, 0.3, -0.7), 1, 3),
    "MCConfig.n": (lambda n: estimate_f(_mc(n=n)), 1, 4),
    "MCConfig.samples": (lambda s: estimate_f(_mc(samples=s)), MC_MIN_SAMPLES, 200),
    "MCConfig.seed": (lambda s: estimate_f(_mc(seed=s)), 0, 3),
    "QuadratureSpec.point_count": (lambda m: QuadratureSpec(20.0, m), 64, 100),
}

# name -> call with one real argument in place.
REAL_ENTRIES = {
    "EgfParams.alpha": lambda x: EgfParams(x, 0.0, 0.3, -0.7),
    "EgfParams.mu": lambda x: EgfParams(1.0, 0.0, x, -0.7),
    "edge_points.mu": lambda x: edge_points(8, x, 1.0),
    "edge_points.nu": lambda x: edge_points(8, 0.0, x),
    "edge_lognorm.alpha": lambda x: edge_lognorm(x, 8, 0.0, 1.0),
    "edge_lognorm.mu": lambda x: edge_lognorm(1.0, 8, x, 1.0),
    "edge_lognorm.nu": lambda x: edge_lognorm(1.0, 8, 0.0, x),
    "edge_scaled_full.mu": lambda x: edge_scaled_full(1.0, 0.0, x, 1.0, 8),
    "bulk_scaled_full.nu": lambda x: bulk_scaled_full(1.0, 0.0, 0.0, 0.25, x, 8),
    "sigma_alpha.nu_pt": lambda x: sigma_alpha(1.0, 0.0, 0.3, x, 8),
    "sine_kernel": lambda x: sine_kernel(x, 0.0),
    "t_kernel": lambda x: t_kernel(0.0, x),
    "airy": lambda x: airy(x),
    "scaled_from_real": lambda x: scaled_from_real(x),
    "hermite_phys": lambda x: hermite_phys(3, x),
    "char_poly_mean": lambda x: char_poly_mean(3, x),
    "gue_kernel": lambda x: gue_kernel(3, 0.3, x),
    "oracle_f.mu": lambda x: oracle_f(HERM, PROFILE, 2, x, 0.3),
    "oracle_f.nu": lambda x: oracle_f(HERM, PROFILE, 2, 0.3, x),
    "MomentProfile.m2": lambda x: MomentProfile(x, 0.0, 0.75),
    "MomentProfile.m3": lambda x: MomentProfile(0.5, x, 0.75),
    "MomentProfile.m4": lambda x: MomentProfile(0.5, 0.0, x),
    "MCConfig.points": lambda x: _mc(points=((0.3, x),)),
    "QuadratureSpec.truncation_halfwidth": lambda x: QuadratureSpec(x, 100),
}


def _refused(call, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            call(value)


@pytest.mark.parametrize("name", ORDER_ENTRIES)
def test_order_entries_refuse_non_integers_and_low_minus_one(name):
    call, low, _ = ORDER_ENTRIES[name]
    for bad in (2.5, 2.0, True, low - 1, low + 0.5, float(low)):
        _refused(call, bad)


@pytest.mark.parametrize("name", ORDER_ENTRIES)
def test_order_entries_take_numpy_integers_as_integers(name):
    call, _, good = ORDER_ENTRIES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert call(np.int64(good)) == call(good)


@pytest.mark.parametrize("name", REAL_ENTRIES)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_real_entries_refuse_non_finite_values(name, bad):
    _refused(REAL_ENTRIES[name], bad)
