"""Contour extraction engine: coefficients, scalings, and refusal paths."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wigcorr.errors import CancellationError, DomainError, NumericalConsistencyError
from wigcorr.egf_engine import (
    BULK_MAX_N,
    EDGE_MAX_N,
    MP_CONDITION_AT,
    MP_MAX_N,
    ContourJob,
    EgfParams,
    bulk_scaled_full,
    default_points,
    default_radius,
    edge_lognorm,
    edge_points,
    edge_scaled_f,
    edge_scaled_full,
    extract_f,
    rho,
    sigma_alpha,
    _circle_logs,
    _log_egf,
    _recurrence_value,
)
from wigcorr.exact_oracle import (
    EnsembleKind,
    gaussian_profile,
    oracle_f,
)
from wigcorr.kernels import airy_kernel, sine_kernel
from wigcorr.numeric_core import ONE, scaled_to_real_checked
from wigcorr.special_fn import gue_kernel


def test_params_validation():
    with pytest.raises(DomainError):
        EgfParams(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        EgfParams(1.0, math.nan, 0.0, 0.0)


def test_job_validation():
    p = EgfParams(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        ContourJob(p, -1, 0.5)
    with pytest.raises(DomainError):
        ContourJob(p, 3, 1.0)
    # every admitted order has the recurrence behind its contour
    assert MP_MAX_N == EDGE_MAX_N
    job = ContourJob(p, MP_MAX_N, 0.99)
    assert (job.n, job.points) == (MP_MAX_N, default_points(MP_MAX_N))
    with pytest.raises(DomainError, match="coefficient order"):
        ContourJob(p, MP_MAX_N + 1, 0.99)


def test_orders_must_be_integers():
    # a float or bool order used to run as if it were an integer, or to
    # fail with a TypeError deep in the recurrence
    with pytest.raises(DomainError, match="not an integer"):
        edge_scaled_f(1.0, 0.0, 0.0, 1.0, 2.5)
    with pytest.raises(DomainError, match="not an integer"):
        ContourJob.with_defaults(EgfParams(1.0, 0.0, 0.3, -0.7), 2.5)
    with pytest.raises(DomainError, match="not an integer"):
        edge_scaled_full(1.0, 0.0, 0.0, 1.0, True)
    for bad in (64.5, True):
        with pytest.raises(DomainError, match="not an integer"):
            bulk_scaled_full(1.0, 0.0, 0.0, 0.25, -0.25, bad)
    # numpy integers are integers
    assert (edge_scaled_full(1.0, 0.0, 0.0, 1.0, np.int64(64))
            == edge_scaled_full(1.0, 0.0, 0.0, 1.0, 64))
    assert (bulk_scaled_full(1.0, 0.0, 0.0, 0.25, -0.25, np.int64(64))
            == bulk_scaled_full(1.0, 0.0, 0.0, 0.25, -0.25, 64))


def test_default_contour_parameters():
    assert default_radius(1) == 0.5
    assert default_radius(1000) == pytest.approx(0.9)
    assert default_radius(10 ** 6) == pytest.approx(0.99)
    assert default_points(1) == 2048
    assert default_points(1000) == 5120


def test_log_egf_value():
    # mu = nu = 0 leaves only the two principal logs
    p = EgfParams(1.0, 0.0, 0.0, 0.0)
    want = 1.5 * math.log(2.0) - 0.5 * math.log(1.5)
    z = np.array([0.5 + 0j])
    got = complex(_log_egf(p, z, np.log([1.0 - z, 1.0 + z]))[0])
    assert got.real == pytest.approx(want, rel=1e-15)
    assert got.imag == 0.0
    z = np.array([0.5, 0.5j])
    arr = _log_egf(p, z, np.log([1.0 - z, 1.0 + z]))
    assert arr.shape == (2,)
    assert arr[0].real == pytest.approx(want, rel=1e-15)


def _extraction_bits(job):
    try:
        value, diag = extract_f(job)
    except (CancellationError, NumericalConsistencyError) as exc:
        return type(exc).__name__, str(exc)
    return value.sign, value.log_mag.hex(), diag.condition.hex()


def test_circle_log_cache_cannot_change_a_value():
    # 10 circles, more than the cache holds, each shared by several
    # moments and offsets; some jobs take the recurrence (the n = 64000
    # ones off the default circle at about 0.15 s each).
    jobs = [
        ContourJob.with_defaults(EgfParams(alpha, bstar, mu, nu), n, radius=radius)
        for n in (3, 20, 1000, 64000)
        for radius in (None, 0.7, 0.85)
        for alpha, bstar, (mu, nu) in (
            (1.0, 0.0, edge_points(n, 0.0, 1.0)),
            (2.0, 0.5, edge_points(n, -1.0, 0.5)),
            (1.5, -0.25, (0.3, -0.7)),
        )
    ]
    cold = []
    for job in jobs:
        _circle_logs.cache_clear()
        cold.append(_extraction_bits(job))
    _circle_logs.cache_clear()
    warm = [_extraction_bits(job) for job in jobs]
    backward = [_extraction_bits(job) for job in reversed(jobs)][::-1]
    assert warm == cold
    assert backward == cold
    logs = _circle_logs(0.7, 2048)
    with pytest.raises(ValueError):
        logs[0, 0] = 0.0


def test_circles_with_equal_point_counts_keep_their_own_logs():
    # Both circles of each pair stay on the contour (conditions about
    # 87 and 25 at n = 5, 3.4e3 and 110 at n = 20), so a cache keyed by
    # the point count or the order alone would hand one circle the
    # other's logs and move its value.
    p = EgfParams(1.0, 0.25, 0.4, -0.6)
    for n, radii in ((5, (0.5, 0.7)), (20, (0.7, 0.85))):
        jobs = [ContourJob.with_defaults(p, n, radius=r) for r in radii]
        assert jobs[0].points == jobs[1].points
        cold = []
        for job in jobs:
            _circle_logs.cache_clear()
            cold.append(extract_f(job))
        assert [extract_f(job) for job in jobs + jobs] == cold + cold
        (a, da), (b, db) = cold
        assert max(da.condition, db.condition) < MP_CONDITION_AT
        assert a.sign == b.sign
        assert a.log_mag == pytest.approx(b.log_mag, abs=1e-12)


def test_first_coefficients_exact():
    # f_1 = mu nu + alpha
    v, diag = extract_f(ContourJob.with_defaults(EgfParams(1.0, 0.0, 0.5, -1.0), 1))
    assert scaled_to_real_checked(v) == pytest.approx(0.5, rel=1e-12)
    assert diag.condition < 100.0
    # f_2 at the origin matches the permutation oracle
    v2, _ = extract_f(ContourJob.with_defaults(EgfParams(1.0, 0.0, 0.0, 0.0), 2))
    want = oracle_f(
        EnsembleKind.HERMITIAN, gaussian_profile(EnsembleKind.HERMITIAN), 2, 0.0, 0.0
    )
    assert scaled_to_real_checked(v2) == pytest.approx(want, rel=1e-12)


def test_extraction_radius_independence():
    # same coefficient off two different circles, double precision regime
    p = EgfParams(1.0, 0.0, 0.3, -0.2)
    a, _ = extract_f(ContourJob.with_defaults(p, 20, radius=0.5))
    b, _ = extract_f(ContourJob.with_defaults(p, 20))
    assert a.sign == b.sign
    assert a.log_mag == pytest.approx(b.log_mag, abs=1e-10)


def test_ill_conditioned_contour_reruns_exactly():
    # radius 0.5 at n = 50 concentrates ~15 digits of cancellation and
    # the default contour cancels by ~5e7, over the rerun threshold; both
    # contours report their own condition, and both values come from the
    # f_n recurrence, so they must agree
    p = EgfParams(1.0, 0.0, 0.3, -0.2)
    a, da = extract_f(ContourJob.with_defaults(p, 50, radius=0.5))
    b, db = extract_f(ContourJob.with_defaults(p, 50))
    assert da.condition > MP_CONDITION_AT
    assert db.condition > MP_CONDITION_AT
    assert a.sign == b.sign
    assert a.log_mag == pytest.approx(b.log_mag, abs=1e-12)


def _edge_job(alpha, bstar, mu, nu, n, radius=None):
    return ContourJob.with_defaults(
        EgfParams(alpha, bstar, *edge_points(n, mu, nu)), n, radius=radius)


@pytest.mark.parametrize("alpha, n", [(2.0, 20000), (1.0, 8192)])
def test_cancelling_edge_contour_above_4096_takes_the_recurrence(alpha, n):
    # offsets (4, 6) cancel by 3.5e7 at alpha 2, where the contour value
    # returned as it stood was off by 2.2e-6 in log, and by 5.5e6 at
    # alpha 1, where the average keeps an imaginary residue of 4e-8 and
    # was refused
    job = _edge_job(alpha, 0.0, 4.0, 6.0, n)
    value, diag = extract_f(job)
    assert MP_CONDITION_AT < diag.condition < 1e8
    assert value == _recurrence_value(job.params, job.n)[0]


def test_off_default_circle_above_4096_agrees_with_the_default_circle():
    # radius 0.7 at n = 64000 cancels past any double: its contour value
    # was off by 209 in log, with no refusal
    a, da = extract_f(_edge_job(2.0, 0.5, -1.0, 0.5, 64000))
    b, db = extract_f(_edge_job(2.0, 0.5, -1.0, 0.5, 64000, radius=0.7))
    assert da.condition < MP_CONDITION_AT < db.condition
    assert a.sign == b.sign
    assert a.log_mag == pytest.approx(b.log_mag, abs=1e-9)


def test_exactly_zero_coefficient_refused():
    # f_1 vanishes identically at mu nu = -alpha; no precision rescues an
    # exact zero, so the engine must refuse rather than report noise
    with pytest.raises(CancellationError):
        extract_f(ContourJob.with_defaults(EgfParams(1.0, 0.0, 1.0, -1.0), 1))


def _gue_log_f(n, mu, nu):
    # log f_N = log(sqrt(2 pi) N!) + (mu^2+nu^2)/4 + log K_{N+1}(mu, nu)
    kernel = gue_kernel(n + 1, mu, nu)
    log_f = (0.5 * math.log(2.0 * math.pi) + math.lgamma(n + 1)
             + (mu * mu + nu * nu) / 4.0 + kernel.log_mag)
    return kernel.sign, log_f


@pytest.mark.parametrize("mu, nu, n", [
    (0.0, 0.0, 500),
    (0.0, 0.0, 1999),
    (0.3, 0.32, 64),
    (-0.45, -0.41, 128),
    (0.1, 0.13, 256),
])
def test_recurrence_route_matches_gue_kernel(mu, nu, n):
    # these contours cancel past the rerun threshold, so the value comes
    # from the recurrence; it must meet the GUE kernel link at the 1e-8
    # of the acceptance gate
    value, diag = extract_f(ContourJob.with_defaults(EgfParams(1.0, 0.0, mu, nu), n))
    assert diag.condition > MP_CONDITION_AT
    sign, log_f = _gue_log_f(n, mu, nu)
    assert value.sign == sign
    assert abs(value.log_mag - log_f) <= 1e-8


@pytest.mark.parametrize("mu, nu, n", [
    (1.0, -1.0 + 1e-9, 2),
    (1.0, -(1.0 + 1e-12), 1),
])
def test_near_zero_coefficient_refused_or_exact(mu, nu, n):
    # f_n is within 1e-9 of a zero or closer: the engine may refuse, but
    # a value it returns must match a 50-digit Taylor coefficient
    import mpmath as mp

    try:
        value, _ = extract_f(ContourJob.with_defaults(EgfParams(1.0, 0.0, mu, nu), n))
    except CancellationError:
        return
    with mp.workdps(50):
        a, b = mp.mpf(mu), mp.mpf(nu)

        def egf(z):
            return mp.exp(a * b * z / (1 - z * z)
                          - (a * a + b * b) / 2 * z * z / (1 - z * z)
                          - mp.mpf(1.5) * mp.log(1 - z) - mp.log(1 + z) / 2)

        want = float(mp.taylor(egf, 0, n)[n] * mp.factorial(n))
    assert scaled_to_real_checked(value) == pytest.approx(want, rel=1e-10)


def test_recurrence_route_holds_in_the_oscillatory_bulk():
    # deep in the bulk, a double-precision run of the recurrence loses
    # 5e-8 here while its error estimate reads 1e-12. Reference: the
    # Christoffel-Darboux form of the GUE value at 50 digits,
    # f_n = [p_{n+1}(mu) p_n(nu) - p_n(mu) p_{n+1}(nu)] / (mu - nu)
    # with monic Hermite polynomials p_k
    import mpmath as mp

    n, xi = 1500, 1.2
    root = math.sqrt(n)
    mu = root * xi + 0.5 / (root * rho(xi))
    nu = root * xi - 0.5 / (root * rho(xi))
    value, diag = extract_f(ContourJob.with_defaults(EgfParams(1.0, 0.0, mu, nu), n))
    assert diag.condition > MP_CONDITION_AT
    with mp.workdps(50):
        a, b = mp.mpf(mu), mp.mpf(nu)

        def monic(k, x):
            return mp.hermite(k, x / mp.sqrt(2)) / mp.sqrt(2) ** k

        want = (monic(n + 1, a) * monic(n, b) - monic(n, a) * monic(n + 1, b)) / (a - b)
        assert value.sign == (1 if want > 0 else -1)
        assert abs(value.log_mag - float(mp.log(abs(want)))) <= 1e-10


def test_moderately_conditioned_contour_reruns_by_recurrence():
    # at this raw bulk point the contour cancels by about 1e6: under a
    # rerun trigger of 1e7 the double average was returned, off by 1.3e-9
    # in log. Reference: the f_n recurrence in 60-digit mpmath
    import mpmath as mp

    n, xi = 512, 1.8
    root = math.sqrt(n)
    mu = root * xi - 0.5 / (root * rho(xi))
    nu = root * xi + 0.1 / (root * rho(xi))
    value, diag = extract_f(ContourJob.with_defaults(EgfParams(1.0, 0.0, mu, nu), n))
    assert 1e4 < diag.condition < 1e7
    with mp.workdps(60):
        a, b = mp.mpf(mu), mp.mpf(nu)
        # P = ab (1+z^2) - (a^2+b^2) z + 3/2 (1+z-z^2-z^3) - 1/2 (1-z-z^2+z^3)
        poly = [a * b + 1, -(a * a + b * b) + 2, a * b - 1, mp.mpf(-2)]
        c = [mp.mpf(1)]
        for m in range(n):
            total = sum(p * c[m - k] for k, p in enumerate(poly) if m >= k)
            if m >= 1:
                total += 2 * (m - 1) * c[m - 1]
            if m >= 3:
                total -= (m - 3) * c[m - 3]
            c.append(total / (m + 1))
        assert value.sign == (1 if c[n] > 0 else -1)
        want = float(mp.log(abs(c[n])) + mp.loggamma(n + 1))
    assert abs(value.log_mag - want) <= 1e-10


def test_fallback_runs_without_mpmath():
    # mpmath is a test dependency only: the package, fallback included,
    # must import and run with mpmath unimportable
    code = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "import wigcorr, wigcorr.cli\n"
        "from wigcorr.egf_engine import ContourJob, EgfParams, extract_f\n"
        "job = ContourJob.with_defaults(EgfParams(1.0, 0.0, 0.3, -0.2), 50)\n"
        "value, diag = extract_f(job)\n"
        "print(value.sign, repr(value.log_mag), repr(diag.condition))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    job = ContourJob.with_defaults(EgfParams(1.0, 0.0, 0.3, -0.2), 50)
    value, _ = extract_f(job)
    assert float(out[2]) > MP_CONDITION_AT
    assert (int(out[0]), float(out[1])) == (value.sign, value.log_mag)


def test_edge_points_layout():
    mu_n, nu_n = edge_points(100, 1.0, -2.0)
    assert mu_n == pytest.approx(20.0 + 100 ** (-1.0 / 6.0))
    assert nu_n == pytest.approx(20.0 - 2.0 * 100 ** (-1.0 / 6.0))


def test_edge_scaling_constants():
    assert rho(0.0) == pytest.approx(1.0 / math.pi, rel=1e-15)
    with pytest.raises(DomainError):
        rho(2.0)
    assert edge_lognorm(1.0, 1, 0.0, 0.0) == pytest.approx(
        0.5 * math.log(2.0 * math.pi) + 2.0, rel=1e-14
    )


def test_edge_scaled_regression():
    scaled, value, diag = edge_scaled_full(1.0, 0.0, 0.0, 0.0, 512)
    assert scaled == pytest.approx(0.08399377616226888, rel=1e-9)
    assert value.sign == 1
    assert diag.condition < 1e3
    # already within a couple percent of the limiting kernel at n = 512
    assert scaled == pytest.approx(airy_kernel(0.0, 0.0), abs=0.05)


def test_edge_bounds():
    with pytest.raises(DomainError):
        edge_scaled_f(1.0, 0.0, 0.0, 0.0, 0)
    with pytest.raises(DomainError):
        edge_scaled_f(1.0, 0.0, 0.0, 0.0, EDGE_MAX_N + 1)


def test_bulk_scaled_regression():
    got = bulk_scaled_full(1.0, 0.0, 0.0, 0.25, -0.25, 64)[0]
    assert got == pytest.approx(0.6435539215766573, rel=1e-9)
    assert got == pytest.approx(sine_kernel(0.25, -0.25), abs=0.02)


def test_bulk_bounds():
    with pytest.raises(DomainError):
        bulk_scaled_full(3.0, 0.0, 0.0, 0.0, 0.5, 32)
    with pytest.raises(DomainError):
        bulk_scaled_full(1.0, 0.0, 2.5, 0.0, 0.5, 32)
    with pytest.raises(DomainError):
        bulk_scaled_full(1.0, 0.0, 0.0, 0.0, 0.5, BULK_MAX_N + 1)


def test_bulk_condition_stays_modest_in_domain():
    # the condition is the recurrence's last-step cancellation, about 3
    # at this worst validated corner, where a contour average cancelled
    # by about 2e3
    _, _, diag = bulk_scaled_full(1.0, 0.0, 0.0, 0.0, 0.5, 512)
    assert diag.condition < 1e4


def test_bulk_refuses_a_recurrence_error_estimate_above_tolerance(monkeypatch):
    from wigcorr import egf_engine

    monkeypatch.setattr(egf_engine, "_recurrence_f", lambda params, n: (1, 0.0, 2e-15))
    with pytest.raises(CancellationError, match="recurrence error estimate"):
        bulk_scaled_full(1.0, 0.0, 0.0, 0.0, 0.5, 64)


@pytest.mark.parametrize("alpha, xi, n", [(1.0, 0.25, 128), (2.0, 1.0, 256)])
def test_bulk_value_matches_a_40_digit_contour_without_one_of_its_own(alpha, xi, n,
                                                                      monkeypatch):
    # Reference: the trapezoid rule with 16n points on |z| = 1 - 3/n in
    # 40-digit mpmath, within 3e-21 relative of the same with 24n points. For
    # alpha in {1, 2}, (1-z)^(-alpha-1/2) (1+z)^(-1/2) = (1-z)^(-alpha) /
    # sqrt(1-z^2), the principal root since Re(1-z^2) > 0; z^(-n) is
    # r^(-n) times one of 16 phases. Conjugate nodes give conjugate terms.
    # Tolerance: the 3e-12 bound on accepted recurrence values.
    mp = pytest.importorskip("mpmath")
    from wigcorr import egf_engine

    def no_contour(job):
        raise AssertionError("bulk value extracted on a contour")

    monkeypatch.setattr(egf_engine, "extract_f", no_contour)
    mu, nu = 0.25, -0.25
    _, value, _ = bulk_scaled_full(alpha, 0.0, xi, mu, nu, n)
    root = math.sqrt(n)
    with mp.workdps(40):
        a = mp.mpf(root * xi + mu / (root * rho(xi)))
        b = mp.mpf(root * xi + nu / (root * rho(xi)))
        points, radius = 16 * n, 1 - mp.mpf(3) / n
        phases = [mp.expjpi(mp.mpf(-k) / 8) for k in range(16)]

        def term(k):
            z = radius * mp.expjpi(mp.mpf(2 * k) / points)
            w = 1 - z * z
            return (mp.exp((a * b * z - (a * a + b * b) / 2 * z * z) / w)
                    / ((1 - z) ** int(alpha) * mp.sqrt(w)) * phases[k % 16]).real

        total = (term(0) + term(points // 2)
                 + 2 * mp.fsum(term(k) for k in range(1, points // 2)))
        c_n = total / points / radius ** n
        assert value.sign == (1 if c_n > 0 else -1)
        want = float(mp.log(abs(c_n)) + mp.loggamma(n + 1))
    assert abs(value.log_mag - want) <= 3e-12


def test_sigma_alpha_degenerate_point():
    assert sigma_alpha(1.0, 0.0, 1.3, 1.3, 16) == 1.0


@pytest.mark.parametrize("args", [
    (-1.0, 0.0, 1.3, 1.3, 16),
    (1.0, math.nan, 1.3, 1.3, 16),
    (1.0, 0.0, math.inf, math.inf, 16),
    (1.0, 0.0, -math.inf, -math.inf, 16),
    (1.0, 0.0, 1.3, 1.3, 0),
    (1.0, 0.0, 1.3, 1.3, 10 ** 7),
], ids=["alpha", "bstar", "plus-inf", "minus-inf", "n-zero", "n-high"])
def test_sigma_refuses_bad_arguments_even_at_equal_points(args):
    # the mu == nu shortcut must not answer 1.0 for arguments that every
    # other point refuses
    with pytest.raises(DomainError):
        sigma_alpha(*args)
    with pytest.raises(DomainError):
        sigma_alpha(*args, f_cross=ONE)


def test_sigma_alpha_edge_regression():
    mu_e, nu_e = edge_points(1024, 0.0, 1.0)
    got = sigma_alpha(1.0, 0.0, mu_e, nu_e, 1024)
    assert got == pytest.approx(0.9906356172928853, rel=1e-9)
    assert 0.0 < got < 1.0


def test_sigma_alpha_is_a_correlation():
    # Cauchy-Schwarz bound at a handful of separated points
    for mu, nu in ((0.0, 1.0), (-1.0, 2.0)):
        got = sigma_alpha(1.0, 0.0, mu, nu, 32)
        assert -1.0 <= got <= 1.0
