"""Cross-module invariant suite behind the selftest subcommand.

Each group re-derives a mathematical identity two independent ways and
compares. A fresh checkout passing every group means the three
computational routes (contour extraction, exact oracle, Monte Carlo)
and the limit kernels are all consistent with one another.

fast mode skips every row with n >= 4096 and shrinks the Monte Carlo
sample count; it is meant to finish in well under half a minute.
"""

from __future__ import annotations

import math
import time
from typing import Callable, List

import numpy as np

from . import egf_engine, exact_oracle, kernels, special_fn, wigner_mc
from .egf_engine import ContourJob, EgfParams
from .exact_oracle import EnsembleKind
from .numeric_core import (
    QuadratureSpec,
    central_diff,
    scaled_add,
    scaled_from_real,
    scaled_mul,
    scaled_to_real_checked,
)

ORACLE_GRID = (-0.9, 0.2, 0.8)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def check_scaled_arithmetic(fast: bool) -> List[str]:
    fails = []
    for x in (3.5, -0.02, 1234.5):
        for y in (2.25, -3.5, 0.875):
            want = x + y
            got = scaled_to_real_checked(
                scaled_add(scaled_from_real(x), scaled_from_real(y))
            )
            if want == 0.0:
                ok = got == 0.0
            else:
                ok = _rel(got, want) < 1e-12
            if not ok:
                fails.append(f"add({x}, {y}) = {got}, want {want}")
            wantm = x * y
            gotm = scaled_to_real_checked(
                scaled_mul(scaled_from_real(x), scaled_from_real(y))
            )
            if _rel(gotm, wantm) > 1e-12:
                fails.append(f"mul({x}, {y}) = {gotm}, want {wantm}")
    big = scaled_mul(scaled_from_real(1e300), scaled_from_real(1e300))
    if big.sign != 1 or _rel(big.log_mag, 600 * math.log(10)) > 1e-12:
        fails.append("1e300 * 1e300 mishandled in log space")
    return fails


def check_airy_routes(fast: bool) -> List[str]:
    fails = []
    for x in np.linspace(-10.0, 10.0, 41):
        lib = special_fn.airy(float(x))
        contour = special_fn.airy_contour(float(x))
        if abs(lib.ai - contour.ai) > 1e-10 or abs(lib.ai_prime - contour.ai_prime) > 1e-10:
            fails.append(f"airy routes disagree at x = {x:.2f}")
    for x in np.linspace(-8.0, 8.0, 17):
        second = central_diff(lambda t: special_fn.airy(t).ai_prime, float(x), 1e-4)
        if abs(second - x * special_fn.airy(float(x)).ai) > 1e-6:
            fails.append(f"Airy ODE residual too large at x = {x:.2f}")
    return fails


def check_kernel_identities(fast: bool) -> List[str]:
    fails = []
    grid = np.linspace(-3.0, 3.0, 7)
    for kernel in (kernels.sine_kernel, kernels.t_kernel,
                   kernels.airy_kernel, kernels.b_kernel):
        for mu in grid:
            for nu in grid:
                if abs(kernel(float(mu), float(nu)) - kernel(float(nu), float(mu))) > 1e-10:
                    fails.append(f"{kernel.__name__} asymmetric at ({mu}, {nu})")
    for x in (-2.0, 0.0, 1.5):
        off = kernels.airy_kernel(x + 5e-5, x - 5e-5)
        if abs(off - kernels.airy_kernel(x, x)) > 1e-6:
            fails.append(f"airy_kernel diagonal branch discontinuous near {x}")
        offb = kernels.b_kernel(x + 5e-5, x - 5e-5)
        if abs(offb - kernels.i_alpha(2.0, x, x)) > 1e-6:
            fails.append(f"b_kernel diagonal branch discontinuous near {x}")
    for (mu, nu) in ((0.3, -0.2), (1.0, 0.1), (-2.0, 1.0)):
        if abs(kernels.i_alpha(1.0, mu, nu) - kernels.airy_kernel(mu, nu)) > 1e-10:
            fails.append(f"order-1 quadrature misses airy_kernel at ({mu}, {nu})")
        if abs(kernels.i_alpha(2.0, mu, nu) - kernels.b_kernel(mu, nu)) > 1e-9:
            fails.append(f"order-2 quadrature misses b_kernel at ({mu}, {nu})")
    wide = QuadratureSpec(truncation_halfwidth=28.0, point_count=8000)
    for (mu, nu) in ((0.0, 0.0), (0.5, -1.5)):
        base = kernels.i_alpha(1.0, mu, nu)
        refined = kernels.i_alpha(1.0, mu, nu, wide)
        if abs(base - refined) > 1e-11:
            fails.append(f"quadrature not converged at ({mu}, {nu})")
    return fails


def check_operator_chain(fast: bool) -> List[str]:
    fails = []
    pts = ((0.8, -0.4), (1.5, 0.3), (-1.0, 0.5))
    h = 1e-4
    for (x, y) in pts:
        once = kernels.operator_step(kernels.airy_product, x, y, h)
        if abs(once - kernels.i_alpha(1.0, x, y)) > 1e-6:
            fails.append(f"first operator application off at ({x}, {y})")
        twice = kernels.operator_step(
            lambda a, b: kernels.i_alpha(1.0, a, b), x, y, h
        )
        if abs(twice - kernels.i_alpha(2.0, x, y)) > 1e-6:
            fails.append(f"second operator application off at ({x}, {y})")
    if abs(kernels.operator_step(kernels.sine_kernel, 0.4, -0.3, h)
           - kernels.t_kernel(0.4, -0.3)) > 1e-6:
        fails.append("bulk operator identity broken at (0.4, -0.3)")
    return fails


def check_positivity_recursion(fast: bool) -> List[str]:
    fails = []
    xs = np.linspace(-6.0, 6.0, 13)
    for alpha in (0.0, 1.0, 2.0, 3.0):
        vals = kernels.i_alpha_diagonal(alpha, xs)
        if not (vals > 0).all():
            fails.append(f"diagonal not positive at order {alpha}")
    for alpha, x, tol in ((1.0, 0.0, 1e-8), (2.0, -2.0, 1e-7)):
        lhs, rhs = kernels.diag_recursion_check(alpha, x)
        if abs(lhs - rhs) > tol:
            fails.append(
                f"recursion mismatch {abs(lhs - rhs):.2e} at order {alpha}, x = {x}"
            )
    lhs, rhs = kernels.diag_recursion_check(1.0, 8.0)
    if abs(lhs) > 1e-12 or abs(rhs) > 1e-12:
        fails.append("deep-decay recursion values not tiny at x = 8")
    return fails


def check_oracle_egf(fast: bool) -> List[str]:
    fails = []
    profiles = {
        EnsembleKind.HERMITIAN: (
            exact_oracle.gaussian_profile(EnsembleKind.HERMITIAN),
            exact_oracle.rademacher_profile(EnsembleKind.HERMITIAN),
        ),
        EnsembleKind.REAL_SYMMETRIC: (
            exact_oracle.gaussian_profile(EnsembleKind.REAL_SYMMETRIC),
            exact_oracle.rademacher_profile(EnsembleKind.REAL_SYMMETRIC),
        ),
    }
    for kind, kind_profiles in profiles.items():
        alpha = exact_oracle.ensemble_alpha(kind)
        for profile in kind_profiles:
            bstar = exact_oracle.bstar_for(kind, profile)
            for n in range(1, 6):
                for mu in ORACLE_GRID:
                    for nu in ORACLE_GRID:
                        want = exact_oracle.oracle_f(kind, profile, n, mu, nu)
                        job = ContourJob.with_defaults(
                            EgfParams(alpha, bstar, mu, nu), n
                        )
                        value, _ = egf_engine.extract_f(job)
                        got = scaled_to_real_checked(value)
                        if _rel(got, want) > 1e-10:
                            fails.append(
                                f"routes disagree: {kind.value} n={n} ({mu}, {nu})"
                            )
    base = exact_oracle.MomentProfile(0.0, 0.5, 0.0, 0.75)
    ref = exact_oracle.oracle_f(EnsembleKind.HERMITIAN, base, 4, 0.7, -0.3)
    for m3 in (-1.0, 1.0):
        skewed = exact_oracle.MomentProfile(0.0, 0.5, m3, 0.75)
        got = exact_oracle.oracle_f(EnsembleKind.HERMITIAN, skewed, 4, 0.7, -0.3)
        if _rel(got, ref) > 1e-12:
            fails.append(f"third moment m3 = {m3} leaked into the oracle")
    return fails


def check_gue_link(fast: bool) -> List[str]:
    fails = []
    for (mu, nu) in ((0.0, 0.0), (0.3, -0.7), (1.0, 1.0)):
        for n in (1, 10, 40):
            kernel = special_fn.gue_kernel(n + 1, mu, nu)
            link_log = (0.5 * math.log(2.0 * math.pi) + math.lgamma(n + 1)
                        + (mu * mu + nu * nu) / 4.0 + kernel.log_mag)
            job = ContourJob.with_defaults(EgfParams(1.0, 0.0, mu, nu), n)
            value, _ = egf_engine.extract_f(job)
            ratio = kernel.sign * value.sign * math.exp(link_log - value.log_mag)
            if abs(ratio - 1.0) > 1e-8:
                fails.append(f"kernel link off by {abs(ratio - 1):.2e} at n = {n}")
    return fails


def check_radius_independence(fast: bool) -> List[str]:
    fails = []
    for n in (5, 20, 50):
        params = EgfParams(1.0, 0.25, 0.4, -0.6)
        v_half, _ = egf_engine.extract_f(
            ContourJob(params=params, n=n, radius=0.5,
                       points=egf_engine.default_points(n))
        )
        v_default, _ = egf_engine.extract_f(ContourJob.with_defaults(params, n))
        ratio = v_half.sign * v_default.sign * math.exp(
            v_half.log_mag - v_default.log_mag
        )
        if abs(ratio - 1.0) > 1e-9:
            fails.append(f"radius dependence {abs(ratio - 1):.2e} at n = {n}")
    return fails


def _edge_errors(alpha: float, mu: float, nu: float, ns) -> List[float]:
    limit = kernels.i_alpha(alpha, mu, nu)
    return [abs(egf_engine.edge_scaled_f(alpha, 0.0, mu, nu, n) - limit) for n in ns]


def check_edge_trend(fast: bool) -> List[str]:
    fails = []
    ns = [125, 1000] if fast else [125, 1000, 8000]
    for alpha in (1.0, 2.0):
        for (mu, nu) in ((0.0, 0.0), (0.0, 1.0)):
            errs = _edge_errors(alpha, mu, nu, ns)
            if not all(errs[i] > errs[i + 1] for i in range(len(errs) - 1)):
                fails.append(f"errors not decreasing: order {alpha} at ({mu}, {nu})")
            if not fast:
                ratio = errs[1] / errs[2]
                if not (1.4 <= ratio <= 3.0):
                    fails.append(
                        f"error ratio {ratio:.2f} outside [1.4, 3.0]: "
                        f"order {alpha} at ({mu}, {nu})"
                    )
    return fails


def check_sigma_trend(fast: bool) -> List[str]:
    fails = []
    mu, nu = 0.0, 1.0
    limit = kernels.airy_kernel(mu, nu) / math.sqrt(
        kernels.airy_kernel(mu, mu) * kernels.airy_kernel(nu, nu)
    )
    ns = [1024] if fast else [1024, 4096]
    errs = []
    for n in ns:
        mu_n, nu_n = egf_engine.edge_points(n, mu, nu)
        errs.append(abs(egf_engine.sigma_alpha(1.0, 0.0, mu_n, nu_n, n) - limit))
    if errs[-1] > 0.1:
        fails.append(f"correlation error {errs[-1]:.3f} above 0.1")
    if len(errs) == 2 and errs[0] <= errs[1]:
        fails.append("correlation error did not improve with n")
    return fails


def check_bulk(fast: bool) -> List[str]:
    fails = []
    cases = (
        (1.0, 0.0, 0.0, kernels.sine_kernel(0.0, 0.0)),
        (1.0, 0.0, 0.5, kernels.sine_kernel(0.0, 0.5)),
        (2.0, 0.0, 1.0, kernels.t_kernel(0.0, 1.0)),
    )
    for alpha, mu, nu, limit in cases:
        errs = []
        for n in (64, 128, 256):
            scaled, _, diag = egf_engine.bulk_scaled_full(alpha, 0.0, 0.0, mu, nu, n)
            if diag.condition >= egf_engine.CONDITION_LIMIT:
                fails.append(f"bulk condition blew up at n = {n}")
            errs.append(abs(scaled - limit))
        if not (errs[0] > errs[1] > errs[2]):
            fails.append(f"bulk errors not decreasing for order {alpha} ({mu}, {nu})")
    return fails


def check_g_negligibility(fast: bool) -> List[str]:
    if fast:
        return []
    n = 4096
    mu_n, nu_n = egf_engine.edge_points(n, 0.0, 0.0)
    g_mu = special_fn.char_poly_mean(n, mu_n)
    g_nu = special_fn.char_poly_mean(n, nu_n)
    lognorm = egf_engine.edge_lognorm(1.0, n, 0.0, 0.0)
    value = abs(g_mu.sign * g_nu.sign) * math.exp(
        g_mu.log_mag + g_nu.log_mag - lognorm
    )
    if value >= 0.05:
        return [f"scaled mean-product term {value:.4f} not negligible"]
    return []


def check_mc(fast: bool) -> List[str]:
    fails = []
    samples = 2000 if fast else 100000
    for kind in (EnsembleKind.HERMITIAN, EnsembleKind.REAL_SYMMETRIC):
        cfg = wigner_mc.MCConfig(
            ensemble=kind,
            dist=wigner_mc.dist_for("gaussian", kind),
            n=4,
            samples=samples,
            seed=7,
            points=((0.0, 0.0), (0.5, -0.5), (1.0, 0.3)),
        )
        profile = exact_oracle.gaussian_profile(kind)
        estimates = wigner_mc.estimate_f(cfg)
        for (mu, nu), est in zip(cfg.points, estimates):
            want = exact_oracle.oracle_f(kind, profile, 4, mu, nu)
            got = scaled_to_real_checked(est.mean)
            err = scaled_to_real_checked(est.stderr)
            if abs(got - want) > 4.0 * err:
                fails.append(
                    f"{kind.value} estimate at ({mu}, {nu}) outside 4 stderr"
                )
        repeat = wigner_mc.estimate_f(cfg)
        if repeat != estimates:
            fails.append(f"{kind.value} estimates not reproducible for fixed seed")
    return fails


GROUPS: List[tuple] = [
    ("scaled-arithmetic", check_scaled_arithmetic),
    ("airy-routes", check_airy_routes),
    ("kernel-identities", check_kernel_identities),
    ("operator-chain", check_operator_chain),
    ("positivity-recursion", check_positivity_recursion),
    ("oracle-vs-extraction", check_oracle_egf),
    ("gue-kernel-link", check_gue_link),
    ("radius-independence", check_radius_independence),
    ("edge-trend", check_edge_trend),
    ("correlation-trend", check_sigma_trend),
    ("bulk-scaling", check_bulk),
    ("mean-term-negligible", check_g_negligibility),
    ("monte-carlo", check_mc),
]


def run(fast: bool = False, emit: Callable[[str], None] = print) -> int:
    """Run every group; report one line per group; 0 iff all passed."""
    all_ok = True
    total = time.perf_counter()
    for name, check in GROUPS:
        start = time.perf_counter()
        try:
            failures = check(fast)
        except Exception as exc:  # a crash counts as a failure, not an abort
            failures = [f"raised {type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - start
        if failures:
            all_ok = False
            emit(f"FAIL {name} ({elapsed:.1f}s): {failures[0]}")
            for extra in failures[1:]:
                emit(f"     {extra}")
        else:
            emit(f"PASS {name} ({elapsed:.1f}s)")
    emit(f"total {time.perf_counter() - total:.1f}s")
    return 0 if all_ok else 2
