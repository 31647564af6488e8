"""Cross-route invariant checks behind the selftest subcommand and the
acceptance tests. Each check re-derives an identity two independent ways
and returns one Margin per bound: the measured value against its
tolerance, and the elapsed time against the budget a caller passes as
`budget=`. GROUPS and tests/test_acceptance.py call the same checks with
their own points, sizes, seeds and tolerances. fast mode shrinks only
the Monte Carlo sample count, the one group that takes seconds.
"""

import functools
import math
import operator
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import gammaln

from . import egf_engine, exact_oracle, kernels, special_fn, wigner_mc
from .egf_engine import ContourJob, EgfParams
from .exact_oracle import EnsembleKind, MomentProfile
from .numeric_core import (QuadratureSpec, scaled_add, scaled_from_real, scaled_mul,
                           scaled_to_real_checked)

Points = Sequence[Tuple[float, float]]

_OPS = {"<=": operator.le, "<": operator.lt, ">": operator.gt,
        "in": lambda value, bounds: bounds[0] <= value <= bounds[1]}


@dataclass(frozen=True)
class Margin:
    """One bound: `measured op tolerance` (op "in" takes a (low, high)
    tolerance), and `elapsed <= budget` if a budget is set."""

    name: str
    measured: float
    tolerance: float
    elapsed: float
    budget: Optional[float] = None
    op: str = "<="

    @property
    def ok(self) -> bool:
        return (_OPS[self.op](self.measured, self.tolerance)
                and (self.budget is None or self.elapsed <= self.budget))

    def __str__(self) -> str:
        tol = self.tolerance
        bound = f"[{tol[0]:g}, {tol[1]:g}]" if self.op == "in" else f"{tol:g}"
        text = f"{self.name} {self.measured:.4g} {self.op} {bound}"
        if self.budget is not None:
            text += f", time {self.elapsed:.1f}s <= {self.budget:g}s"
        return text


def report_line(name: str, elapsed: float, margins: Sequence[Margin]) -> str:
    """`PASS name (1.2s): bound; bound`, or FAIL if any bound fails."""
    verdict = "PASS" if all(m.ok for m in margins) else "FAIL"
    body = "; ".join(map(str, margins))
    return f"{verdict} {name} ({elapsed:.1f}s): {body}"


def _check(fn):
    """Time fn; its (name, measured, op, tol) bounds become Margins."""

    @functools.wraps(fn)
    def timed(*args, budget: Optional[float] = None, **kwargs) -> List[Margin]:
        start = time.perf_counter()
        bounds = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        return [Margin(name, measured, tol, elapsed,
                       budget if i == len(bounds) - 1 else None, op)
                for i, (name, measured, op, tol) in enumerate(bounds)]
    return timed


def _bound(name: str, measure: Callable[[], float], op: str, tol: float) -> List[Margin]:
    """One timed bound on measure()."""
    return _check(lambda: [(name, measure(), op, tol)])()


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _trend(tag: str, sizes: Sequence[int], errs: Sequence[float], op: str):
    """Bounds holding each error against the one at the size before."""
    return [(f"{tag} err {n} vs {m}", err, op, prev)
            for m, n, prev, err in zip(sizes, sizes[1:], errs, errs[1:])]


# -- identities shared with tests/test_acceptance.py -------------------------

@_check
def oracle_vs_extraction(grid: Sequence[float], sizes: Sequence[int], tol: float):
    """Oracle vs extraction, Gaussian and Rademacher: worst |delta| / |exact|."""
    worst = 0.0
    for kind in EnsembleKind:
        alpha = exact_oracle.ensemble_alpha(kind)
        m2 = exact_oracle.ensemble_variance(kind)
        for profile in (exact_oracle.law_moments("gaussian", m2),
                        exact_oracle.law_moments("rademacher", m2)):
            bstar = exact_oracle.bstar_for(kind, profile)
            for n in sizes:
                for mu in grid:
                    for nu in grid:
                        exact = exact_oracle.oracle_f(kind, profile, n, mu, nu)
                        job = ContourJob.with_defaults(EgfParams(alpha, bstar, mu, nu), n)
                        got = scaled_to_real_checked(egf_engine.extract_f(job)[0])
                        worst = max(worst, abs(got - exact) / abs(exact))
    return [("worst rel", worst, "<=", tol)]


@_check
def third_moment_invariance(cases, sizes: Sequence[int], points: Points, tol: float):
    """Per (ensemble, m2, m4): worst |f(m3=+-1) - f(0)| / max(1, |f(0)|)."""
    worst = 0.0
    for kind, m2, m4 in cases:
        for n in sizes:
            for mu, nu in points:
                ref = exact_oracle.oracle_f(kind, MomentProfile(m2, 0.0, m4), n, mu, nu)
                for m3 in (-1.0, 1.0):
                    got = exact_oracle.oracle_f(
                        kind, MomentProfile(m2, m3, m4), n, mu, nu)
                    worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    return [("third-moment dev", worst, "<=", tol)]


@_check
def gue_kernel_link(points: Points, sizes: Sequence[int], tol: float):
    """log f_N = log(sqrt(2 pi) N!) + (mu^2+nu^2)/4 + log K_{N+1}(mu, nu)."""
    worst, mismatches = 0.0, 0
    for mu, nu in points:
        for n in sizes:
            got, _ = egf_engine.extract_f(
                ContourJob.with_defaults(EgfParams(1.0, 0.0, mu, nu), n))
            kernel = special_fn.gue_kernel(n + 1, mu, nu)
            mismatches += got.sign != kernel.sign
            want_log = (0.5 * math.log(2.0 * math.pi) + float(gammaln(n + 1))
                        + (mu * mu + nu * nu) / 4.0 + kernel.log_mag)
            worst = max(worst, abs(got.log_mag - want_log))
    return [("worst log dev", worst, "<=", tol), ("sign mismatches", mismatches, "<=", 0)]


@_check
def radius_independence(params: EgfParams, radii, tol: float):
    """f_n extracted on both circles of each (n, r1, r2) agree in log;
    every circle stays on the contour, so no value is the recurrence's."""
    worst, mismatches, cond = 0.0, 0, 0.0
    for n, r1, r2 in radii:
        a, da = egf_engine.extract_f(ContourJob.with_defaults(params, n, radius=r1))
        b, db = egf_engine.extract_f(ContourJob.with_defaults(params, n, radius=r2))
        mismatches += a.sign != b.sign
        worst = max(worst, abs(a.log_mag - b.log_mag))
        cond = max(cond, da.condition, db.condition)
    return [("worst log dev", worst, "<=", tol), ("sign mismatches", mismatches, "<=", 0),
            ("worst condition", cond, "<=", egf_engine.MP_CONDITION_AT)]


@_check
def closed_forms(points: Points, tol: float, orders: Sequence[float] = (1.0, 2.0)):
    """Line quadrature i_alpha against the closed-form kernels."""
    worst = 0.0
    for x, y in points:
        for alpha in orders:
            closed, _ = kernels.edge_kernel(alpha, x, y)
            worst = max(worst, abs(kernels.i_alpha(alpha, x, y) - closed))
    return [("closed-form order " + ",".join(f"{a:g}" for a in orders), worst, "<=", tol)]


@_check
def operator_chain(points: Points, h: float, tol: float):
    """One operator step takes Ai(x) Ai(y) to I_1, and I_1 to I_2."""
    worst = 0.0
    for x, y in points:
        hop1 = kernels.operator_step(kernels.airy_product, x, y, h)
        worst = max(worst, abs(hop1 - kernels.i_alpha(1.0, x, y)))
        hop2 = kernels.operator_step(lambda a, b: kernels.i_alpha(1.0, a, b), x, y, h)
        worst = max(worst, abs(hop2 - kernels.i_alpha(2.0, x, y)))
    return [("chain", worst, "<=", tol)]


@_check
def positivity_recursion(orders: Sequence[float], xs: np.ndarray, recursion):
    """I_alpha(x, x) > 0 on xs; recursion at each (alpha, x, tol)."""
    min_diag = min(float(kernels.i_alpha_diagonal(a, xs).min()) for a in orders)
    worst = {}
    for alpha, x, tol in recursion:
        lhs, rhs = kernels.diag_recursion_check(alpha, x)
        worst[tol] = max(worst.get(tol, 0.0), abs(lhs - rhs))
    return ([("min diag", min_diag, ">", 0.0)]
            + [("recursion dev", dev, "<=", tol) for tol, dev in worst.items()])


@_check
def edge_trend(alpha: float, points: Points, sizes: Sequence[int], window):
    """Edge errors shrink along sizes, and each point's last shrink factor
    lies in the (low, high) window."""
    shrinks, lasts = [], []
    for mu, nu in points:
        limit, _ = kernels.edge_kernel(alpha, mu, nu)
        errs = [abs(egf_engine.edge_scaled_f(alpha, 0.0, mu, nu, n) - limit) for n in sizes]
        shrinks += [a / b for a, b in zip(errs, errs[1:])]  # all > 1 iff decreasing
        lasts.append((f"({mu:g}, {nu:g}) last shrink", shrinks[-1], "in", window))
    return [(f"alpha {alpha:g} min shrink", min(shrinks), ">", 1.0)] + lasts


@_check
def correlation_trend(alpha: float, point, sizes: Sequence[int], tol: float):
    """Edge correlation error: the last within tol, none above the one before."""
    mu, nu = point
    limit = kernels.edge_correlation(alpha, mu, nu)
    errs = []
    for n in sizes:
        mu_n, nu_n = egf_engine.edge_points(n, mu, nu)
        errs.append(abs(egf_engine.sigma_alpha(alpha, 0.0, mu_n, nu_n, n) - limit))
    return ([(f"alpha {alpha:g} err", errs[-1], "<=", tol)]
            + _trend(f"alpha {alpha:g}", sizes, errs, "<="))


@_check
def bulk_trend(alpha: float, point: Tuple[float, float], sizes: Sequence[int]):
    """Bulk errors shrink along sizes."""
    mu, nu = point
    limit = kernels.bulk_kernel(alpha, mu, nu)
    errs = [abs(egf_engine.bulk_scaled_full(alpha, 0.0, 0.0, mu, nu, n)[0] - limit)
            for n in sizes]
    return _trend(f"alpha {alpha:g} ({mu:g}, {nu:g})", sizes, errs, "<")


@_check
def monte_carlo_agreement(points: Points, samples: int, seed: int, z_limit: float):
    """n = 4 Gaussian Monte Carlo vs the oracle: |z| at each point, per ensemble."""
    bounds = []
    for kind in EnsembleKind:
        cfg = wigner_mc.MCConfig(ensemble=kind, dist=wigner_mc.dist_for("gaussian", kind),
                                 n=4, samples=samples, seed=seed, points=tuple(points))
        for est, (mu, nu) in zip(wigner_mc.estimate_f(cfg), points):
            want = exact_oracle.oracle_f(kind, exact_oracle.gaussian_profile(kind), 4, mu, nu)
            got = scaled_to_real_checked(est.mean)
            z = abs(got - want) / scaled_to_real_checked(est.stderr)
            bounds.append((f"{kind.value} ({mu:g}, {nu:g}) |z|", z, "<=", z_limit))
    return bounds


# -- checks only the selftest makes ------------------------------------------

@_check
def _scaled_arithmetic():
    add = mul = 0.0
    for x in (3.5, -0.02, 1234.5):
        for y in (2.25, -3.5, 0.875):
            sx, sy = scaled_from_real(x), scaled_from_real(y)
            add = max(add, _rel(scaled_to_real_checked(scaled_add(sx, sy)), x + y))
            mul = max(mul, _rel(scaled_to_real_checked(scaled_mul(sx, sy)), x * y))
    big = scaled_mul(scaled_from_real(1e300), scaled_from_real(1e300))
    big_dev = _rel(big.log_mag, 600 * math.log(10)) if big.sign == 1 else math.inf
    return [("add rel", add, "<", 1e-12), ("mul rel", mul, "<=", 1e-12),
            ("1e300^2 log rel", big_dev, "<=", 1e-12)]


@_check
def _airy_routes():
    routes = ode = 0.0
    for x in np.linspace(-10.0, 10.0, 41):
        lib, contour = special_fn.airy(float(x)), special_fn.airy_contour(float(x))
        routes = max(routes, abs(lib.ai - contour.ai), abs(lib.ai_prime - contour.ai_prime))
    for x in map(float, np.linspace(-8.0, 8.0, 17)):
        # Ai'' = x Ai, with Ai'' by a symmetric difference of Ai'
        second = (special_fn.airy(x + 1e-4).ai_prime - special_fn.airy(x - 1e-4).ai_prime) / 2e-4
        ode = max(ode, abs(second - x * special_fn.airy(x).ai))
    return [("route diff", routes, "<=", 1e-10), ("ODE residual", ode, "<=", 1e-6)]


@_check
def _kernel_symmetry_branches_quadrature():
    grid = [float(v) for v in np.linspace(-3.0, 3.0, 7)]
    asym = max(abs(kernel(mu, nu) - kernel(nu, mu))
               for kernel in (kernels.sine_kernel, kernels.t_kernel,
                              kernels.airy_kernel, kernels.b_kernel)
               for mu in grid for nu in grid)
    jump = max(max(abs(kernels.airy_kernel(x + 5e-5, x - 5e-5) - kernels.airy_kernel(x, x)),
                   abs(kernels.b_kernel(x + 5e-5, x - 5e-5) - kernels.i_alpha(2.0, x, x)))
               for x in (-2.0, 0.0, 1.5))
    wide = QuadratureSpec(truncation_halfwidth=28.0, point_count=8000)
    refine = max(abs(kernels.i_alpha(1.0, mu, nu) - kernels.i_alpha(1.0, mu, nu, wide))
                 for mu, nu in ((0.0, 0.0), (0.5, -1.5)))
    return [("asymmetry", asym, "<=", 1e-10), ("diagonal jump", jump, "<=", 1e-6),
            ("refinement", refine, "<=", 1e-11)]


@_check
def _mean_term(n: int):
    mu_n, nu_n = egf_engine.edge_points(n, 0.0, 0.0)
    g_mu = special_fn.char_poly_mean(n, mu_n)
    g_nu = special_fn.char_poly_mean(n, nu_n)
    lognorm = egf_engine.edge_lognorm(1.0, n, 0.0, 0.0)
    value = abs(g_mu.sign * g_nu.sign) * math.exp(g_mu.log_mag + g_nu.log_mag - lognorm)
    return [("scaled mean term", value, "<", 0.05)]


def _monte_carlo(fast: bool) -> List[Margin]:
    args = (((0.0, 0.0), (0.5, -0.5), (1.0, 0.3)), 2000 if fast else 100000, 7, 4.0)
    first, repeat = monte_carlo_agreement(*args), monte_carlo_agreement(*args)
    changed = sum(a.measured != b.measured for a, b in zip(first, repeat))
    return first + [Margin("repeat-run changes", changed, 0, repeat[-1].elapsed)]


_CLOSED_FORM_POINTS = ((0.3, -0.2), (1.0, 0.1), (-2.0, 1.0))

# name -> fast -> margins; fast changes only the Monte Carlo sample count.
GROUPS: List[Tuple[str, Callable[[bool], List[Margin]]]] = [
    ("scaled-arithmetic", lambda fast: _scaled_arithmetic()),
    ("airy-routes", lambda fast: _airy_routes()),
    ("kernel-identities", lambda fast: (
        _kernel_symmetry_branches_quadrature()
        + closed_forms(_CLOSED_FORM_POINTS, 1e-10, orders=(1.0,))
        + closed_forms(_CLOSED_FORM_POINTS, 1e-9, orders=(2.0,)))),
    ("operator-chain", lambda fast: (
        operator_chain(((0.8, -0.4), (1.5, 0.3), (-1.0, 0.5)), 1e-4, 1e-6)
        + _bound("bulk chain", lambda: abs(kernels.t_kernel(0.4, -0.3) - kernels.operator_step(
            kernels.sine_kernel, 0.4, -0.3, 1e-4)), "<=", 1e-6))),
    ("positivity-recursion", lambda fast: (
        positivity_recursion((0.0, 1.0, 2.0, 3.0), np.linspace(-6.0, 6.0, 13),
                             ((1.0, 0.0, 1e-8), (2.0, -2.0, 1e-7)))
        + _bound("deep decay", lambda: max(map(abs, kernels.diag_recursion_check(1.0, 8.0))),
                 "<=", 1e-12))),
    ("oracle-vs-extraction", lambda fast: (
        oracle_vs_extraction((-0.9, 0.2, 0.8), range(1, 6), 1e-10)
        + third_moment_invariance(((EnsembleKind.HERMITIAN, 0.5, 0.75),), (4,),
                                  ((0.7, -0.3),), 1e-12))),
    ("gue-kernel-link", lambda fast: gue_kernel_link(
        ((0.0, 0.0), (0.3, -0.7), (1.0, 1.0)), (1, 10, 40), 1e-8)),
    ("radius-independence", lambda fast: radius_independence(
        EgfParams(1.0, 0.25, 0.4, -0.6), ((5, 0.5, 0.85), (20, 0.8, 0.95), (50, 0.9, 0.95)),
        1e-9)),
    ("edge-trend", lambda fast: [
        m for alpha in (1.0, 2.0) for m in edge_trend(
            alpha, ((0.0, 0.0), (0.0, 1.0)), (125, 1000, 8000), (1.4, 3.0))]),
    ("correlation-trend", lambda fast: correlation_trend(1.0, (0.0, 1.0), (1024, 4096), 0.1)),
    ("bulk-scaling", lambda fast: [
        m for alpha, point in ((1.0, (0.0, 0.0)), (1.0, (0.0, 0.5)), (2.0, (0.0, 1.0)))
        for m in bulk_trend(alpha, point, (64, 128, 256))]),
    ("mean-term-negligible", lambda fast: _mean_term(4096)),
    ("monte-carlo", _monte_carlo),
]


def run(fast: bool = False, emit: Callable[[str], None] = print) -> int:
    """Run every group, one line each with its margins; 0 iff all pass."""
    all_ok = True
    total = time.perf_counter()
    for name, check in GROUPS:
        start = time.perf_counter()
        try:
            margins = check(fast)
            line = report_line(name, time.perf_counter() - start, margins)
        except Exception as exc:  # a crash counts as a failure, not an abort
            line = (f"FAIL {name} ({time.perf_counter() - start:.1f}s): "
                    f"raised {type(exc).__name__}: {exc}")
        all_ok = all_ok and line.startswith("PASS")
        emit(line)
    emit(f"total {time.perf_counter() - total:.1f}s")
    return 0 if all_ok else 2
