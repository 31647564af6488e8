"""Acceptance gate: fourteen cross-route checks at fixed tolerances.

Each test prints one PASS/FAIL line with its margins (measured value
against tolerance, elapsed time against budget), then asserts. The
identities that the selftest also checks are measured by the one
function in wigcorr.selftest that both call; each side passes its own
points, sizes, seeds and tolerances. Tolerances and runtime budgets are
part of the shipped contract and must not be loosened to make a machine
happy.
"""

import math
import time

import numpy as np

from wigcorr import cli, selftest
from wigcorr.egf_engine import EgfParams, edge_scaled_f
from wigcorr.exact_oracle import EnsembleKind
from wigcorr.kernels import airy_product
from wigcorr.selftest import Margin, report_line
from wigcorr.special_fn import airy

HERM = EnsembleKind.HERMITIAN
SYM = EnsembleKind.REAL_SYMMETRIC

GRID3 = (-0.9, 0.2, 0.8)
EDGE_TREND_POINTS = ((0.0, 0.0), (0.0, 1.0), (-1.0, 1.0))
EDGE_TREND_SIZES = (125, 1000, 8000)


def gate(name: str, check) -> None:
    """Run check(), print its margins on one line, assert every bound."""
    start = time.perf_counter()
    margins = check()
    print(report_line(name, time.perf_counter() - start, margins))
    assert all(m.ok for m in margins), [str(m) for m in margins if not m.ok]


def test_01_oracle_matches_extraction():
    gate("oracle-vs-extraction", lambda: selftest.oracle_vs_extraction(
        GRID3, range(1, 6), 1e-10, budget=10.0))


def test_02_third_moment_invariance():
    gate("third-moment-invariance", lambda: selftest.third_moment_invariance(
        ((HERM, 0.5, 0.75), (SYM, 1.0, 3.0)), range(1, 6),
        ((0.6, -0.9), (0.2, 0.2)), 1e-12))


def test_03_hermitian_kernel_link():
    # log f_N = log(sqrt(2 pi) N!) + (mu^2+nu^2)/4 + log K_{N+1}(mu, nu)
    gate("hermitian-kernel-link", lambda: selftest.gue_kernel_link(
        ((0.0, 0.0), (0.3, -0.7), (1.0, 1.0)), range(1, 41), 1e-8, budget=5.0))


def test_04_airy_product_identity():
    def check():
        start = time.perf_counter()
        worst = 0.0
        for x in np.linspace(-5.0, 5.0, 11):
            for y in np.linspace(-5.0, 5.0, 11):
                got = airy_product(float(x), float(y))
                want = airy(float(x)).ai * airy(float(y)).ai
                worst = max(worst, abs(got - want))
        return [Margin("worst abs", worst, 1e-9, time.perf_counter() - start, 2.0)]
    gate("airy-product-identity", check)


def test_05_operator_chain():
    points = ((0.5, -0.5), (1.0, 0.2), (-1.5, 0.8), (2.0, -1.0), (0.0, 0.7))
    gate("operator-chain", lambda: (selftest.operator_chain(points, 1e-6)
                                    + selftest.closed_forms(points, 1e-9)))


def test_06_diagonal_positivity_and_recursion():
    recursion = [(alpha, x, 1e-7) for alpha in (1.0, 2.0, 3.0) for x in (-2.0, 0.5, 3.0)]
    gate("diagonal-positivity-recursion", lambda: selftest.positivity_recursion(
        (0.0, 1.0, 2.0, 3.0), np.linspace(-6.0, 6.0, 49), recursion, budget=5.0))


def test_07_edge_trend_order_one():
    gate("edge-trend-order-one", lambda: selftest.edge_trend(
        1.0, EDGE_TREND_POINTS, EDGE_TREND_SIZES, (1.4, 3.0), budget=60.0))


def test_08_edge_trend_order_two():
    gate("edge-trend-order-two", lambda: selftest.edge_trend(
        2.0, EDGE_TREND_POINTS, EDGE_TREND_SIZES, (1.4, 3.0), budget=60.0))


# Exact ratios f_N(bstar=1) / f_N(bstar=0) at edge offsets mu = nu = 0
# (alpha 1), from
# the D-finite recurrence for c_n = f_n / n!,
#   c_{n+1} = [sum_{k<=5} p_k c_{n-k} + 2(n-1) c_{n-1} - (n-3) c_{n-3}] / (n+1),
# where p_k are the coefficients of (1-z^2)^2 (log EGF)'. Run in mpmath at
# 60 and at 100 digits (the two agree to 20 digits), at the same double
# edge points 2 sqrt(N); independent of the contour code.
BSTAR_EXACT_RATIO = {8000: 2.283599523367542, 64000: 2.482793604933895}


def test_09_bstar_prefactor_ratio():
    # The limit carries exp(bstar), so the two runs should differ by e, but
    # edge_scaled_f promises that only up to an O(N^(-1/3)) correction, and
    # that correction is large: log(ratio/e) ~ -3.7 N^(-1/3), so the raw
    # ratio enters the 2% band near N = 6e6, beyond EDGE_MAX_N. No correct
    # extraction meets 2% of e at N = 8000. Instead: each raw ratio must
    # match its exact value, its deviation from e must shrink along the 8x
    # ladder, and one Richardson step in h = N^(-1/3) (h halves) must put
    # the limit within 2% of e. A dropped bstar term gives a limit of 1, a
    # doubled one about e^2.
    def check():
        start = time.perf_counter()
        ratio = (edge_scaled_f(1.0, 1.0, 0.0, 0.0, 8000)
                 / edge_scaled_f(1.0, 0.0, 0.0, 0.0, 8000))
        ratio_8x = (edge_scaled_f(1.0, 1.0, 0.0, 0.0, 64000)
                    / edge_scaled_f(1.0, 0.0, 0.0, 0.0, 64000))
        exact_dev = max(abs(ratio / BSTAR_EXACT_RATIO[8000] - 1.0),
                        abs(ratio_8x / BSTAR_EXACT_RATIO[64000] - 1.0))
        raw = abs(ratio / math.e - 1.0)
        raw_8x = abs(ratio_8x / math.e - 1.0)
        limit = math.exp(2.0 * math.log(ratio_8x) - math.log(ratio))
        elapsed = time.perf_counter() - start
        return [Margin("exact ratio dev", exact_dev, 1e-9, elapsed),
                Margin("rel dev vs e at N 64000 vs 8000", raw_8x, raw, elapsed, op="<"),
                Margin("extrapolated rel dev vs e", abs(limit / math.e - 1.0), 0.02, elapsed)]
    gate("bstar-prefactor-ratio", check)


def test_10_correlation_trend():
    gate("correlation-trend", lambda: (
        selftest.correlation_trend(1.0, (0.0, 1.0), (1024, 4096), 0.10)
        + selftest.correlation_trend(2.0, (-1.0, 2.0), (1024, 4096), 0.15)))


def test_11_bulk_trend():
    gate("bulk-trend", lambda: (
        selftest.bulk_trend(1.0, (0.25, -0.25), (64, 128, 256))
        + selftest.bulk_trend(2.0, (0.25, -0.25), (64, 128, 256))))


def test_12_monte_carlo_agreement(tmp_path):
    def check():
        start = time.perf_counter()
        margins = selftest.monte_carlo_agreement(
            ((0.0, 0.0), (0.3, -0.7), (1.0, 1.0)), 100000, 20260819, 4.0)
        # byte-level reproducibility through the CLI surface
        paths = [tmp_path / "mc_a.csv", tmp_path / "mc_b.csv"]
        argv = ["mc", "--n", "4", "--samples", "20000", "--seed", "11",
                "--mu", "0.3", "--nu", "-0.7", "--deterministic"]
        for p in paths:
            assert cli.main(argv + ["--out", str(p)]) == 0
        differ = paths[0].read_bytes() != paths[1].read_bytes()
        return margins + [Margin("CLI rerun differs", float(differ), 0.0,
                                 time.perf_counter() - start, 60.0)]
    gate("monte-carlo-agreement", check)


def test_13_radius_independence():
    radii = [(5, 0.5, 1.0 - 5 ** (-1.0 / 3.0)), (20, 0.8, 0.95), (50, 0.9, 0.95)]
    gate("radius-independence", lambda: selftest.radius_independence(
        EgfParams(1.0, 0.0, 0.3, -0.2), radii, 1e-9))


def test_14_selftest_budget():
    def check():
        lines = []
        margins = []
        for fast, budget in ((False, 300.0), (True, 30.0)):
            start = time.perf_counter()
            code = selftest.run(fast=fast, emit=lines.append)
            margins.append(Margin("fast exit" if fast else "full exit", code, (0, 0),
                                  time.perf_counter() - start, budget, op="in"))
        return margins
    gate("selftest-budget", check)
