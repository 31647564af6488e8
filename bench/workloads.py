"""The three benchmark workloads, as lists of tasks.

A task computes one or more table rows through wigcorr's public API (or
`wigcorr.cli.main`) and carries the gate that checks them against an
independent route. Calls go through module attributes (`egf.extract_f`,
not a local import) so the tracer's wrappers see them.

The workload seed picks Monte Carlo seeds and evaluation points inside
fixed ranges. Sizes, the README examples, the acceptance-test offsets and
the kernel grid are fixed, so the work per pass, and the rows that fail,
do not depend on the seed. edge_asymptotics draws nothing.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from wigcorr import cli
from wigcorr import egf_engine as egf
from wigcorr import exact_oracle as oracle
from wigcorr import kernels
from wigcorr import numeric_core as core
from wigcorr import special_fn as special
from wigcorr import wigner_mc as mc
from scipy.special import gammaln

from stats import Check

HERM = oracle.EnsembleKind.HERMITIAN
SYM = oracle.EnsembleKind.REAL_SYMMETRIC

# Tolerances the repository already states.
ORACLE_REL_TOL = 1e-10      # acceptance test_01
KERNEL_REL_TOL = 1e-10      # ROADMAP.md, i_alpha done-criterion
GUE_LOG_TOL = 1e-8          # acceptance test_03
RECURSION_TOL = 1e-7        # acceptance test_06
# Monte Carlo rows are held to |z| <= MC_Z_LIMIT against an exact
# reference. Acceptance test_12 holds six estimates of 100000 samples to
# |z| <= 4; a pass here checks about a hundred estimates of 4000 samples
# or fewer, and there z is far from normal. At n = 4 the determinant
# product has skewness about 5 and kurtosis about 40, so a sample that
# misses its rare large values has a low mean and a low standard error
# together, and all points of one estimate move with it. For a correct
# sampler the largest |z| of an mc_sampling pass exceeded 4 on 2.2% of
# 4500 workload seeds, 5 on 0.2% and 6 on none (bench/README.md), so
# |z| <= 4 would refuse a correct program on one run in forty-five. A
# wrong entry law, such as Rademacher draws checked against Gaussian
# moments, gives |z| of 21 to 37 on some point of the estimate.
MC_Z_LIMIT = 7.0

WORKLOADS = ("edge_asymptotics", "small_n_crosscheck", "mc_sampling")


@dataclass
class Task:
    tid: str
    rows: Tuple[str, ...]
    run: Callable[[], Any]
    # check(value, results of the pass by task id) -> one Check per row
    check: Callable[[Any, Dict[str, Any]], List[Check]]
    kernel: bool = False        # a kernel-quadrature row (kernels.failed)
    cli: bool = False           # value is (exit code, stdout, stderr, ...)


def _single(tid: str, run, check, **kw) -> Task:
    return Task(tid, (tid,), run, check, **kw)


def _rel(got: float, want: float) -> float:
    if want == 0.0:
        return 0.0 if got == 0.0 else math.inf
    return abs(got - want) / abs(want)


def _trend(prev_tid: Optional[str]):
    """Error against the limit must be below the previous size's error.
    The first row of a series (or one whose predecessor failed to
    compute) only has to be finite."""

    def check(value, results):
        scaled, limit = value
        err = abs(scaled - limit)
        if not math.isfinite(err):
            return [Check(False, err, math.nan, "non-finite")]
        prev = results.get(prev_tid) if prev_tid else None
        if prev is None or isinstance(prev, BaseException):
            return [Check(True, err, math.inf)]
        prev_err = abs(prev[0] - prev[1])
        return [Check(err < prev_err, err, prev_err,
                      "" if err < prev_err else "error did not decrease")]

    return check


# -- edge_asymptotics -------------------------------------------------------

EDGE_SIZES = (125, 1000, 8000, 64000, 10 ** 6)
EDGE_ALPHAS = (1.0, 2.0, 1.5)
EDGE_BSTARS = (0.0, 1.0)
# Offsets of acceptance tests 07/08; (0, 1) is also the README example.
EDGE_OFFSETS = ((0.0, 0.0), (0.0, 1.0), (-1.0, 1.0))
# With bstar = 1 the error changes sign below N = 8000 (the exp(bstar)
# prefactor converges like N^(-1/3); acceptance test_09), so those series
# are held to the decreasing trend from this size on.
BSTAR_TREND_FROM = 8000

CORR_SERIES = (
    # (alpha, offsets, sizes): acceptance test_10 cases, extended in N
    (1.0, (0.0, 1.0), (1000, 8000, 64000, 10 ** 6)),
    (2.0, (-1.0, 2.0), (1024, 4096, 32768)),
)
BULK_SIZES = (64, 128, 256, 512)
BULK_XIS = (0.0, 0.25, 1.0)
BULK_OFFSETS = (0.25, -0.25)           # README and acceptance test_11

KERNEL_GRID = tuple(float(v) for v in range(-30, 31, 10))
# The three points ROADMAP.md names for i_alpha, and two near the diagonal where
# the closed b_kernel cancels like 1/(mu - nu)^3. No kernel point is
# drawn from the seed: inside [-6, 6]^2 about 1.4% of random points miss
# the gate at alpha = 2 (these two defects), which would make the failed
# rows depend on the seed.
KERNEL_NAMED = ((10.0, 10.0), (15.0, 14.0), (-25.0, -28.0),
                (0.5, 0.498), (1.0, 0.99))
RECURSION_POINTS = ((2.0, 0.5), (3.0, -2.0))   # from acceptance test_06

README_EDGE = ["edge", "--alpha", "1", "--n-list", "125,1000,8000",
               "--mu", "0", "--nu", "1", "--deterministic"]
README_BULK = ["bulk", "--alpha", "1", "--xi", "0.25", "--mu", "0.25",
               "--nu", "-0.25", "--n-list", "64,128,256", "--deterministic"]
README_KERNEL = ["kernel", "--alpha", "2", "--mu", "0.5", "--nu", "-0.5",
                 "--format", "json", "--deterministic"]


def edge_limit(alpha: float, mu: float, nu: float) -> float:
    if alpha == 1.0:
        return kernels.airy_kernel(mu, nu)
    if alpha == 2.0:
        return kernels.b_kernel(mu, nu)
    return kernels.i_alpha(alpha, mu, nu)


def _edge_tasks() -> List[Task]:
    tasks = []
    for alpha in EDGE_ALPHAS:
        for bstar in EDGE_BSTARS:
            for mu, nu in EDGE_OFFSETS:
                prev = None
                for n in EDGE_SIZES:
                    tid = f"edge:a{alpha:g}:b{bstar:g}:{mu:g},{nu:g}:N{n}"

                    def run(alpha=alpha, bstar=bstar, mu=mu, nu=nu, n=n):
                        scaled, _, _ = egf.edge_scaled_full(alpha, bstar, mu, nu, n)
                        return scaled, math.exp(bstar) * edge_limit(alpha, mu, nu)

                    gated = bstar == 0.0 or n > BSTAR_TREND_FROM
                    tasks.append(_single(tid, run, _trend(prev if gated else None)))
                    prev = tid
    return tasks


def _corr_tasks() -> List[Task]:
    tasks = []
    for alpha, (mu, nu), sizes in CORR_SERIES:
        prev = None
        for n in sizes:
            tid = f"corr:a{alpha:g}:{mu:g},{nu:g}:N{n}"

            def run(alpha=alpha, mu=mu, nu=nu, n=n):
                mu_n, nu_n = egf.edge_points(n, mu, nu)
                value = egf.sigma_alpha(alpha, 0.0, mu_n, nu_n, n)
                limit = edge_limit(alpha, mu, nu) / math.sqrt(
                    edge_limit(alpha, mu, mu) * edge_limit(alpha, nu, nu))
                return value, limit

            tasks.append(_single(tid, run, _trend(prev)))
            prev = tid
    return tasks


def gue_log_f(n: int, mu: float, nu: float):
    """Sign and log of f_n(mu, nu) for the Gaussian unitary ensemble from
    the orthogonal-polynomial kernel (acceptance test_03's identity)."""
    k = special.gue_kernel(n + 1, mu, nu)
    log_f = (0.5 * math.log(2.0 * math.pi) + float(gammaln(n + 1))
             + (mu * mu + nu * nu) / 4.0 + k.log_mag)
    return k.sign, log_f


def _gue_check(value, results):
    sign, log_mag, want_sign, want_log = value
    dev = abs(log_mag - want_log)
    ok = sign == want_sign and dev <= GUE_LOG_TOL
    return [Check(ok, dev, GUE_LOG_TOL, "" if ok else "gue-kernel link broken")]


def _bulk_tasks() -> List[Task]:
    tasks = []
    mu, nu = BULK_OFFSETS
    for alpha in (1.0, 2.0):
        for xi in BULK_XIS:
            prev = None
            for n in BULK_SIZES:
                tid = f"bulk:a{alpha:g}:xi{xi:g}:N{n}"
                if alpha == 1.0:
                    # The GUE kernel is an exact second route at any size
                    # here; the bulk error itself oscillates in N at xi = 1.
                    def run(xi=xi, n=n):
                        _, raw, _ = egf.bulk_scaled_full(1.0, 0.0, xi, mu, nu, n)
                        rho = egf.rho(xi)
                        root = math.sqrt(n)
                        sign, log_f = gue_log_f(n, root * xi + mu / (root * rho),
                                                root * xi + nu / (root * rho))
                        return raw.sign, raw.log_mag, sign, log_f

                    tasks.append(_single(tid, run, _gue_check))
                else:
                    def run(xi=xi, n=n):
                        scaled, _, _ = egf.bulk_scaled_full(2.0, 0.0, xi, mu, nu, n)
                        return scaled, kernels.t_kernel(mu, nu)

                    tasks.append(_single(tid, run, _trend(prev)))
                prev = tid
    return tasks


def _kernel_check(value, results):
    quad, closed = value
    rel = _rel(quad, closed)
    ok = rel <= KERNEL_REL_TOL
    return [Check(ok, rel, KERNEL_REL_TOL, "" if ok else "quadrature off closed form")]


def _kernel_tasks() -> List[Task]:
    grid = [(x, y) for x in KERNEL_GRID for y in KERNEL_GRID]
    points = grid + [p for p in KERNEL_NAMED if p not in grid]
    tasks = []
    for alpha in (0.0, 1.0, 2.0):
        for x, y in points:
            def run(alpha=alpha, x=x, y=y):
                if alpha == 0.0:
                    return (kernels.airy_product(x, y),
                            special.airy(x).ai * special.airy(y).ai)
                closed = (kernels.airy_kernel(x, y) if alpha == 1.0
                          else kernels.b_kernel(x, y))
                return kernels.i_alpha(alpha, x, y), closed

            tasks.append(_single(f"kernel:a{alpha:g}:{x:g},{y:g}", run,
                                 _kernel_check, kernel=True))
    return tasks


def _recursion_check(value, results):
    lhs, rhs = value
    dev = abs(lhs - rhs)
    return [Check(dev <= RECURSION_TOL, dev, RECURSION_TOL)]


def _recursion_tasks() -> List[Task]:
    tasks = []
    for alpha, x in RECURSION_POINTS:
        def run(alpha=alpha, x=x):
            return kernels.diag_recursion_check(alpha, x)

        tasks.append(_single(f"recursion:a{alpha:g}:x{x:g}", run, _recursion_check,
                             kernel=True))
    return tasks


# -- CLI rows ---------------------------------------------------------------

def run_cli(argv: Sequence[str]):
    """cli.main in-process with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def parse_rows(text: str) -> List[Dict[str, float]]:
    """Rows of a CSV or JSON report; an empty list when nothing parses."""
    text = text.strip()
    if not text:
        return []
    if text.startswith("{"):
        return list(json.loads(text)["rows"])
    reader = csv.DictReader(io.StringIO(text))
    return [{k: float(v) for k, v in row.items()} for row in reader]


def _cli_task(tid: str, argv: Sequence[str], nrows: int,
              gate: Callable[[Dict[str, float], int, Dict[str, Any]], Check],
              reference: Optional[Callable[[], Any]] = None) -> Task:
    """A CLI table: row i passes `gate(row, i, ctx)`, where ctx holds the
    parsed rows, the exit code and the reference values; rows missing
    from the output (the table aborted) fail."""

    def run():
        code, out, err = run_cli(argv)
        return code, out, err, reference() if reference else None

    def check(value, results):
        code, out, err, ref = value
        try:
            rows = parse_rows(out)
        except (ValueError, KeyError) as exc:
            rows, note = [], f"unparseable output: {exc}"
        else:
            note = f"lost with its table (exit {code}: {err.strip()[:80]})"
        checks = []
        for i in range(nrows):
            if i >= len(rows):
                checks.append(Check(False, math.nan, math.nan, note))
            else:
                checks.append(gate(rows[i], i, {"rows": rows, "code": code, "ref": ref}))
        return checks

    return Task(tid, tuple(f"{tid}:row{i}" for i in range(nrows)), run, check,
                cli=True)


def _cli_trend(row, i, ctx):
    err = row["abs_err"]
    if not math.isfinite(err):
        return Check(False, err, math.nan, "non-finite")
    if i == 0:
        return Check(True, err, math.inf)
    prev = ctx["rows"][i - 1]["abs_err"]
    return Check(err < prev, err, prev, "" if err < prev else "error did not decrease")


def _cli_rel(row, i, ctx):
    rel = _rel(row["scaled"], row["limit"])
    return Check(rel <= ORACLE_REL_TOL, rel, ORACLE_REL_TOL)


def _cli_edge_tasks() -> List[Task]:
    return [
        _cli_task("cli:readme-edge", README_EDGE, 3, _cli_trend),
        _cli_task("cli:readme-bulk", README_BULK, 3, _cli_trend),
        _cli_task("cli:readme-kernel", README_KERNEL, 1, _cli_rel),
    ]


def edge_asymptotics(rng: random.Random) -> List[Task]:
    # Fixed inputs only: see KERNEL_NAMED for why no point is drawn.
    return (_edge_tasks() + _corr_tasks() + _bulk_tasks() + _kernel_tasks()
            + _recursion_tasks() + _cli_edge_tasks())


# -- small_n_crosscheck -----------------------------------------------------

ORACLE_SIZES = (1, 2, 3, 4, 5, 6)
# Points drawn per size. Sizes 1..3 cost about the same (the contour
# dominates), so weighting them puts the median row inside that cluster
# rather than on its edge, where row_ms_p50 would jump between clusters.
ORACLE_POINTS = {1: 4, 2: 4, 3: 4, 4: 2, 5: 2, 6: 1}
ORACLE_LAWS = ("gaussian", "rademacher", "two_point")
TWO_POINT_P = 0.3
# Raw (not edge-scaled) points where extract_f reruns in mpmath today.
FALLBACK_SIZES = (64, 128, 256)
# Hermitian Monte Carlo beyond the oracle, at raw points c sqrt(n) with c
# drawn in [3.5, 4.5], well outside the spectrum (edge at c = 2). Nearer
# in, the determinant product is so heavy-tailed that z of a correct
# sampler runs far out at these sample counts (measured: z = -31.9 at
# n = 128 near the origin, z = -5.6 at edge offsets in [2, 4]); out here
# 600 trials (200 seeds, three sizes) stayed within |z| < 2.8. The
# extraction is ill-conditioned there (condition 1e27 and more, the
# mpmath route), so the reference is the GUE kernel, which the gue-link
# rows tie to the extraction.
MC_LARGE = ((64, 600), (128, 300), (256, 200))
MC_LARGE_RANGE = (3.5, 4.5)

README_ORACLE = ["oracle", "--ensemble", "hermitian", "--dist", "gaussian",
                 "--n-list", "2,3,4", "--mu", "0.3", "--nu", "-0.7",
                 "--deterministic"]
# f_1 is exactly 0 here (mu_n nu_n = -alpha); the table aborts today.
EDGE_SMALL = ["edge", "--n-list", "1,2", "--mu", "-1", "--nu", "-3",
              "--deterministic"]


def profile_for(law: str, kind) -> oracle.MomentProfile:
    return mc.moments_of(mc.dist_for(law, kind, TWO_POINT_P if law == "two_point" else 0.5))


def _extract(alpha: float, bstar: float, mu: float, nu: float, n: int):
    job = egf.ContourJob.with_defaults(egf.EgfParams(alpha, bstar, mu, nu), n)
    value, _ = egf.extract_f(job)
    return value


def _oracle_check(value, results):
    rel = _rel(*value)
    return [Check(rel <= ORACLE_REL_TOL, rel, ORACLE_REL_TOL)]


def _oracle_tasks(rng: random.Random) -> List[Task]:
    tasks = []
    for kind in (HERM, SYM):
        alpha = oracle.ensemble_alpha(kind)
        for law in ORACLE_LAWS:
            prof = profile_for(law, kind)
            bstar = oracle.bstar_for(kind, prof)
            for n in ORACLE_SIZES:
                for p in range(ORACLE_POINTS[n]):
                    mu = round(rng.uniform(-0.9, 0.9), 6)
                    nu = round(rng.uniform(-0.9, 0.9), 6)

                    def run(kind=kind, prof=prof, n=n, mu=mu, nu=nu, alpha=alpha, bstar=bstar):
                        exact = oracle.oracle_f(kind, prof, n, mu, nu)
                        got = core.scaled_to_real_checked(_extract(alpha, bstar, mu, nu, n))
                        return got, exact

                    tasks.append(_single(f"oracle:{kind.value}:{law}:n{n}:p{p}", run,
                                         _oracle_check))
    return tasks


def _fallback_tasks(rng: random.Random) -> List[Task]:
    tasks = []
    for n in FALLBACK_SIZES:
        mu = round(rng.uniform(-0.5, 0.5), 6)
        # Close to the diagonal, so the GUE kernel stays far from a zero.
        nu = round(mu + rng.uniform(-0.05, 0.05), 6)

        def run(n=n, mu=mu, nu=nu):
            value = _extract(1.0, 0.0, mu, nu, n)
            return (value.sign, value.log_mag) + gue_log_f(n, mu, nu)

        tasks.append(_single(f"gue-link:n{n}", run, _gue_check))
    return tasks


def _z_check(value, results):
    z = value
    ok = math.isfinite(z) and abs(z) <= MC_Z_LIMIT
    return [Check(ok, abs(z), MC_Z_LIMIT, "" if ok else "Monte Carlo off reference")]


def _mc_large_tasks(rng: random.Random) -> List[Task]:
    tasks = []
    for n, samples in MC_LARGE:
        lo, hi = MC_LARGE_RANGE
        root = math.sqrt(n)
        mu = round(rng.uniform(lo, hi) * root, 6)
        nu = round(rng.uniform(lo, hi) * root, 6)
        seed = rng.randrange(2 ** 31)

        def run(n=n, samples=samples, mu=mu, nu=nu, seed=seed):
            ref = core.ScaledReal(*gue_log_f(n, mu, nu))
            cfg = mc.MCConfig(ensemble=HERM, dist=mc.dist_for("gaussian", HERM), n=n,
                              samples=samples, seed=seed, points=((mu, nu),))
            est = mc.estimate_f(cfg)[0]
            ratio = core.scaled_to_real_checked(core.scaled_div(est.mean, ref))
            rel_err = core.scaled_to_real_checked(core.scaled_div(est.stderr, ref))
            return (ratio - 1.0) / rel_err

        tasks.append(_single(f"mc:hermitian:n{n}", run, _z_check))
    return tasks


def _edge_small_gate(row, i, ctx):
    """Row N = i + 1 against the oracle. The exact zero must read sign 0
    in a run that refused nothing (exit 0), since sign 0 also marks a
    refused row."""
    want = ctx["ref"][i]
    got = 0.0 if row["sign"] == 0 else row["sign"] * 10.0 ** row["log10_f"]
    if want == 0.0:
        return Check(row["sign"] == 0 and ctx["code"] == 0, abs(got), 0.0)
    rel = _rel(got, want)
    return Check(rel <= ORACLE_REL_TOL, rel, ORACLE_REL_TOL)


def _edge_small_refs():
    prof = oracle.gaussian_profile(HERM)
    refs = []
    for n in (1, 2):
        mu_n, nu_n = egf.edge_points(n, -1.0, -3.0)
        refs.append(oracle.oracle_f(HERM, prof, n, mu_n, nu_n))
    return refs


def small_n_crosscheck(rng: random.Random) -> List[Task]:
    return (_oracle_tasks(rng) + _fallback_tasks(rng) + _mc_large_tasks(rng)
            + [_cli_task("cli:readme-oracle", README_ORACLE, 3, _cli_rel),
               _cli_task("cli:edge-n1-2", EDGE_SMALL, 2, _edge_small_gate,
                         reference=_edge_small_refs)])


# -- mc_sampling ------------------------------------------------------------

MC_LAWS = ("gaussian", "rademacher", "uniform", "two_point")
MC_SAMPLES = 4000
MC_POINTS = 12
SIGMA_SAMPLES = 2000
SIGMA_POINTS = 3
README_MC = ["mc", "--ensemble", "symmetric", "--dist", "rademacher", "--n", "4",
             "--samples", "50000", "--seed", "11", "--mu", "0.3", "--nu", "-0.7",
             "--deterministic"]


def _z_rows(value, results):
    return [_z_check(z, results)[0] for z in value]


def _mc4_tasks(rng: random.Random) -> List[Task]:
    tasks = []
    for kind in (HERM, SYM):
        for law in MC_LAWS:
            dist = mc.dist_for(law, kind, TWO_POINT_P if law == "two_point" else 0.5)
            points = tuple((round(rng.uniform(-1.0, 1.0), 6), round(rng.uniform(-1.0, 1.0), 6))
                           for _ in range(MC_POINTS))
            seed = rng.randrange(2 ** 31)

            def run(kind=kind, dist=dist, points=points, seed=seed):
                cfg = mc.MCConfig(ensemble=kind, dist=dist, n=4, samples=MC_SAMPLES,
                                  seed=seed, points=points)
                prof = mc.moments_of(dist)
                zs = []
                for est, (mu, nu) in zip(mc.estimate_f(cfg), points):
                    want = oracle.oracle_f(kind, prof, 4, mu, nu)
                    zs.append((core.scaled_to_real_checked(est.mean) - want)
                              / core.scaled_to_real_checked(est.stderr))
                return zs

            tid = f"mc4:{kind.value}:{law}"
            tasks.append(Task(tid, tuple(f"{tid}:p{i}" for i in range(MC_POINTS)),
                              run, _z_rows))
    for kind in (HERM, SYM):
        points = []
        for _ in range(SIGMA_POINTS):
            mu = round(rng.uniform(-1.0, 1.0), 6)
            points.append((mu, round(mu + rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.0), 6)))
        seed = rng.randrange(2 ** 31)

        def run(kind=kind, points=tuple(points), seed=seed):
            dist = mc.dist_for("gaussian", kind)
            cfg = mc.MCConfig(ensemble=kind, dist=dist, n=4, samples=SIGMA_SAMPLES,
                              seed=seed, points=points)
            alpha = oracle.ensemble_alpha(kind)
            bstar = oracle.bstar_for(kind, mc.moments_of(dist))
            return [(value - egf.sigma_alpha(alpha, bstar, mu, nu, 4)) / spread
                    for (value, spread), (mu, nu)
                    in zip(mc.estimate_sigma_detail(cfg), points)]

        tid = f"sigma4:{kind.value}"
        tasks.append(Task(tid, tuple(f"{tid}:p{i}" for i in range(SIGMA_POINTS)),
                          run, _z_rows))
    return tasks


def _cli_mc_gate(row, i, ctx):
    # scaled is the estimate over the reference, condition its relative
    # standard error.
    z = (row["scaled"] - 1.0) / row["condition"]
    return _z_check(z, None)[0]


def mc_sampling(rng: random.Random) -> List[Task]:
    return _mc4_tasks(rng) + [_cli_task("cli:readme-mc", README_MC, 1, _cli_mc_gate)]


def build(name: str, seed: int) -> List[Task]:
    """Tasks of one pass of workload `name` for workload seed `seed`."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    return globals()[name](rng)


def warm_up() -> None:
    """One small call per entry point the workloads use, so lazy imports
    and first-call costs land in set-up rather than in the first pass."""
    egf.edge_scaled_full(1.0, 0.0, 0.0, 1.0, 125)
    egf.bulk_scaled_full(1.0, 0.0, 0.0, 0.25, -0.25, 64)
    mu_n, nu_n = egf.edge_points(125, 0.0, 1.0)
    egf.sigma_alpha(1.0, 0.0, mu_n, nu_n, 125)
    _extract(1.0, 0.0, 0.3, -0.7, 3)
    special.gue_kernel(3, 0.3, -0.7)
    special.airy(0.5)
    kernels.i_alpha(1.0, 0.5, -0.5)
    kernels.airy_kernel(0.5, -0.5)
    kernels.b_kernel(0.5, -0.5)
    kernels.t_kernel(0.25, -0.25)
    kernels.airy_product(0.5, -0.5)
    kernels.i_alpha_diagonal(1.0, [0.0, 0.5])
    oracle.oracle_f(HERM, oracle.gaussian_profile(HERM), 2, 0.3, -0.7)
    cfg = mc.MCConfig(ensemble=HERM, dist=mc.dist_for("gaussian", HERM), n=4,
                      samples=200, seed=1, points=((0.3, -0.7),))
    mc.estimate_f(cfg)
    mc.estimate_sigma_detail(cfg)
    run_cli(["kernel", "--alpha", "1", "--mu", "0.5", "--nu", "-0.5", "--deterministic"])
