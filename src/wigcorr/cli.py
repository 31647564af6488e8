"""Command-line surface: convergence tables and structured reports.

Every table subcommand produces a RunReport with one row per matrix
size: the raw correlation value as (sign, log10 magnitude), the
normalized dimensionless value, the limit it converges to, the absolute
error, and the extraction condition number. Reports render as CSV (the
header row plus data, LF endings) or as a single JSON object carrying
the same numeric payload together with parameters and diagnostics.

Exit codes: 0 on success, 2 when a row was refused (it stays in the
table, flagged) or a numerical check failed, 3 on bad arguments, 141
(128 + SIGPIPE) when the reader closes stdout before the output ends.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import __version__
from .egf_engine import (
    ContourJob,
    EgfParams,
    bulk_scaled_full,
    default_points,
    default_radius,
    edge_points,
    edge_scaled_full,
    extract_f,
    sigma_alpha,
)
from .errors import DegenerateDenominatorError, DomainError, NumericalConsistencyError
from .exact_oracle import (
    ORACLE_F_MAX_N,
    EnsembleKind,
    bstar_for,
    ensemble_alpha,
    oracle_f,
)
from .kernels import bulk_kernel, edge_correlation, edge_kernel, i_alpha
from .numeric_core import (
    DEFAULT_LINE_QUAD,
    ScaledReal,
    scaled_div,
    scaled_from_real,
    scaled_to_real_checked,
)
from .selftest import run as selftest_run
from .wigner_mc import (
    DIST_KINDS,
    MCConfig,
    dist_for,
    estimate_f,
    estimate_sigma_detail,
    moments_of,
)

__all__ = ["main", "RunReport", "render_csv", "render_json"]

COLUMNS = ("N", "log10_f", "sign", "scaled", "limit", "abs_err", "condition")

_ENSEMBLES = {
    "hermitian": EnsembleKind.HERMITIAN,
    "symmetric": EnsembleKind.REAL_SYMMETRIC,
}

# CLI spellings of the entry laws: "two-point" for "two_point".
_DISTS = tuple(kind.replace("_", "-") for kind in DIST_KINDS)

# The condition column of a refused row.
_REFUSED_CONDITION = 1e12


@dataclass
class RunReport:
    """A table: report parameters, one dict per row keyed by COLUMNS,
    diagnostics and the exit code."""

    params: Dict[str, object]
    rows: List[Dict[str, object]]
    diagnostics: Dict[str, object] = field(default_factory=dict)
    exit_code: int = 0


def _row(n: int, raw: ScaledReal, scaled: float, limit: float,
         condition: float) -> Dict[str, object]:
    if raw.is_zero():
        log10_f, sign = 0.0, 0
    else:
        log10_f, sign = raw.log10_mag(), raw.sign
    return dict(zip(COLUMNS, (
        int(n), float(log10_f), int(sign), float(scaled), float(limit),
        float(abs(scaled - limit)), float(condition),
    )))


def _table(params: Dict[str, object], sizes: Sequence[int],
           limit: float, compute, diagnostics: Dict[str, object]) -> RunReport:
    """One row per size from compute(n). A row refused with a
    NumericalConsistencyError stays, flagged: sign 0, value 0, the table's
    limit and condition _REFUSED_CONDITION; the reason goes to stderr,
    exit 2."""
    rows: List[Dict[str, object]] = []
    flagged: List[int] = []
    for n in sizes:
        try:
            rows.append(compute(n))
        except NumericalConsistencyError as exc:
            rows.append(_row(n, scaled_from_real(0.0), 0.0, limit, _REFUSED_CONDITION))
            flagged.append(int(n))
            print(f"wigcorr: row N = {n} refused: {exc}", file=sys.stderr)
    if flagged:
        diagnostics["flagged_rows"] = flagged
    return RunReport(params, rows, diagnostics, 2 if flagged else 0)


def _error_slope(ns: Sequence[int], errs: Sequence[float]) -> Optional[float]:
    """Least-squares slope of log error against log size."""
    if len(ns) < 2 or any(e <= 0.0 for e in errs):
        return None
    coeffs = np.polyfit(np.log(np.asarray(ns, dtype=float)),
                        np.log(np.asarray(errs, dtype=float)), 1)
    return float(coeffs[0])


def _resolve_n_list(args) -> List[int]:
    if args.n is not None:
        sizes = [args.n]
    elif args.n_list is not None:
        sizes = list(args.n_list)
    else:
        raise DomainError("pass --n or --n-list")
    if any(n <= 0 for n in sizes):
        raise DomainError(f"matrix sizes must be positive, got {sizes}")
    if sizes != sorted(sizes):
        raise DomainError(f"sizes must be ascending, got {sizes}")
    return sizes


def _base_params(args, alpha: float, bstar: Optional[float],
                 sizes: Optional[List[int]] = None,
                 **extra) -> Dict[str, object]:
    """Report parameters; bstar None (kernel reads none) leaves it out."""
    params: Dict[str, object] = {"command": args.command, "alpha": float(alpha)}
    if bstar is not None:
        params["bstar"] = float(bstar)
    params.update(mu=float(args.mu), nu=float(args.nu))
    if sizes is not None:
        params["n_list"] = [int(n) for n in sizes]
    params.update(extra)
    return params


def cmd_edge(args) -> RunReport:
    sizes = _resolve_n_list(args)
    limit = math.exp(args.bstar) * edge_kernel(args.alpha, args.mu, args.nu)[0]

    def compute(n):
        scaled, raw, diag = edge_scaled_full(args.alpha, args.bstar,
                                             args.mu, args.nu, n)
        return _row(n, raw, scaled, limit, diag.condition)

    params = _base_params(args, args.alpha, args.bstar, sizes)
    report = _table(params, sizes, limit, compute, {
        "contour_radius": [default_radius(n) for n in sizes],
        "contour_points": [default_points(n) for n in sizes],
    })
    kept = [r for r in report.rows
            if r["N"] not in report.diagnostics.get("flagged_rows", ())]
    slope = _error_slope([r["N"] for r in kept], [r["abs_err"] for r in kept])
    if slope is not None:
        report.diagnostics["error_slope"] = slope
    return report


def cmd_bulk(args) -> RunReport:
    sizes = _resolve_n_list(args)
    limit = math.exp(args.bstar) * bulk_kernel(args.alpha, args.mu, args.nu)

    def compute(n):
        scaled, raw, diag = bulk_scaled_full(args.alpha, args.bstar, args.xi,
                                             args.mu, args.nu, n)
        return _row(n, raw, scaled, limit, diag.condition)

    params = _base_params(args, args.alpha, args.bstar, sizes, xi=float(args.xi))
    return _table(params, sizes, limit, compute, {"route": "recurrence"})


def cmd_corr(args) -> RunReport:
    sizes = _resolve_n_list(args)
    limit = edge_correlation(args.alpha, args.mu, args.nu)

    def compute(n):
        mu_n, nu_n = edge_points(n, args.mu, args.nu)
        _, raw, diag = edge_scaled_full(args.alpha, args.bstar,
                                        args.mu, args.nu, n)
        # raw is f_n at (mu_n, nu_n), the cross term of the correlation
        value = sigma_alpha(args.alpha, args.bstar, mu_n, nu_n, n, f_cross=raw)
        return _row(n, raw, value, limit, diag.condition)

    params = _base_params(args, args.alpha, args.bstar, sizes)
    return _table(params, sizes, limit, compute, {
        "contour_points": [default_points(n) for n in sizes],
    })


def _ensemble_setup(args):
    """Ensemble, entry law, its moments, and the alpha and bstar they fix."""
    kind = _ENSEMBLES[args.ensemble]
    dist = dist_for(args.dist.replace("-", "_"), kind, args.two_point_p)
    moments = moments_of(dist)
    return kind, dist, moments, ensemble_alpha(kind), bstar_for(kind, moments)


def _ensemble_params(args, sizes: List[int], alpha: float, bstar: float,
                     **extra) -> Dict[str, object]:
    params = _base_params(args, alpha, bstar, sizes,
                          ensemble=args.ensemble, dist=args.dist, **extra)
    if args.dist == "two-point":
        params["two_point_p"] = float(args.two_point_p)
    return params


def cmd_oracle(args) -> RunReport:
    sizes = _resolve_n_list(args)
    kind, _, moments, alpha, bstar = _ensemble_setup(args)

    def compute(n):
        exact = oracle_f(kind, moments, n, args.mu, args.nu)
        job = ContourJob.with_defaults(EgfParams(alpha, bstar, args.mu, args.nu), n)
        value, diag = extract_f(job)
        return _row(n, scaled_from_real(exact), exact,
                    scaled_to_real_checked(value), diag.condition)

    params = _ensemble_params(
        args, sizes, alpha, bstar,
        moments={"m2": moments.m2, "m3": moments.m3, "m4": moments.m4},
    )
    # Each row's limit is its own extraction, so a refused row reads 0.
    return _table(params, sizes, 0.0, compute, {})


def cmd_kernel(args) -> RunReport:
    quad_value = i_alpha(args.alpha, args.mu, args.nu)
    closed, route = edge_kernel(args.alpha, args.mu, args.nu)
    rows = [_row(0, scaled_from_real(closed), closed, quad_value, 1.0)]
    diagnostics = {
        "closed_form": route,
        "quadrature_halfwidth": DEFAULT_LINE_QUAD.truncation_halfwidth,
        "quadrature_points": DEFAULT_LINE_QUAD.point_count,
    }
    return RunReport(_base_params(args, args.alpha, None), rows, diagnostics)


def _mc_reference(kind: EnsembleKind, moments, alpha: float, bstar: float,
                  n: int, mu: float, nu: float):
    """Exact expansion where it reaches, extraction beyond."""
    if n <= ORACLE_F_MAX_N:
        return scaled_from_real(oracle_f(kind, moments, n, mu, nu)), "oracle"
    job = ContourJob.with_defaults(EgfParams(alpha, bstar, mu, nu), n)
    value, _ = extract_f(job)
    return value, "extraction"


def cmd_mc(args) -> RunReport:
    sizes = _resolve_n_list(args)
    kind, dist, moments, alpha, bstar = _ensemble_setup(args)
    compare = []

    def compute(n):
        cfg = MCConfig(ensemble=kind, dist=dist, n=n, samples=args.samples,
                       seed=args.seed, points=((args.mu, args.nu),))
        if args.stat == "f":
            est = estimate_f(cfg)[0]
            reference, route = _mc_reference(
                kind, moments, alpha, bstar, n, args.mu, args.nu
            )
            if reference.is_zero():
                raise DegenerateDenominatorError(
                    f"{route} reference is exactly zero, so no ratio")
            # Values themselves overflow doubles for large n, so the
            # normalized column is the ratio to the reference route.
            ratio = (0.0 if est.mean.is_zero() else
                     scaled_to_real_checked(scaled_div(est.mean, reference)))
            rel_err = (0.0 if est.stderr.is_zero() else
                       abs(scaled_to_real_checked(scaled_div(est.stderr, reference))))
            compare.append({
                "N": int(n),
                "reference_route": route,
                "z_score": 0.0 if rel_err == 0.0 else (ratio - 1.0) / rel_err,
            })
            return _row(n, est.mean, ratio, 1.0, rel_err)
        value, spread = estimate_sigma_detail(cfg)[0]
        reference = sigma_alpha(alpha, bstar, args.mu, args.nu, n)
        compare.append({"N": int(n), "batch_spread": float(spread)})
        return _row(n, scaled_from_real(value), value, reference, spread)

    params = _ensemble_params(
        args, sizes, alpha, bstar,
        samples=int(args.samples),
        seed=int(args.seed),
        stat=args.stat,
    )
    # --stat sigma rows each have their own reference: a refused one reads 0.
    return _table(params, sizes, 1.0 if args.stat == "f" else 0.0,
                  compute, {"comparison": compare})


_HANDLERS = {
    "edge": cmd_edge,
    "bulk": cmd_bulk,
    "corr": cmd_corr,
    "oracle": cmd_oracle,
    "kernel": cmd_kernel,
    "mc": cmd_mc,
}


def _csv_cell(value: object) -> str:
    # repr of a Python float is the shortest round-tripping decimal form,
    # always with a '.' decimal point.
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(report: RunReport) -> str:
    lines = [",".join(COLUMNS)]
    for row in report.rows:
        lines.append(",".join(_csv_cell(row[name]) for name in COLUMNS))
    return "\n".join(lines) + "\n"


def render_json(report: RunReport) -> str:
    payload = {
        "params": report.params,
        "rows": report.rows,
        "diagnostics": report.diagnostics,
        "version": __version__,
    }
    return json.dumps(payload, indent=2) + "\n"


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    with open(out_path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


class _Parser(argparse.ArgumentParser):
    """Parser whose usage failures exit with status 3 instead of 2;
    status 2 is reserved for numerical consistency failures. Options
    must be spelled in full: an abbreviation would let an option that a
    subcommand does not read land on one it does (kernel --n on --nu)."""

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _size_list(text: str) -> List[int]:
    try:
        sizes = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}") from None
    if not sizes:
        raise argparse.ArgumentTypeError("empty size list")
    return sizes


def _options(*adders) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    for add in adders:
        add(parent)
    return parent


def _alpha_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=1.0,
                        help="kernel family order (default 1)")


def _bstar_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--bstar", type=float, default=0.0,
                        help="fourth-moment shift in the prefactor exp(bstar)")


def _point_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mu", type=float, default=0.0,
                        help="first evaluation offset")
    parser.add_argument("--nu", type=float, default=0.0,
                        help="second evaluation offset")


def _size_options(parser: argparse.ArgumentParser) -> None:
    sizes = parser.add_mutually_exclusive_group()
    sizes.add_argument("--n", type=int, help="single matrix size")
    sizes.add_argument("--n-list", dest="n_list", type=_size_list,
                       metavar="A,B,C", help="ascending matrix sizes")


def _output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="report format (default csv)")
    parser.add_argument("--out", metavar="PATH",
                        help="write the report to a file instead of stdout")
    parser.add_argument("--deterministic", action="store_true",
                        help="suppress wall-clock diagnostics for "
                             "byte-reproducible reports")


def _ensemble_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ensemble", choices=sorted(_ENSEMBLES),
                        default="hermitian")
    parser.add_argument("--dist", choices=_DISTS, default="gaussian")
    parser.add_argument("--two-point-p", dest="two_point_p", type=float,
                        default=0.5,
                        help="success probability of the two-point entry law")


def _build_parser() -> _Parser:
    # Each subcommand takes only the options it reads: the ensemble and
    # entry law of oracle and mc fix alpha and bstar, and a kernel value
    # has no matrix size and no exp(bstar) prefactor.
    common = _options(_alpha_option, _bstar_option, _point_options,
                      _size_options, _output_options)
    ensemble = _options(_point_options, _size_options, _output_options,
                        _ensemble_options)
    size_free = _options(_alpha_option, _point_options, _output_options)
    parser = _Parser(
        prog="wigcorr",
        description="Correlation functions of Wigner characteristic "
                    "polynomials by mutually checking routes.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    sub.add_parser(
        "edge", parents=[common],
        help="edge-scaled values against the limit kernel",
        description="Table of edge-scaled correlation values at offsets "
                    "(mu, nu) from the spectral edge, compared with "
                    "exp(bstar) times the limit kernel.",
    )
    p_bulk = sub.add_parser(
        "bulk", parents=[common],
        help="bulk-scaled values against the sine-type limit",
        description="Table of bulk-scaled correlation values around "
                    "position xi inside the spectrum. Rows whose "
                    "extraction is refused for cancellation are flagged "
                    "and the run exits with status 2.",
    )
    p_bulk.add_argument("--xi", type=float, default=0.0,
                        help="bulk position in (-2, 2), default 0")
    sub.add_parser(
        "corr", parents=[common],
        help="correlation coefficients against the kernel ratio",
        description="Table of correlation coefficients of the two "
                    "characteristic-polynomial values at edge-scaled "
                    "points, compared with the limit kernel ratio.",
    )
    sub.add_parser(
        "oracle", parents=[ensemble],
        help="exact small-n expansion against contour extraction",
        description="Exact moment-expansion values for n <= "
                    f"{ORACLE_F_MAX_N}, compared with the "
                    "generating-function extraction route. The ensemble "
                    "and entry distribution fix alpha and bstar.",
    )
    sub.add_parser(
        "kernel", parents=[size_free],
        help="limit kernel values, closed form against quadrature",
        description="Single limit-kernel evaluation; the closed form "
                    "(orders 0, 1, 2) is compared against the defining "
                    "line integral.",
    )
    p_mc = sub.add_parser(
        "mc", parents=[ensemble],
        help="Monte Carlo estimates against oracle or extraction",
        description="Monte Carlo estimate at raw points (mu, nu). For "
                    "--stat f the normalized column is the ratio of the "
                    "estimate to the reference route and the condition "
                    "column its relative standard error; for --stat "
                    "sigma the columns hold the estimated and reference "
                    "correlation coefficients and the batch-means spread.",
    )
    p_mc.add_argument("--samples", type=int, default=10000,
                      help="Monte Carlo sample count (default 10000)")
    p_mc.add_argument("--seed", type=int, default=0,
                      help="base seed of the counter-mode generator, in "
                           "[0, 2**128)")
    p_mc.add_argument("--stat", choices=("f", "sigma"), default="f",
                      help="estimate the correlation value or the "
                           "correlation coefficient")
    p_selftest = sub.add_parser(
        "selftest",
        help="run the invariant suite of every module",
        description="Runs every cross-route invariant group and prints "
                    "one pass/fail line per group with its margins.",
    )
    p_selftest.add_argument("--fast", action="store_true",
                            help="skip the largest sizes and shrink the "
                                 "Monte Carlo sample count")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            status = selftest_run(fast=args.fast)
        else:
            start = time.perf_counter()
            report = _HANDLERS[args.command](args)
            if not args.deterministic:
                report.diagnostics["elapsed_seconds"] = round(
                    time.perf_counter() - start, 6
                )
            text = (render_csv(report) if args.format == "csv"
                    else render_json(report))
            _emit(text, args.out)
            status = report.exit_code
        # A closed pipe then shows here, not in the flush at exit.
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader has all the output it wants. Point stdout at devnull
        # so the flush at interpreter exit cannot raise again.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141
    except DomainError as exc:
        print(f"wigcorr: {exc}", file=sys.stderr)
        return 3
    except NumericalConsistencyError as exc:
        print(f"wigcorr: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
