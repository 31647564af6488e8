"""wigcorr benchmark: one workload per invocation, from the repository root.

    python3 bench/run.py --workload edge_asymptotics --seed 1 --seconds 30 --trace 0

Runs the workload in a fresh child process (bench/child.py) with
RMT_THREADS and the BLAS thread count fixed so that Monte Carlo pool
workers x BLAS threads <= nproc. Set-up is timed in several more
children that only import and warm up. Prints the environment, every
row's correctness check and every metric with its unit; the last line is
one JSON object with the keys correct, attempted, failed and metrics.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Full results also go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import Outcome, failed_frac, percentile, unexpected_failures  # noqa: E402

WORKLOADS = ("edge_asymptotics", "small_n_crosscheck", "mc_sampling")
SETUP_SAMPLES = 5           # children timed from spawn to READY; median
DEADLINE_S = 170.0          # the whole invocation must end within 180 s
BLAS_THREADS = 1
KNOWN_FAILURES_FILE = HERE / "known_failures.json"

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("rows_per_s", "1/s"),
    ("row_ms_p50", "ms"), ("row_ms_p90", "ms"), ("peak_rss_mb", "MB"),
)
PER_LAYER_UNITS = {
    "egf_engine.extract_calls": "count", "egf_engine.contour_points": "count",
    "egf_engine.extract_s": "s", "egf_engine.fallback_calls": "count",
    "egf_engine.fallback_s": "s", "egf_engine.refused": "count",
    "egf_engine.sigma_s": "s",
    "special_fn.char_poly_mean_s": "s", "special_fn.hermite_steps": "count",
    "special_fn.gue_kernel_s": "s", "special_fn.airy_calls": "count",
    "kernels.i_alpha_calls": "count", "kernels.i_alpha_s": "s",
    "kernels.i_alpha_diagonal_s": "s", "kernels.diag_recursion_s": "s",
    "kernels.failed": "count",
    "numeric_core.trapezoid_calls": "count", "numeric_core.trapezoid_s": "s",
    "exact_oracle.oracle_calls": "count", "exact_oracle.oracle_s": "s",
    "exact_oracle.perm_pairs": "count",
    "wigner_mc.samples": "count", "wigner_mc.estimate_s": "s",
    "wigner_mc.samples_per_s": "1/s", "wigner_mc.draw_s": "s",
    "wigner_mc.factorize_s": "s", "wigner_mc.reduce_s": "s",
    "wigner_mc.workers": "count",
    "cli.self_s": "s", "cli.rows": "count",
    "failed_frac": "frac", "trace_overhead_s": "s",
}
# Counts computed from the call arguments; they must repeat exactly.
COMPUTED_COUNTS = ("egf_engine.contour_points", "special_fn.hermite_steps",
                   "exact_oracle.perm_pairs", "wigner_mc.samples")


def child_env() -> dict:
    usable = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env.update({
        "RMT_THREADS": str(max(1, min(2, usable // BLAS_THREADS))),
        "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
        "OMP_NUM_THREADS": str(BLAS_THREADS),
        "MKL_NUM_THREADS": str(BLAS_THREADS),
        "PYTHONHASHSEED": "0",
        "PYTHONDONTWRITEBYTECODE": "1",
    })
    env.pop("PYTHONPATH", None)
    return env


def spawn(args, env, deadline: float, setup_only: bool):
    """Start a child, time it from spawn to READY; return (setup_s, rest of
    its stdout, exit code)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or code != 0:
        raise RuntimeError(f"child {'set-up ' if setup_only else ''}run failed "
                           f"(exit {code}, first line {first.strip()[:80]!r})")
    return setup, rest, code


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "wigcorr").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def end_to_end(untraced, setup_times, peak_rss_mb):
    walls = [p["wall"] for p in untraced]
    row_ms = [o.seconds * 1e3 for p in untraced for o in p["outcomes"]]
    p50, count, _ = percentile(row_ms, 50)
    p90, _, beyond = percentile(row_ms, 90)
    rates = [len(p["outcomes"]) / p["wall"] for p in untraced]
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "rows_per_s": statistics.median(rates),
        "row_ms_p50": p50,
        "row_ms_p90": p90,
        "peak_rss_mb": peak_rss_mb,
    }
    info = {"rows": count, "pass_walls_s": walls, "rows_beyond_p90": beyond,
            "setup_samples_s": setup_times}
    return values, info


def per_layer(passes):
    traced = [p for p in passes if p["traced"]]
    names = [n for n in PER_LAYER_UNITS if n != "trace_overhead_s"]
    values = {}
    for n in names:
        value = statistics.median([p["layer"][n] for p in traced])
        values[n] = int(value) if PER_LAYER_UNITS[n] == "count" else value
    for n in COMPUTED_COUNTS:
        seen = {p["layer"][n] for p in traced}
        if len(seen) != 1:
            raise RuntimeError(f"computed count {n} changed between passes: {sorted(seen)}")
    # Passes alternate untraced, traced: compare each traced pass with the
    # untraced one just before it, so slow drift of the machine cancels.
    values["trace_overhead_s"] = statistics.median(
        [p["wall"] - passes[i - 1]["wall"] for i, p in enumerate(passes) if p["traced"]])
    return values, statistics.median([p["wall"] for p in traced])


def shares(values, traced_wall, selfs):
    """Layer shares of the traced wall that the README's layer map claims."""
    top = sorted(selfs.items(), key=lambda kv: -kv[1])[:6]
    return {
        "traced_wall_s": traced_wall,
        "extract": values["egf_engine.extract_s"] / traced_wall,
        "char_poly_mean": values["special_fn.char_poly_mean_s"] / traced_wall,
        "kernel_quadrature": (values["kernels.i_alpha_s"]
                              + values["kernels.i_alpha_diagonal_s"]) / traced_wall,
        "fallback_plus_oracle": (values["egf_engine.fallback_s"]
                                 + values["exact_oracle.oracle_s"]) / traced_wall,
        "mc_draw": values["wigner_mc.draw_s"] / traced_wall,
        "largest_self_times": [(name, round(t / traced_wall, 4)) for name, t in top],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "wigcorr" / "__init__.py").is_file():
        print(f"bench: no wigcorr sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    known = json.loads(KNOWN_FAILURES_FILE.read_text(encoding="utf-8"))["rows"]

    env = child_env()
    setup_times = [spawn(args, env, deadline, setup_only=True)[0]
                   for _ in range(SETUP_SAMPLES - 1)]
    setup, rest, _ = spawn(args, env, deadline, setup_only=False)
    setup_times.append(setup)
    report = json.loads(rest.strip().splitlines()[-1])

    passes = report["passes"]
    for p in passes:
        p["outcomes"] = [Outcome(**o) for o in p["outcomes"]]
    outcomes = [o for p in passes for o in p["outcomes"]]
    unexpected = unexpected_failures(outcomes, known)
    attempted, failed = len(outcomes), sum(1 for o in outcomes if not o.ok)

    run_env = dict(report["env"], git_commit=git_commit(), src_digest=source_digest(),
                   trace=args.trace, seconds=args.seconds)
    print("environment " + json.dumps(run_env, sort_keys=True))

    first = passes[0]["outcomes"]
    for o in first:
        status = "PASS" if o.ok else ("KNOWN-FAIL" if o.row in known else "FAIL")
        print(f"row {status} {o.row} measured={o.measured:.6g} tol={o.tolerance:.6g}"
              + (f" ({o.note})" if o.note else ""))
    print(f"rows: {len(first)} per pass, {attempted} attempted over {len(passes)} passes, "
          f"{failed} failed ({len(unexpected)} not on the known-failure list)")

    if args.trace:
        values, traced_wall = per_layer(passes)
        units = PER_LAYER_UNITS
        traced = [p for p in passes if p["traced"]]
        selfs = {}
        for p in traced:
            for name, t in p["selfs"].items():
                selfs[name] = selfs.get(name, 0.0) + t / len(traced)
        extra = {"shares": shares(values, traced_wall, selfs),
                 "computed_counts": {n: values[n] for n in COMPUTED_COUNTS}}
    else:
        untraced = [p for p in passes if not p["traced"]]
        values, extra = end_to_end(untraced, setup_times, report["peak_rss_mb"])
        units = dict(END_TO_END)
        print(f"metric failed_frac {failed_frac(outcomes):.6f} frac "
              f"({failed} of {attempted} rows)")

    for name, value in values.items():
        label = " (computed from arguments)" if name in COMPUTED_COUNTS else ""
        print(f"metric {name} {value!r} {units[name]}{label}")
    print("detail " + json.dumps(extra, sort_keys=True))

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"env": run_env, "metrics": values, "detail": extra,
              "failed_rows": sorted({o.row for o in outcomes if not o.ok}),
              "unexpected_failures": sorted({o.row for o in unexpected})}
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")

    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    if not all(math.isfinite(v["value"]) for v in metrics.values()):
        raise RuntimeError(f"non-finite metric in {metrics}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
