"""One workload in a fresh process: set up, run timed passes, report.

Started by run.py, never by hand. Prints `READY` once wigcorr is imported
and every entry point has been called once, then runs passes while the
next one is expected to end within the requested seconds (at least two,
so the CLI rows can be compared between passes) and prints one JSON
object as its last line.

With --trace 1 untraced and traced passes alternate: end-to-end figures
come only from untraced passes, per-layer figures only from traced ones.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _prepare_imports() -> None:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))


def run_pass(tasks, tracer=None):
    """Run every task once; return (wall seconds, outcomes, raw results)."""
    from stats import Check, Outcome

    results, seconds = {}, {}
    start = time.perf_counter()
    for task in tasks:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                value = task.run()
            else:
                tracer.row = task.tid
                with tracer.span("bench.row"):
                    value = task.run()
        except Exception as exc:  # a row that raises is a failed row
            value = exc
        seconds[task.tid] = time.perf_counter() - t0
        results[task.tid] = value
    wall = time.perf_counter() - start

    outcomes = []
    for task in tasks:
        value = results[task.tid]
        if isinstance(value, BaseException):
            checks = [Check(False, math.nan, math.nan,
                            f"raised {type(value).__name__}: {value}")] * len(task.rows)
        else:
            try:
                checks = task.check(value, results)
            except Exception as exc:  # a malformed result fails its rows
                checks = [Check(False, math.nan, math.nan,
                                f"check raised {type(exc).__name__}: {exc}")] * len(task.rows)
        per_row = seconds[task.tid] / len(task.rows)
        outcomes.extend(Outcome(row, bool(c.ok), float(c.measured), float(c.tolerance),
                                per_row, c.note)
                        for row, c in zip(task.rows, checks))
    return wall, outcomes, results


def apply_byte_identity(tasks, passes):
    """Fail CLI rows whose report text differs from the first pass's (the
    first pass is compared with the second)."""
    cli_tids = {t.tid: t for t in tasks if t.cli}
    texts = {tid: [p["results"][tid] for p in passes] for tid in cli_tids}
    for k, p in enumerate(passes):
        other = 1 if k == 0 else 0
        changed = set()
        for tid, values in texts.items():
            mine, ref = values[k], values[other]
            text = mine[1] if isinstance(mine, tuple) else repr(mine)
            ref_text = ref[1] if isinstance(ref, tuple) else repr(ref)
            if text != ref_text:
                changed.update(cli_tids[tid].rows)
        if changed:
            p["outcomes"] = [
                dataclasses.replace(o, ok=False, note="report differs between passes")
                if o.row in changed else o
                for o in p["outcomes"]
            ]


def _cli_rows(tasks, results) -> int:
    from workloads import parse_rows

    count = 0
    for task in tasks:
        value = results[task.tid]
        if task.cli and isinstance(value, tuple):
            try:
                count += len(parse_rows(value[1]))
            except (ValueError, KeyError):
                pass
    return count


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment(workload: str, seed: int) -> dict:
    import mpmath
    import numpy
    import scipy
    from wigcorr import wigner_mc

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_measured": blas_threads(),
        "RMT_THREADS": os.environ.get("RMT_THREADS"),
        "mc_workers": wigner_mc.thread_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _prepare_imports()
    import wigcorr
    if Path(wigcorr.__file__).resolve().parent != ROOT / "src" / "wigcorr":
        print(f"bench: imported wigcorr from {wigcorr.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import workloads
    workloads.warm_up()
    protocol = sys.stdout
    print("READY", file=protocol, flush=True)
    if args.setup_only:
        return 0

    from stats import failed_frac
    tasks = workloads.build(args.workload, args.seed)
    kernel_rows = {row for t in tasks if t.kernel for row in t.rows}
    tracer = None
    if args.trace:
        from spans import Tracer, layer_metrics, self_time_by_name
        from wigcorr import egf_engine
        tracer = Tracer()
        tracer.drive_rows_from_this_thread()

    passes = []
    all_spans = []
    start = time.perf_counter()
    while True:
        # Objects alive between passes (set-up, earlier spans) are moved
        # out of the collector's reach, so a pass pays only for its own.
        gc.collect()
        gc.freeze()
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            tracer.install()
            try:
                wall, outcomes, results = run_pass(tasks, tracer)
            finally:
                tracer.uninstall()
            spans = tracer.take()
            layer = layer_metrics(spans, egf_engine.MP_CONDITION_AT, egf_engine.MP_MAX_N)
            layer["kernels.failed"] = sum(
                1 for o in outcomes if not o.ok and o.row in kernel_rows)
            layer["cli.rows"] = _cli_rows(tasks, results)
            selfs = self_time_by_name(spans)
            all_spans.extend(spans)
        else:
            wall, outcomes, results = run_pass(tasks)
            layer, selfs = None, None
        passes.append({"traced": traced, "wall": wall, "outcomes": outcomes,
                       "results": results, "layer": layer, "selfs": selfs})
        enough = len(passes) >= 2 and (not args.trace or any(p["traced"] for p in passes))
        # Stop before a pass that would run past the requested seconds.
        mean_pass = (time.perf_counter() - start) / len(passes)
        if enough and time.perf_counter() - start + mean_pass > args.seconds:
            break

    apply_byte_identity(tasks, passes)
    for p in passes:
        if p["layer"] is not None:
            p["layer"]["failed_frac"] = failed_frac(p["outcomes"])

    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        Tracer.write_csv(out_dir / f"spans-{args.workload}-seed{args.seed}.csv", all_spans)

    report = {
        "env": environment(args.workload, args.seed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": [
            {"traced": p["traced"], "wall": p["wall"], "layer": p["layer"],
             "selfs": p["selfs"],
             "outcomes": [dataclasses.asdict(o) for o in p["outcomes"]]}
            for p in passes
        ],
    }
    print(json.dumps(report), file=protocol, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
