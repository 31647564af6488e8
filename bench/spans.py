"""Span tracing of wigcorr's layers from outside the package.

`Tracer.install` replaces each listed function by a wrapper that records
a span (name, start, end, parent span, row id, thread) and restores the
originals on `uninstall`. A wrapper is installed in the function's own
module and under every other name a wigcorr module imported it by, so
`cli.edge_scaled_full` is traced as well as `egf_engine.edge_scaled_full`.

Parents are kept per thread. A span opened on a thread with no open span
of its own (a Monte Carlo pool worker) takes as parent the innermost open
span of the thread that drives the rows, so worker spans attach to the
row that started them. Spans stay in memory until `write_csv`.

`layer_metrics` turns one pass worth of spans into the per-layer metrics
named in BENCHMARK.json. Self time is a span's duration minus the union
of the intervals its children cover, so overlapping worker spans are not
subtracted twice.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    row: Optional[str]
    thread: int
    counts: Dict[str, float] = field(default_factory=dict)
    raised: Optional[str] = None
    cpu: float = 0.0            # CPU time of the span's own thread


def _job_points(args, kwargs):
    job = args[0] if args else kwargs["job"]
    return {"points": job.points, "n": job.n}


def _condition(result):
    return {"condition": float(result[1].condition)}


def _degree(args, kwargs):
    return {"n": args[0] if args else kwargs["n"]}


def _perm_pairs(args, kwargs):
    n = args[2] if len(args) > 2 else kwargs["n"]
    return {"perm_pairs": math.factorial(n) ** 2}


def _samples(args, kwargs):
    cfg = args[0] if args else kwargs["cfg"]
    return {"samples": cfg.samples}


# (module, function, counts computed from the arguments, info taken from
# the result). Every function a per-layer metric needs, plus the public
# entry points that call them, so self times are not charged to a caller.
TRACED = (
    ("wigcorr.cli", "main", None, None),
    ("wigcorr.egf_engine", "extract_f", _job_points, _condition),
    ("wigcorr.egf_engine", "edge_scaled_full", None, None),
    ("wigcorr.egf_engine", "bulk_scaled_full", None, None),
    ("wigcorr.egf_engine", "sigma_alpha", None, None),
    ("wigcorr.special_fn", "airy", None, None),
    ("wigcorr.special_fn", "hermite_phys", _degree, None),
    ("wigcorr.special_fn", "char_poly_mean", _degree, None),
    ("wigcorr.special_fn", "gue_kernel", None, None),
    ("wigcorr.kernels", "sine_kernel", None, None),
    ("wigcorr.kernels", "t_kernel", None, None),
    ("wigcorr.kernels", "airy_kernel", None, None),
    ("wigcorr.kernels", "b_kernel", None, None),
    ("wigcorr.kernels", "i_alpha", None, None),
    ("wigcorr.kernels", "i_alpha_diagonal", None, None),
    ("wigcorr.kernels", "airy_product", None, None),
    ("wigcorr.kernels", "diag_recursion_check", None, None),
    ("wigcorr.numeric_core", "trapezoid_line", None, None),
    ("wigcorr.exact_oracle", "oracle_f", _perm_pairs, None),
    ("wigcorr.wigner_mc", "estimate_f", _samples, None),
    ("wigcorr.wigner_mc", "estimate_sigma_detail", _samples, None),
    ("wigcorr.wigner_mc", "sample_rng", None, None),
    ("wigcorr.wigner_mc", "sample_matrix", None, None),
    ("numpy.linalg", "slogdet", None, None),
)


class Tracer:
    """Collects spans from wrapped functions while installed."""

    def __init__(self):
        self.spans: List[Span] = []
        self.row: Optional[str] = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._row_stack: List[int] = self._stack()
        self._installed: List[tuple] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def drive_rows_from_this_thread(self) -> None:
        """Make the calling thread the one worker spans attach to."""
        self._row_stack = self._stack()

    # -- span recording -------------------------------------------------
    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._row_stack:
            parent = self._row_stack[-1]
        else:
            parent = None
        span = Span(next(self._ids), name, 0.0, 0.0, parent, self.row,
                    threading.get_ident())
        stack.append(span.sid)
        span.cpu = time.thread_time()
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.cpu = time.thread_time() - span.cpu
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        """Record a span around a block, e.g. one benchmark row."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn: Callable,
             counts: Optional[Callable] = None,
             info: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                if counts is not None:
                    span.counts.update(counts(args, kwargs))
                result = fn(*args, **kwargs)
                if info is not None:
                    span.counts.update(info(result))
                return result
            except BaseException as exc:
                span.raised = type(exc).__name__
                raise
            finally:
                tracer._close(span)

        return traced

    # -- installation ---------------------------------------------------
    def install(self, targets=TRACED) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "wigcorr" or key.startswith("wigcorr."))]
        for modname, fname, counts, info in targets:
            home = sys.modules[modname]
            original = getattr(home, fname)
            label = f"{modname.rsplit('.', 1)[-1]}.{fname}"
            wrapper = self.wrap(label, original, counts, info)
            for mod in [home] + modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._installed.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed = []

    def take(self) -> List[Span]:
        """Return the spans recorded so far and start a new batch."""
        spans, self.spans = self.spans, []
        return spans

    @staticmethod
    def write_csv(path, spans: List[Span]) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            out = csv.writer(handle)
            out.writerow(["id", "name", "start", "end", "cpu", "parent", "row",
                          "thread", "raised", "counts"])
            for s in spans:
                out.writerow([s.sid, s.name, repr(s.start), repr(s.end), repr(s.cpu),
                              "" if s.parent is None else s.parent,
                              s.row or "", s.thread, s.raised or "",
                              ";".join(f"{k}={v}" for k, v in s.counts.items())])


# -- analysis -------------------------------------------------------------

def self_times(spans: List[Span]) -> Dict[int, float]:
    """Duration of each span minus the union of its children's intervals."""
    children: Dict[int, List[tuple]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.sid] = (s.end - s.start) - covered
    return out


def _duration(s: Span) -> float:
    return s.end - s.start


ESTIMATES = ("wigner_mc.estimate_f", "wigner_mc.estimate_sigma_detail")
DRAW = ("wigner_mc.sample_rng", "wigner_mc.sample_matrix")
HERMITE = ("special_fn.char_poly_mean", "special_fn.hermite_phys")
REFUSALS = ("CancellationError", "NumericalConsistencyError",
            "DegenerateDenominatorError")


def layer_metrics(spans: List[Span], fallback_at: float,
                  fallback_max_n: int) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (times in s, counts as counts).

    extract_f has no public flag for its mpmath fallback, so a call counts
    as fallback when its returned condition is above `fallback_at`
    (egf_engine.MP_CONDITION_AT), or when it raised at an order the
    fallback covers (n <= `fallback_max_n`, egf_engine.MP_MAX_N).
    """
    by_id = {s.sid: s for s in spans}
    selfs = self_times(spans)

    def parent_name(s: Span) -> Optional[str]:
        p = by_id.get(s.parent) if s.parent is not None else None
        return p.name if p is not None else None

    def estimate_ancestor(s: Span) -> Optional[Span]:
        cur = by_id.get(s.parent) if s.parent is not None else None
        while cur is not None:
            if cur.name in ESTIMATES:
                return cur
            cur = by_id.get(cur.parent) if cur.parent is not None else None
        return None

    m: Dict[str, float] = {
        "egf_engine.extract_calls": 0, "egf_engine.contour_points": 0,
        "egf_engine.extract_s": 0.0, "egf_engine.fallback_calls": 0,
        "egf_engine.fallback_s": 0.0, "egf_engine.refused": 0,
        "egf_engine.sigma_s": 0.0,
        "special_fn.char_poly_mean_s": 0.0, "special_fn.hermite_steps": 0,
        "special_fn.gue_kernel_s": 0.0, "special_fn.airy_calls": 0,
        "kernels.i_alpha_calls": 0, "kernels.i_alpha_s": 0.0,
        "kernels.i_alpha_diagonal_s": 0.0, "kernels.diag_recursion_s": 0.0,
        "numeric_core.trapezoid_calls": 0, "numeric_core.trapezoid_s": 0.0,
        "exact_oracle.oracle_calls": 0, "exact_oracle.oracle_s": 0.0,
        "exact_oracle.perm_pairs": 0,
        "wigner_mc.samples": 0, "wigner_mc.estimate_s": 0.0,
        "wigner_mc.draw_s": 0.0, "wigner_mc.factorize_s": 0.0,
        "wigner_mc.reduce_s": 0.0, "wigner_mc.workers": 0,
        "cli.self_s": 0.0,
    }
    raised_egf_parents = {s.parent for s in spans
                          if s.name.startswith("egf_engine.") and s.raised in REFUSALS}
    workers: Dict[int, set] = {}
    for s in spans:
        name = s.name
        if name == "egf_engine.extract_f":
            m["egf_engine.extract_calls"] += 1
            m["egf_engine.contour_points"] += s.counts.get("points", 0)
            cond = s.counts.get("condition")
            if cond is not None:
                fallback = cond > fallback_at
            else:
                fallback = s.counts.get("n", 0) <= fallback_max_n
            if fallback:
                m["egf_engine.fallback_calls"] += 1
                m["egf_engine.fallback_s"] += selfs[s.sid]
            else:
                m["egf_engine.extract_s"] += selfs[s.sid]
        elif name == "egf_engine.sigma_alpha":
            m["egf_engine.sigma_s"] += selfs[s.sid]
        elif name in HERMITE:
            if parent_name(s) not in HERMITE:
                m["special_fn.char_poly_mean_s"] += _duration(s)
                m["special_fn.hermite_steps"] += s.counts.get("n", 0)
        elif name == "special_fn.gue_kernel":
            m["special_fn.gue_kernel_s"] += _duration(s)
        elif name == "special_fn.airy":
            m["special_fn.airy_calls"] += 1
        elif name == "kernels.i_alpha":
            m["kernels.i_alpha_calls"] += 1
            m["kernels.i_alpha_s"] += _duration(s)
        elif name == "kernels.i_alpha_diagonal":
            m["kernels.i_alpha_diagonal_s"] += _duration(s)
        elif name == "kernels.diag_recursion_check":
            m["kernels.diag_recursion_s"] += _duration(s)
        elif name == "numeric_core.trapezoid_line":
            if parent_name(s) == "kernels.i_alpha":
                m["numeric_core.trapezoid_calls"] += 1
                m["numeric_core.trapezoid_s"] += _duration(s)
        elif name == "exact_oracle.oracle_f":
            m["exact_oracle.oracle_calls"] += 1
            m["exact_oracle.oracle_s"] += _duration(s)
            m["exact_oracle.perm_pairs"] += s.counts.get("perm_pairs", 0)
        elif name in ESTIMATES:
            if estimate_ancestor(s) is None:
                m["wigner_mc.samples"] += s.counts.get("samples", 0)
                m["wigner_mc.estimate_s"] += _duration(s)
            m["wigner_mc.reduce_s"] += selfs[s.sid]
        elif name in DRAW or name == "linalg.slogdet":
            est = estimate_ancestor(s)
            if est is not None:
                # Busy (CPU) time: pool workers contend for the
                # interpreter lock, so their wall spans overlap idle time.
                key = "wigner_mc.draw_s" if name in DRAW else "wigner_mc.factorize_s"
                m[key] += s.cpu
                workers.setdefault(est.sid, set()).add(s.thread)
        elif name == "cli.main":
            m["cli.self_s"] += selfs[s.sid]
        if (name.startswith("egf_engine.") and s.raised in REFUSALS
                and s.sid not in raised_egf_parents):
            m["egf_engine.refused"] += 1
    m["wigner_mc.workers"] = max((len(t) for t in workers.values()), default=0)
    est_s = m["wigner_mc.estimate_s"]
    m["wigner_mc.samples_per_s"] = m["wigner_mc.samples"] / est_s if est_s > 0 else 0.0
    return m


def self_time_by_name(spans: List[Span]) -> Dict[str, float]:
    """Total self time per span name, with the Monte Carlo draw names
    merged. Draw and slogdet spans count CPU time, as in layer_metrics."""
    selfs = self_times(spans)
    out: Dict[str, float] = {}
    for s in spans:
        if s.name in DRAW or s.name == "linalg.slogdet":
            key, value = ("wigner_mc.draw" if s.name in DRAW else s.name), s.cpu
        else:
            key, value = s.name, selfs[s.sid]
        out[key] = out.get(key, 0.0) + value
    return out
