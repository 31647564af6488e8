"""Tests of the benchmark's own logic: python3 -m pytest bench -q"""

import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from child import run_pass  # noqa: E402
from spans import Span, Tracer, layer_metrics, self_times  # noqa: E402
from stats import Check, failed_frac, percentile  # noqa: E402
import workloads  # noqa: E402
from workloads import Task, _cli_task  # noqa: E402


def test_percentile_reports_value_and_sample_count():
    values = [float(v) for v in range(1, 101)]
    value, count, beyond = percentile(values, 90)
    assert value == pytest.approx(90.1)
    assert count == 100
    assert beyond == 10
    value, count, beyond = percentile(values, 50)
    assert (value, count, beyond) == (50.5, 100, 50)


def test_percentile_refuses_a_thin_tail():
    with pytest.raises(ValueError, match="only 5 beyond"):
        percentile([float(v) for v in range(50)], 90)


def _span(sid, start, end, parent=None, thread=0, name="x"):
    return Span(sid, name, start, end, parent, None, thread)


def test_self_time_subtracts_nested_children_once():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 2.0, 3.0, parent=1),     # grandchild: only its parent's concern
        _span(3, 5.0, 6.0, parent=0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(1.0)


def test_self_time_counts_overlapping_worker_spans_as_their_union():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 6.0, parent=0, thread=1),
        _span(2, 3.0, 8.0, parent=0, thread=2),
        _span(3, 9.5, 12.0, parent=0, thread=1),   # clipped to the parent
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 0.5)


def test_worker_thread_spans_attach_to_the_driving_row():
    tracer = Tracer()
    tracer.drive_rows_from_this_thread()

    def draw(i):
        time.sleep(0.02)
        return i

    traced_draw = tracer.wrap("wigner_mc.sample_matrix", draw)

    def estimate():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(traced_draw, range(4)))

    traced_estimate = tracer.wrap("wigner_mc.estimate_f", estimate,
                                  counts=lambda a, k: {"samples": 4})
    tracer.row = "row-a"
    with tracer.span("bench.row"):
        assert traced_estimate() == [0, 1, 2, 3]
    spans = {s.name: s for s in tracer.spans}
    draws = [s for s in tracer.spans if s.name == "wigner_mc.sample_matrix"]
    est = spans["wigner_mc.estimate_f"]
    assert len(draws) == 4
    assert all(d.parent == est.sid and d.row == "row-a" for d in draws)
    assert est.parent == spans["bench.row"].sid
    # The estimate waited on its workers: nearly all of it is covered.
    assert self_times(tracer.spans)[est.sid] < 0.5 * (est.end - est.start)
    m = layer_metrics(tracer.spans, 1e7, 4096)
    assert m["wigner_mc.samples"] == 4
    assert m["wigner_mc.workers"] >= 1


def test_layer_metrics_split_contour_routes_and_count_refusals_once():
    def extract(cond=None, n=10, raised=None, parent=None, sid=0):
        s = Span(sid, "egf_engine.extract_f", 0.0, 1.0, parent, None, 0,
                 {"points": 2048, "n": n}, raised)
        if cond is not None:
            s.counts["condition"] = cond
        return s

    outer = Span(9, "egf_engine.bulk_scaled_full", 0.0, 2.0, None, None, 0,
                 {}, "CancellationError")
    spans = [
        extract(cond=10.0, sid=1),
        extract(cond=1e9, sid=2),
        extract(raised="CancellationError", n=5, parent=9, sid=3),
        outer,
    ]
    m = layer_metrics(spans, 1e7, 4096)
    assert m["egf_engine.extract_calls"] == 3
    assert m["egf_engine.contour_points"] == 3 * 2048
    assert m["egf_engine.fallback_calls"] == 2
    assert m["egf_engine.extract_s"] == pytest.approx(1.0)
    assert m["egf_engine.refused"] == 1


def test_failed_frac_counts_every_row_of_an_aborted_table():
    aborted = _cli_task("cli:aborts", ["edge"], 2, lambda row, i, ctx: Check(True, 0.0, 0.0))
    aborted.run = lambda: (2, "", "wigcorr: cancellation beyond 120 digits", None)
    fine = Task("ok", ("ok:0", "ok:1"), lambda: 1.0,
                lambda value, results: [Check(True, 0.0, 1.0)] * 2)
    _, outcomes, _ = run_pass([aborted, fine])
    assert [o.row for o in outcomes if not o.ok] == ["cli:aborts:row0", "cli:aborts:row1"]
    assert all("lost with its table" in o.note for o in outcomes if not o.ok)
    assert failed_frac(outcomes) == 0.5


def test_a_raising_task_fails_all_its_rows():
    def boom():
        raise RuntimeError("refused")

    task = Task("t", ("t:0", "t:1", "t:2"), boom, lambda v, r: [])
    _, outcomes, _ = run_pass([task])
    assert failed_frac(outcomes) == 1.0
    assert len(outcomes) == 3


def test_monte_carlo_gate_holds_z_to_the_limit_and_fails_nan():
    limit = workloads.MC_Z_LIMIT
    assert workloads._z_check(-0.99 * limit, {})[0].ok
    assert not workloads._z_check(1.01 * limit, {})[0].ok
    assert not workloads._z_check(float("nan"), {})[0].ok
    rows = workloads._z_rows([0.5, -1.01 * limit], {})
    assert [c.ok for c in rows] == [True, False]


def test_benchmark_json_lists_the_metrics_run_py_reports():
    import json

    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
