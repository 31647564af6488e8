"""The benchmark's set-up (bench/workloads.py) calls wigcorr before any
pass is timed: `warm_up()` makes one small call per entry point, and
`build` fixes each workload's tasks. Run both over the real package, so
that a change that breaks them fails here and not only in a benchmark
run."""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def test_warm_up_runs_and_every_known_failure_is_a_built_row():
    workloads.warm_up()
    rows = [row for name in workloads.WORKLOADS
            for task in workloads.build(name, 1) for row in task.rows]
    assert len(rows) == len(set(rows))
    known = json.loads((BENCH / "known_failures.json").read_text(encoding="utf-8"))["rows"]
    assert set(known) <= set(rows)
