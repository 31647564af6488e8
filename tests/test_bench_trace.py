"""The benchmark's span tracer (bench/spans.py) wraps wigcorr functions
by name. Install it over the real package, so that a renamed or moved
function fails here and not only in a benchmark run."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import wigcorr.cli  # noqa: E402,F401  imports every module TRACED names
from spans import TRACED, Tracer  # noqa: E402
from wigcorr import egf_engine  # noqa: E402


def test_tracer_resolves_every_traced_function_and_restores_it():
    originals = {(mod, fn): getattr(sys.modules[mod], fn) for mod, fn, _, _ in TRACED}
    tracer = Tracer()
    tracer.install()
    try:
        for (mod, fn), original in originals.items():
            assert getattr(sys.modules[mod], fn) is not original, f"{mod}.{fn}"
        job = egf_engine.ContourJob.with_defaults(egf_engine.EgfParams(1.0, 0.0, 0.3, -0.7), 40)
        _, diag = egf_engine.extract_f(job)
    finally:
        tracer.uninstall()
    spans = [s for s in tracer.take() if s.name == "egf_engine.extract_f"]
    assert len(spans) == 1
    assert spans[0].counts == {"points": job.points, "n": 40, "condition": diag.condition}
    for (mod, fn), original in originals.items():
        assert getattr(sys.modules[mod], fn) is original, f"{mod}.{fn}"
