"""The benchmark tracer (perfbench/trace.py) wraps library names by lookup;
every name it wraps must exist, or a traced benchmark run fails."""

import importlib
import sys
from pathlib import Path

import pytest

import pelliptic as pe
from pelliptic import prange

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer_module(monkeypatch):
    """perfbench/trace.py, imported the way perfbench/run.py imports it (as
    ``trace`` from its own directory), without keeping the stdlib module
    of that name out of sys.modules afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    saved = sys.modules.pop("trace", None)
    try:
        module = importlib.import_module("trace")
    finally:
        sys.modules.pop("trace", None)
        if saved is not None:
            sys.modules["trace"] = saved
    assert Path(module.__file__).resolve() == PERFBENCH / "trace.py"
    return module


def test_instrumentation_wraps_and_restores_every_name(tracer_module):
    instrumentation = tracer_module.Instrumentation(tracer_module.Tracer())
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in instrumentation._plan]
    with instrumentation:
        for owner, attr, original in originals:
            assert getattr(owner, attr).__wrapped__ is original
    for owner, attr, original in originals:
        assert getattr(owner, attr) is original


def test_traced_range_records_spans(tracer_module):
    tracer = tracer_module.Tracer()
    with tracer_module.Instrumentation(tracer):
        r = prange.condition_range(pe.CoefficientTensor.identity(2, 2), "strong", pe.SearchConfig(seed=0))
    assert (r.t_lo, r.t_hi) == (-1.0, 1.0)
    metrics = tracer_module.layer_metrics(tracer.spans)
    assert metrics["prange.condition_range_calls"] == 1
    assert metrics["prange.pooled_margin_calls"] == 0
