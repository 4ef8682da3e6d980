"""The package's public surface."""

import importlib
from pathlib import Path

import tiltbound

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    missing = [name for name in tiltbound.__all__ if not hasattr(tiltbound, name)]
    assert not missing


def test_benchmark_span_points_resolve(monkeypatch):
    # the traced benchmark re-binds these (module, attribute) names; one that
    # no longer exists makes a traced run fail with AttributeError
    monkeypatch.syspath_prepend(str(ROOT))
    tracing = importlib.import_module("bench.tracing")
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in (*tracing.SPAN_POINTS, *tracing.COUNT_POINTS)
        if not hasattr(importlib.import_module(f"tiltbound.{module}"), attr)
    ]
    prover = importlib.import_module("tiltbound.prover")
    missing += [f"prover.ri.{fn}" for fn in tracing.RI_FUNCTIONS if not hasattr(prover.ri, fn)]
    assert not missing
