"""The package's public surface."""

import importlib
import json
from pathlib import Path

import tiltbound

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    missing = [name for name in tiltbound.__all__ if not hasattr(tiltbound, name)]
    assert not missing


def test_exact_kernels_share_one_arithmetic():
    # ExpPoly and Laurent take + - * ** ==, their reflected forms and the
    # derivative rule from SparsePoly; a copy in either class body fails here
    from tiltbound.exppoly import ExpPoly, SparsePoly
    from tiltbound.identities import Laurent

    shared = {
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
        "__pow__", "__eq__", "__hash__", "_of", "_diff",
    }
    for kernel in (ExpPoly, Laurent):
        assert kernel.__bases__ == (SparsePoly,)
        assert not shared & set(vars(kernel)), kernel


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


def test_verify_proof_json_has_the_keys_the_benchmark_reads(capsys):
    # bench/workloads.py gates every verify-default round on these keys of
    # the default `tiltbound verify-proof` report; one that goes missing
    # fails every round with KeyError
    from tiltbound.cli import main

    assert main(["verify-proof"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is True
    entries = payload["battery"]["entries"]
    assert entries
    for entry in entries:
        assert {"name", "outcome", "expected", "replay_matches"} <= set(entry)
    assert payload["regions"]
    for region in payload["regions"]:
        assert {
            "expression", "region", "status", "undecided_boxes", "boxes_evaluated"
        } <= set(region)
        assert {"u", "v", "w", "case"} <= set(region["region"])  # read by its falsifier
