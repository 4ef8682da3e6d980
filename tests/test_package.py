"""The package's public surface."""

import ast
import importlib
import json
from pathlib import Path

import tiltbound

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    missing = [name for name in tiltbound.__all__ if not hasattr(tiltbound, name)]
    assert not missing


def test_exact_kernels_share_one_arithmetic():
    # ExpPoly and Laurent take their constructor, + - * ** ==, the reflected
    # forms, the derivative rule and the reading of a numerator as a rational
    # from SparsePoly; a copy in either class body fails here
    from tiltbound.exppoly import ExpPoly, SparsePoly
    from tiltbound.identities import Laurent

    shared = {
        "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__neg__", "__pow__", "__eq__", "__hash__", "_of", "_rational", "_diff",
    }
    for kernel in (ExpPoly, Laurent):
        assert kernel.__bases__ == (SparsePoly,)
        assert not shared & set(vars(kernel)), kernel


def test_parser_and_both_kernels_reach_one_product(monkeypatch):
    # at run time: parsing a product, ExpPoly * ExpPoly and Laurent * Laurent
    # each multiply through exppoly._mul; a product loop of their own fails here
    from tiltbound import exppoly
    from tiltbound.identities import U, V

    calls = []
    mul = exppoly._mul

    def counting(*args):
        calls.append(args)
        return mul(*args)

    monkeypatch.setattr(exppoly, "_mul", counting)
    products = {
        "parse_expression": lambda: exppoly.parse_expression("(1+w)*(1+exp(w))"),
        "ExpPoly": lambda: (1 + exppoly.W) * (1 + exppoly.T),
        "Laurent": lambda: (1 + U) * (1 + V),
    }
    results = {}
    for name, build in products.items():
        before = len(calls)
        results[name] = build()
        assert len(calls) > before, name
    assert results["parse_expression"] == results["ExpPoly"]


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



def test_prover_reads_only_the_traced_rootisolation_names(monkeypatch):
    # the traced benchmark swaps prover.ri for a namespace holding only
    # RI_FUNCTIONS, so any other ri.<name> the prover reads fails every
    # traced run; collect the reads from the source and check each one
    monkeypatch.syspath_prepend(str(ROOT))
    tracing = importlib.import_module("bench.tracing")
    tree = ast.parse((ROOT / "src" / "tiltbound" / "prover.py").read_text())
    uses = [node for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == "ri"]
    reads = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "ri"
    ]
    # ri passed on whole, or read by getattr, would escape the check
    assert len(uses) == len(reads)
    names = {node.attr for node in reads}
    assert names  # count_roots_above and evaluate today
    assert names <= set(tracing.RI_FUNCTIONS), names - set(tracing.RI_FUNCTIONS)


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
