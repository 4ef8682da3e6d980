"""The package's public surface."""

import ast
import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import tiltbound
from tiltbound import extremal, prover, regions, tilted

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


def test_import_generates_no_code():
    # every result record is a named tuple, so importing the package and its
    # command line loads neither dataclasses nor inspect; -S keeps site .pth
    # files, which may import either, out of the check
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import tiltbound, tiltbound.cli, tiltbound.extremal, tiltbound.regions\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == "[]"


@pytest.fixture(scope="module")
def records() -> dict:
    """One instance of each result record, built by the routine that returns it where cheap."""
    poly = tiltbound.parse_expression("sinh(w) - w")
    decision = prover.decide_sign(poly)
    entry = prover.BatteryEntry(
        "sinh_dominates_identity", "sinh(w) - w", poly, prover.Outcome.POSITIVE, "role",
        decision, True,
    )
    check = regions.StructureCheck("name", True, "detail")
    box = regions.BoxRegion(u=(0.5, 1.0), v=(0.5, 1.0), w=(0.5, 1.0), case=regions.CaseRegion.CASE2)
    p = tilted.TiltParams(h=1.0, w=1.0)
    return {
        "TiltParams": p,
        "BoundCheck": tilted.check_bound(extremal.three_point_extremal(0.1, 1.0), p),
        "ReductionStep": decision.certificate.steps[0],
        "SignCertificate": decision.certificate,
        "SignDecision": decision,
        "BatteryEntry": entry,
        "BatteryReport": prover.BatteryReport((entry,)),
        "BoxRegion": box,
        "ProofExpr": regions.CATALOG["d_case2"],
        "CertifyResult": regions.certify_negative("d_at_v_eq_w_case2", box, 2),
        "StructureCheck": check,
        "Link": regions.LINKS[0],
        "CaseStructureReport": regions.CaseStructureReport((0.5, 1.0), (check,)),
        "SupSearchResult": extremal.sup_symmetric(0.01, p),
        "ScanRow": extremal.ratio_limit_scan(p, [0.1])[0],
    }


RECORD_NAMES = (
    "TiltParams", "BoundCheck", "ReductionStep", "SignCertificate", "SignDecision",
    "BatteryEntry", "BatteryReport", "BoxRegion", "ProofExpr", "CertifyResult",
    "StructureCheck", "Link", "CaseStructureReport", "SupSearchResult", "ScanRow",
)


class TestRecordContract:
    def test_the_records_are_every_named_tuple_of_the_package(self):
        modules = [
            importlib.import_module(f"tiltbound.{path.stem}")
            for path in (ROOT / "src" / "tiltbound").glob("*.py")
            if path.stem != "__init__"
        ]
        found = {
            name
            for module in modules
            for name, value in vars(module).items()
            if isinstance(value, type) and issubclass(value, tuple) and value.__module__ == module.__name__
        }
        assert found == set(RECORD_NAMES)

    @pytest.mark.parametrize("name", RECORD_NAMES)
    def test_record(self, records, name):
        record = records[name]
        assert type(record).__name__ == name
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = None  # no instance dict
        # keyword construction, _replace, iteration and tuple equality
        assert type(record)(**record._asdict()) == record
        assert record._replace() == record
        assert record == tuple(record) == tuple(getattr(record, f) for f in record._fields)
        assert repr(record).startswith(f"{name}({field}=")

    @pytest.mark.parametrize("axis", ["u", "v", "w"])
    @pytest.mark.parametrize(
        "bounds", [(math.nan, 1.0), (0.0, math.inf), (1.0, 0.5)], ids=["nan", "inf", "inverted"]
    )
    def test_box_region_rejects_a_bad_bound(self, axis, bounds):
        good = {"u": (0.0, 1.0), "v": (0.0, 1.0), "w": (0.0, 1.0), "case": regions.CaseRegion.CASE1}
        with pytest.raises(ValueError, match=f"invalid {axis}-range"):
            regions.BoxRegion(**{**good, axis: bounds})
        with pytest.raises(ValueError, match=f"invalid {axis}-range"):
            regions.BoxRegion(**good)._replace(**{axis: bounds})

    @pytest.mark.parametrize("field", ["h", "w"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_tilt_params_rejects_a_bad_field(self, field, value):
        with pytest.raises(ValueError, match=f" {field} must be positive and finite"):
            tilted.TiltParams(**{"h": 1.0, "w": 1.0, field: value})
        with pytest.raises(ValueError, match=f" {field} must be positive and finite"):
            tilted.TiltParams(h=1.0, w=1.0)._replace(**{field: value})
