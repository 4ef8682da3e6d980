import importlib

import pytest

from bench.tracing import Tracer, self_times


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (0, -1, "root", 0.0, 10.0),
        (1, 0, "a", 1.0, 3.0),
        (2, 0, "b", 2.0, 4.0),  # overlaps a: the union covers [1, 4]
        (3, 0, "c", 5.0, 6.0),
        (4, 1, "grandchild", 1.5, 2.5),
        (5, 0, "late", 9.5, 12.0),  # clipped to the parent's end
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 1.0 - 0.5)
    assert own[1] == pytest.approx(1.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(2.5)


def test_wrapped_calls_nest_and_keep_attributes():
    tracer = Tracer()
    tracer.on_return("outer", lambda args, result: {"result": result})
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    by_name = {span[2]: span for span in tracer.spans}
    assert by_name["inner"][1] == by_name["outer"][0]
    assert by_name["outer"][1] == -1
    assert by_name["outer"][5] == {"result": 4}


def test_install_wraps_boundaries_and_restores_them():
    modules = ("cli", "exppoly", "extremal", "prover", "regions", "tilted")
    program = type("Program", (), {m: importlib.import_module(f"tiltbound.{m}") for m in modules})
    prover = program.prover
    originals = (prover.decide_sign, prover.normalize, prover.ri)
    tracer = Tracer()
    with tracer.installed(program):
        prover.decide_sign(program.exppoly.parse_expression("sinh(w) - w"))
    assert (prover.decide_sign, prover.normalize, prover.ri) == originals
    names = {span[2] for span in tracer.spans}
    assert {"prover.decide_sign", "exppoly.normalize", "rootisolation.count_roots_above"} <= names
    decide = next(span for span in tracer.spans if span[2] == "prover.decide_sign")
    children = [span for span in tracer.spans if span[1] == decide[0]]
    assert children and all(decide[3] <= c[3] <= c[4] <= decide[4] for c in children)
