"""The shared exact kernel against a Fraction-dict reference, and the verdict path's arithmetic."""

import fractions
import math
import random
from fractions import Fraction

import pytest

from tiltbound import exppoly
from tiltbound.exppoly import U, V, W, ExpPoly, Laurent, derivative
from tiltbound.prover import BATTERY, verify_battery
from tiltbound.regions import verify_case_structure

AXES = ("u", "v", "w")


# A reference polynomial is a dict from key to nonzero Fraction.


def ref_add(a, b, sign=1):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, Fraction(0)) + sign * c
    return {key: c for key, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for x, c in a.items():
        for y, d in b.items():
            key = tuple(i + j for i, j in zip(x, y))
            out[key] = out.get(key, Fraction(0)) + c * d
    return {key: c for key, c in out.items() if c}


def ref_scale(a, q):
    q = Fraction(q)
    return {key: c * q for key, c in a.items() if q}


def ref_diff(a, power_axis, rate_axis):
    out = {}
    for key, c in a.items():
        lowered = list(key)
        lowered[power_axis] -= 1
        for target, factor in ((tuple(lowered), key[power_axis]), (key, key[rate_axis])):
            out[target] = out.get(target, Fraction(0)) + factor * c
    return {key: c for key, c in out.items() if c}


def ref_at(a, i, j):
    out = {}
    for key, c in a.items():
        moved = list(key)
        for x, y in ((i, j), (3 + i, 3 + j)):
            moved[x], moved[y] = 0, moved[x] + moved[y]
        out[tuple(moved)] = out.get(tuple(moved), Fraction(0)) + c
    return {key: c for key, c in out.items() if c}


def ref_pair(rates, sign):
    """(e^x + sign e^-x) / 2 for x with the given rates."""
    up = {(0, 0, 0) + rates: Fraction(1, 2)}
    return ref_add(up, {(0, 0, 0) + tuple(-r for r in rates): Fraction(1, 2)}, sign)


def as_dict(p):
    if type(p) is ExpPoly:
        return {(i, k): c for i, k, c in p.terms()}
    return dict(p.terms())


def assert_matches(p, ref):
    kernel = type(p)
    terms = as_dict(p)
    assert terms == ref
    # terms() yields canonical rationals: an int, or a Fraction that is not integral
    assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in terms.values())
    # the storage: nonzero int numerators over one reduced positive int denominator
    assert type(p._den) is int and p._den > 0
    assert all(type(c) is int and c for c in p._terms.values())
    assert math.gcd(p._den, *p._terms.values()) == 1
    twin = kernel(ref)
    assert p == twin and twin == p and hash(p) == hash(twin)


def random_ref(rng, kernel):
    out = {}
    for _ in range(rng.randint(0, 5)):
        if kernel is ExpPoly:
            key = (rng.randint(0, 3), rng.randint(-3, 3))
        else:
            key = tuple(rng.randint(-2, 2) for _ in range(6))
        numerator = rng.choice((rng.randint(-9, 9), rng.randint(-(10**30), 10**30)))
        out[key] = out.get(key, Fraction(0)) + Fraction(numerator, rng.randint(1, 12))
    return {key: c for key, c in out.items() if c}


def random_scalar(rng, kernel):
    choices = [rng.randint(-7, 7), Fraction(rng.randint(-7, 7), rng.randint(1, 9))]
    if kernel is Laurent:
        choices.append(rng.randint(-64, 64) / 8 * rng.choice((1.0, 0.1, 3.0)))
    return rng.choice(choices)


def random_linear(rng):
    """A nonzero integer-linear argument as (Laurent, rates), often a multiple of one variable."""
    if rng.random() < 0.5:
        axis, k = rng.randrange(3), rng.choice((-3, -2, -1, 1, 2, 3))
        rates = tuple(k if i == axis else 0 for i in range(3))
    else:
        rates = tuple(rng.randint(-2, 2) for _ in range(3))
    return rates[0] * U + rates[1] * V + rates[2] * W, rates


def step(rng, kernel, p, ref):
    """One random operation on (p, ref); returns the new pair."""
    ops = ["add", "sub", "mul", "pow", "neg", "scale", "rscale", "shift", "diff"]
    if kernel is Laurent:
        ops += ["at", "elementary"]
    op = rng.choice(ops)
    if op in ("add", "sub", "mul"):
        other = random_ref(rng, kernel)
        q = kernel(other)
        if op == "add":
            return p + q, ref_add(ref, other)
        if op == "sub":
            return p - q, ref_add(ref, other, -1)
        return p * q, ref_mul(ref, other)
    if op == "pow":
        n = rng.randint(0, 9 if len(ref) <= 5 else 3)  # small bases to higher powers
        out = {kernel._ONE: Fraction(1)}
        for _ in range(n):
            out = ref_mul(out, ref)
        return p**n, out
    if op == "neg":
        return -p, ref_scale(ref, -1)
    if op in ("scale", "rscale"):
        q = random_scalar(rng, kernel)
        return (p * q if op == "scale" else q * p), ref_scale(ref, q)
    if op == "shift":
        q = random_scalar(rng, kernel)
        one = {kernel._ONE: Fraction(q)} if q else {}
        if rng.random() < 0.5:
            return p + q, ref_add(ref, one)
        return q - p, ref_add(one, ref, -1)
    if op == "diff":
        if kernel is ExpPoly:
            return derivative(p), ref_diff(ref, 0, 1)
        axis = rng.randrange(3)
        return p.diff(AXES[axis]), ref_diff(ref, axis, 3 + axis)
    if op == "at":
        i, j = rng.sample(range(3), 2)
        return p.at(AXES[i], AXES[j]), ref_at(ref, i, j)
    x, rates = random_linear(rng)
    name = rng.choice(("exp", "sinh", "cosh", "sinh_over"))
    if name == "exp":
        value, value_ref = x.exp(), {(0, 0, 0) + rates: Fraction(1)}
    elif name in ("sinh", "cosh"):
        value, value_ref = getattr(x, name)(), ref_pair(rates, 1 if name == "cosh" else -1)
    else:
        nonzero = [(i, r) for i, r in enumerate(rates) if r]
        if len(nonzero) != 1:
            with pytest.raises(ValueError):
                x.sinh_over()
            return p, ref
        ((axis, k),) = nonzero
        over = {tuple(-1 if i == axis else 0 for i in range(6)): Fraction(1, k)}
        value, value_ref = x.sinh_over(), ref_mul(ref_pair(rates, -1), over)
    assert_matches(value, value_ref)
    return p * value, ref_mul(ref, value_ref)


@pytest.mark.parametrize("kernel", [ExpPoly, Laurent])
def test_random_operation_sequences_match_the_fraction_reference(kernel):
    rng = random.Random(f"sparsepoly:{kernel.__name__}")
    for _ in range(60):
        ref = random_ref(rng, kernel)
        p = kernel(ref)
        assert_matches(p, ref)
        for _ in range(12):
            p, ref = step(rng, kernel, p, ref)
            assert_matches(p, ref)
            if len(ref) > 40:  # keep products small
                ref = random_ref(rng, kernel)
                p = kernel(ref)


def test_power_squares(monkeypatch):
    # ** multiplies by squaring: p ** 64 takes six squarings and one product
    calls = []
    mul = exppoly._mul

    def counting(*args):
        calls.append(args)
        return mul(*args)

    monkeypatch.setattr(exppoly, "_mul", counting)
    ref = {(0, 0): Fraction(1), (1, 0): Fraction(-2, 3), (2, 0): Fraction(5)}
    power = ExpPoly(ref) ** 64
    assert 0 < len(calls) <= 2 * (64).bit_length()
    out = {ExpPoly._ONE: Fraction(1)}
    for _ in range(64):
        out = ref_mul(out, ref)
    assert_matches(power, out)


def test_the_verdict_path_builds_no_fraction(monkeypatch):
    # the battery and the case links compute over ints; a Fraction built on
    # this path (a 1/2 of sinh, a float scalar read through Fraction, terms()
    # in place of the numerators) fails here
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counting)
    battery = verify_battery()
    report = verify_case_structure(0.05, 8.0, battery)
    assert battery.all_certified and report.all_passed
    assert built == []
    Fraction(1, 2)  # the counter sees a construction
    assert built == [(1, 2)]


def test_repr_is_the_constructor_call():
    # ExpPoly and Laurent print through SparsePoly.__repr__: the canonical
    # rationals in key order, which eval with Fraction in scope rebuilds
    assert "__repr__" not in vars(ExpPoly) and "__repr__" not in vars(Laurent)
    p = ExpPoly({(1, 0): Fraction(1, 3), (0, 2): Fraction(-1, 7)})
    assert repr(p) == "ExpPoly({(0, 2): Fraction(-1, 7), (1, 0): Fraction(1, 3)})"
    battery = [exppoly.parse_expression(text) for _, text, _, _ in BATTERY]
    assert len(battery) == 8
    scope = {"ExpPoly": ExpPoly, "Laurent": Laurent, "Fraction": Fraction}
    for q in [*battery, p, 0.1 * U, ExpPoly(), Laurent()]:
        assert eval(repr(q), scope) == q, repr(q)
