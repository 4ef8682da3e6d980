"""Descartes root counting against textbook Sturm chains and known factorizations."""

from fractions import Fraction

import pytest

from tiltbound import rootisolation
from tiltbound.rootisolation import (
    MAX_WORK,
    NODE_WORK,
    count_roots_above,
    evaluate,
    isolate_roots_above,
    make_poly,
    root_magnitude_bound,
)


def from_roots(roots, lead=Fraction(1)):
    p = make_poly([lead])
    for r in roots:
        p = _mul(p, make_poly([-Fraction(r), Fraction(1)]))
    return p


def _mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return make_poly(out)


def fraction_rem(a, b):
    """a mod b by long division over the rationals."""
    r = [Fraction(c) for c in a]
    while len(r) >= len(b) and any(r):
        factor, shift = r[-1] / b[-1], len(r) - len(b)
        for i, c in enumerate(b):
            r[shift + i] -= factor * c
        r.pop()
    return make_poly(r)


def fraction_sturm_chain(p):
    """The textbook chain p, p', -rem(p, p'), ... over the rationals."""
    chain = [make_poly(p), make_poly([c * i for i, c in enumerate(p) if i])]
    while chain[-1]:
        chain.append(make_poly([-c for c in fraction_rem(chain[-2], chain[-1])]))
    return chain[:-1]


def sturm_count_above(chain, lower):
    """Sturm's theorem: the distinct roots of a square-free chain[0] on (lower, oo)."""

    def variations(values):
        signs = [v > 0 for v in values if v != 0]
        return sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)

    return variations(evaluate(q, lower) for q in chain) - variations(q[-1] for q in chain)


class TestBasics:
    def test_cauchy_bound_dominates_roots(self):
        p = from_roots([Fraction(7, 2), -5, Fraction(1, 3)])
        bound = root_magnitude_bound(p)
        assert bound > 5

    def test_chain_is_the_rational_chain_up_to_positive_factors(self, rng):
        # the count against the textbook rational Sturm chain: negative and
        # rational leads, zero coefficients that make the remainder sequence
        # skip degrees, and complex roots, which no constructed factorization has
        for _ in range(200):
            size = int(rng.integers(2, 8))
            p = make_poly(
                [
                    Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
                    if rng.random() < 0.6
                    else 0
                    for _ in range(size)
                ]
            )
            reference = fraction_sturm_chain(p) if len(p) > 1 else []
            if not reference or len(reference[-1]) > 1:
                continue  # not square-free: Sturm's theorem needs gcd(p, p') constant
            for lower in (-3, Fraction(-1, 2), 0, 1, Fraction(7, 3)):
                assert count_roots_above(p, lower) == sturm_count_above(reference, lower)


class TestCounting:
    def test_linear(self):
        assert count_roots_above(make_poly([-1, 1]), Fraction(1)) == 0  # root at 1 excluded
        assert count_roots_above(make_poly([-2, 1]), Fraction(1)) == 1

    def test_golden_ratio_quadratic(self):
        p = make_poly([1, 1, -1])  # roots (1 +- sqrt 5)/2
        assert count_roots_above(p, Fraction(1)) == 1
        # quadratics far from 1 or with close roots, which the count must split to settle
        for p, count in (
            (make_poly([1000001, -2000, 1]), 0),  # (t - 1000)^2 + 1: a far complex pair
            (make_poly([10**6 + 1, -2 * 10**6, 10**6]), 0),  # (t - 1)^2 + 10^-6
            (from_roots([1000, 1001]), 2),  # two far roots one apart
        ):
            assert count_roots_above(p, Fraction(1)) == count

    def test_depressed_cubic(self):
        p = make_poly([0, -3, 0, 1])  # roots 0, +-sqrt(3)
        assert count_roots_above(p, Fraction(1)) == 1
        assert count_roots_above(p, Fraction(9, 5)) == 0

    def test_repeated_roots_counted_once(self):
        p = _mul(from_roots([2, 2]), from_roots([2]))
        assert count_roots_above(p, Fraction(1)) == 1
        # (3t - 7)^2 (t - 5): a double root that is not dyadic, met as a split point
        p = _mul(from_roots([Fraction(7, 3)] * 2, Fraction(9)), from_roots([5]))
        assert count_roots_above(p, Fraction(1)) == 2
        # right children that scaled, q(s(1 + x)), would cycle around 16 = 1 + 15
        assert count_roots_above(from_roots([16, 16, 20]), Fraction(1)) == 2

    def test_bound_is_read_as_an_exact_rational(self):
        # the bound takes the coefficients' exact rule: the float 1.5 is 3/2
        # (it raised AttributeError on the float's missing denominator)
        p = (2, -3, 1)  # roots 1 and 2
        assert count_roots_above(p, 1.5) == count_roots_above(p, Fraction(3, 2)) == 1
        assert isolate_roots_above(p, 1.5) == isolate_roots_above(p, Fraction(3, 2))
        with pytest.raises(ValueError):
            count_roots_above(p, float("nan"))

    def test_unresolved_multiple_root_raises(self):
        # (t^2 - 2t - 1)^2: the double root 1 + sqrt 2 is no split point, and
        # the variations around it never fall below 2
        p = _mul(make_poly([-1, -2, 1]), make_poly([-1, -2, 1]))
        with pytest.raises(ArithmeticError, match=f"over {MAX_WORK} units of work"):
            count_roots_above(p, Fraction(1))

    def test_every_split_pays_the_node_charge(self, monkeypatch):
        # the unresolved quartic's nodes are cheap to shift but not to visit:
        # NODE_WORK stops it after 428 splits, where the shifts alone allowed 2,612
        shifts = []
        shift = rootisolation._shift
        monkeypatch.setattr(rootisolation, "_shift", lambda p, a: shifts.append(a) or shift(p, a))
        p = _mul(make_poly([-1, -2, 1]), make_poly([-1, -2, 1]))
        with pytest.raises(ArithmeticError):
            count_roots_above(p, Fraction(1))
        splits = (len(shifts) - 1) // 2  # the root node's shift, then two per split
        assert 0 < splits <= MAX_WORK // NODE_WORK

    def test_negative_leads_and_skipped_degrees(self):
        quartic = make_poly([2, 0, 0, 0, -1])  # -t^4 + 2, roots +-2^(1/4)
        assert [count_roots_above(quartic, x) for x in (-2, 0, 1, 2)] == [2, 1, 1, 0]
        cubic = from_roots([2, 2, 3], Fraction(-3, 7))  # -(3/7)(t - 2)^2 (t - 3)
        assert [count_roots_above(cubic, x) for x in (1, 2, Fraction(5, 2), 3)] == [2, 1, 1, 0]

    def test_constructed_factorizations(self, rng):
        # polynomials assembled from known rational roots: an exact oracle
        for _ in range(200):
            n = int(rng.integers(1, 7))
            roots = [
                Fraction(int(rng.integers(-40, 60)), int(rng.integers(1, 10)))
                for _ in range(n)
            ]
            lead = Fraction(int(rng.integers(1, 20)), int(rng.integers(1, 10)))
            if rng.random() < 0.5:
                lead = -lead
            p = from_roots(roots, lead)
            lower = Fraction(int(rng.integers(0, 5)), int(rng.integers(1, 4)))
            expected = len({r for r in roots if r > lower})
            assert count_roots_above(p, lower) == expected

    def test_agrees_with_bisection_sign_search(self, rng):
        # second oracle: brute rational-endpoint scan for sign changes; the
        # constructed roots are simple, so a grid finer than their minimum
        # separation finds every one of them
        for _ in range(60):
            n = int(rng.integers(1, 6))
            roots = sorted(
                {Fraction(int(rng.integers(-16, 48)), int(rng.integers(1, 8))) for _ in range(n)}
            )
            p = from_roots(roots)
            lower = Fraction(1)
            scan_hi = max(max(roots), lower) + 1  # no sign changes beyond the top root
            step = Fraction(1, 64)
            crossings = 0
            x = lower
            prev = evaluate(p, x)
            while x < scan_hi:
                x += step
                value = evaluate(p, x)
                if prev != 0 and value != 0 and (prev > 0) != (value > 0):
                    crossings += 1
                if value != 0:
                    prev = value
            assert count_roots_above(p, lower) == crossings


class TestIsolation:
    def test_intervals_bracket_known_roots(self, rng):
        for _ in range(100):
            roots = sorted(
                {
                    Fraction(int(rng.integers(2, 120)), int(rng.integers(1, 8)))
                    for _ in range(int(rng.integers(1, 5)))
                }
            )
            p = from_roots(roots)
            got = isolate_roots_above(p, Fraction(1))
            inside = [r for r in roots if r > 1]
            assert len(got) == len(inside)
            for (lo, hi), root in zip(got, inside):
                assert lo <= root <= hi
                # exactly one sign change or a touching value at the endpoint
                assert evaluate(p, lo) == 0 or evaluate(p, hi) == 0 or (
                    (evaluate(p, lo) > 0) != (evaluate(p, hi) > 0)
                )

    def test_no_roots_gives_empty(self):
        p = make_poly([1, 0, 1])  # t^2 + 1
        assert isolate_roots_above(p, Fraction(1)) == []
