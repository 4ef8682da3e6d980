"""Sturm-chain root counting against polynomials with known factorizations."""

from fractions import Fraction

import numpy as np
import pytest

from tiltbound import rootisolation
from tiltbound.rootisolation import (
    count_roots_above,
    evaluate,
    isolate_roots_above,
    make_poly,
    prem,
    root_magnitude_bound,
    square_free_part,
    sturm_chain,
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
    """a mod b by long division over the rationals: the reference for prem."""
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


def positive_multiple(p, q):
    """Whether p = c q for a rational c > 0."""
    if len(p) != len(q):
        return False
    c = Fraction(p[-1]) / q[-1]
    return c > 0 and all(a == c * b for a, b in zip(p, q))


class TestBasics:
    def test_pseudo_remainder(self):
        # 1 + t - t^2 = (1 - 2t)(-1/4 + t/2) + 5/4, and lc(b)^2 = 4
        assert prem(make_poly([1, 1, -1]), make_poly([1, -2])) == (5,)
        # t^3 = (1 - t^2)(-t) + t: the second step removes a leading 0 and
        # still multiplies by lc(b) = -1, so the power is (-1)^2
        assert prem(make_poly([0, 0, 0, 1]), make_poly([1, 0, -1])) == (0, 1)

    def test_pseudo_remainder_matches_rational_division(self, rng):
        for _ in range(200):
            a = make_poly([int(x) for x in rng.integers(-9, 10, size=int(rng.integers(1, 8)))])
            b = make_poly([int(x) for x in rng.integers(-9, 10, size=int(rng.integers(1, 5)))])
            if not b or len(b) > len(a):
                continue
            power = b[-1] ** (len(a) - len(b) + 1)
            assert prem(a, b) == make_poly([power * c for c in fraction_rem(a, b)])

    def test_square_free_part(self):
        squared = _mul(from_roots([2, 2]), from_roots([3]))
        assert square_free_part(squared) == from_roots([2, 3])

    def test_cauchy_bound_dominates_roots(self):
        p = from_roots([Fraction(7, 2), -5, Fraction(1, 3)])
        bound = root_magnitude_bound(p)
        assert bound > 5

    def test_chain_ends_in_constant(self):
        chain = sturm_chain(from_roots([1, 2, 3]))
        assert len(chain[-1]) == 1

    def test_chain_is_the_rational_chain_up_to_positive_factors(self, rng):
        # negative and rational leads, and zero coefficients that make the
        # remainder sequence skip degrees, against the textbook chain
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
                continue  # not square-free: the chain is of p / gcd(p, p')
            chain = sturm_chain(p)
            assert all(type(c) is int for q in chain for c in q)
            assert len(chain) == len(reference)
            assert all(positive_multiple(q, r) for q, r in zip(chain, reference))


class TestCounting:
    def test_linear(self):
        assert count_roots_above(make_poly([-1, 1]), Fraction(1)) == 0  # root at 1 excluded
        assert count_roots_above(make_poly([-2, 1]), Fraction(1)) == 1

    def test_golden_ratio_quadratic(self):
        p = make_poly([1, 1, -1])  # roots (1 +- sqrt 5)/2
        assert count_roots_above(p, Fraction(1)) == 1

    def test_depressed_cubic(self):
        p = make_poly([0, -3, 0, 1])  # roots 0, +-sqrt(3)
        assert count_roots_above(p, Fraction(1)) == 1
        assert count_roots_above(p, Fraction(9, 5)) == 0

    def test_repeated_roots_counted_once(self):
        p = _mul(from_roots([2, 2]), from_roots([2]))
        assert count_roots_above(p, Fraction(1)) == 1

    def test_negative_leads_and_skipped_degrees(self):
        quartic = make_poly([2, 0, 0, 0, -1])  # -t^4 + 2, roots +-2^(1/4)
        assert [count_roots_above(quartic, x) for x in (-2, 0, 1, 2)] == [2, 1, 1, 0]
        cubic = from_roots([2, 2, 3], Fraction(-3, 7))  # -(3/7)(t - 2)^2 (t - 3)
        assert square_free_part(cubic) == make_poly([-6, 5, -1])
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

    def test_builds_the_sturm_chain_once(self, monkeypatch):
        calls = []

        def counted(p):
            calls.append(p)
            return sturm_chain(p)

        monkeypatch.setattr(rootisolation, "sturm_chain", counted)
        for roots, inside in (([2, 3, 5], 3), ([Fraction(1, 2)], 0)):
            calls.clear()
            assert len(isolate_roots_above(from_roots(roots), Fraction(1))) == inside
            assert len(calls) == 1
