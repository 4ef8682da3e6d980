"""Descartes root counting on t > 1 against textbook Sturm chains and known factorizations.

The counter reads the prover's input, an int polynomial, so each oracle
builds its polynomial over the rationals and scales it by the lcm of its
denominators, which keeps its roots.
"""

from fractions import Fraction
from math import lcm

import pytest

from tiltbound import rootisolation
from tiltbound.rootisolation import (
    MAX_WORK,
    NODE_WORK,
    count_roots_above,
    evaluate,
    isolate_roots_above,
    make_poly,
)


def integral(coeffs):
    """The rational coefficients times the lcm of their denominators: an int polynomial."""
    coeffs = [Fraction(c) for c in coeffs]
    den = lcm(*(c.denominator for c in coeffs))
    return make_poly([int(c * den) for c in coeffs])


def from_roots(roots, lead=1):
    p = [Fraction(lead)]
    for r in roots:
        p = _mul(p, [-Fraction(r), Fraction(1)])
    return integral(p)


def _mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def fraction_rem(a, b):
    """a mod b by long division over the rationals."""
    r = [Fraction(c) for c in a]
    while len(r) >= len(b) and any(r):
        factor, shift = r[-1] / b[-1], len(r) - len(b)
        for i, c in enumerate(b):
            r[shift + i] -= factor * c
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return r


def fraction_sturm_chain(p):
    """The textbook chain p, p', -rem(p, p'), ... over the rationals."""
    chain = [list(p), [c * i for i, c in enumerate(p) if i]]
    while chain[-1]:
        chain.append([-c for c in fraction_rem(chain[-2], chain[-1])])
    return chain[:-1]


def sturm_count_above_one(chain):
    """Sturm's theorem: the distinct roots of a square-free chain[0] on (1, oo)."""

    def variations(values):
        signs = [v > 0 for v in values if v != 0]
        return sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)

    return variations(evaluate(q, 1) for q in chain) - variations(q[-1] for q in chain)


class TestBasics:
    def test_cauchy_bound_dominates_roots(self):
        # the one root above 1 lies in the first leaf, whose right end is
        # closed by the Cauchy bound 1 + max|c_i|/|c_n|, above every root
        for p, roots, bound in (
            ((35, -108, 7, 6), (Fraction(7, 2), -5, Fraction(1, 3)), 19),  # 1 + 108/6
            ((-5, 0, 2), (), Fraction(7, 2)),  # 2t^2 - 5: irrational roots +-sqrt(5/2)
            ((7, -9, 2), (1, Fraction(7, 2)), Fraction(11, 2)),
        ):
            assert bound == 1 + Fraction(max(map(abs, p[:-1])), abs(p[-1]))
            assert all(evaluate(p, r) == 0 and abs(r) < bound for r in roots)
            assert isolate_roots_above(p) == [(1, bound)]

    def test_chain_is_the_rational_chain_up_to_positive_factors(self, rng):
        # the count against the textbook rational Sturm chain: negative leads,
        # zero coefficients that make the remainder sequence skip degrees, and
        # complex roots, which no constructed factorization has
        for _ in range(600):
            size = int(rng.integers(2, 8))
            p = integral(
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
            assert count_roots_above(p) == sturm_count_above_one(reference)

    @pytest.mark.parametrize(
        "p",
        [(Fraction(-3, 2), 1), (Fraction(-2), 1), (-2.0, 1), (-2, 1.0)],
        ids=["fraction", "integral-fraction", "float", "float-lead"],
    )
    def test_a_coefficient_that_is_not_an_int_raises(self, p):
        # the prover passes ints; a rational or float is no input of the counter
        with pytest.raises(TypeError):
            count_roots_above(p)
        with pytest.raises(TypeError):
            isolate_roots_above(p)


class TestCounting:
    def test_linear(self):
        assert count_roots_above((-1, 1)) == 0  # root at 1 excluded
        assert count_roots_above((-2, 1)) == 1

    def test_golden_ratio_quadratic(self):
        p = (1, 1, -1)  # roots (1 +- sqrt 5)/2
        assert count_roots_above(p) == 1
        # quadratics far from 1 or with close roots, which the count must split to settle
        for p, count in (
            ((1000001, -2000, 1), 0),  # (t - 1000)^2 + 1: a far complex pair
            ((10**6 + 1, -2 * 10**6, 10**6), 0),  # (t - 1)^2 + 10^-6
            ((5, -4, 1), 0),  # (t - 2)^2 + 1: q(1 + x) = x^2 - 2x + 2 splits once
            (from_roots([1000, 1001]), 2),  # two far roots one apart
        ):
            assert count_roots_above(p) == count

    def test_depressed_cubic(self):
        assert count_roots_above((0, -3, 0, 1)) == 1  # roots 0, +-sqrt(3)
        # t^3 - 3t at 9t/5, times 125: the root sqrt 3 moves to 5 sqrt(3) / 9 < 1
        assert count_roots_above((0, -675, 0, 729)) == 0

    def test_repeated_roots_counted_once(self):
        p = integral(_mul(from_roots([2, 2]), from_roots([2])))
        assert count_roots_above(p) == 1
        # (3t - 7)^2 (t - 5): a double root that is not dyadic, met as a split point
        p = integral(_mul(from_roots([Fraction(7, 3)] * 2, 9), from_roots([5])))
        assert count_roots_above(p) == 2
        # right children that scaled, q(s(1 + x)), would cycle around 16 = 1 + 15
        assert count_roots_above(from_roots([16, 16, 20])) == 2

    def test_unresolved_multiple_root_raises(self):
        # (t^2 - 2t - 1)^2: the double root 1 + sqrt 2 is no split point, and
        # the variations around it never fall below 2
        p = integral(_mul([-1, -2, 1], [-1, -2, 1]))
        with pytest.raises(ArithmeticError, match=f"over {MAX_WORK} units of work"):
            count_roots_above(p)

    def test_every_split_pays_the_node_charge(self, monkeypatch):
        # the unresolved quartic's nodes are cheap to shift but not to visit:
        # NODE_WORK stops it after 428 splits, where the shifts alone allowed 2,612
        shifts = []
        shift = rootisolation._shift
        monkeypatch.setattr(rootisolation, "_shift", lambda p, a: shifts.append(a) or shift(p, a))
        p = integral(_mul([-1, -2, 1], [-1, -2, 1]))
        with pytest.raises(ArithmeticError):
            count_roots_above(p)
        splits = (len(shifts) - 1) // 2  # the root node's shift, then two per split
        assert 0 < splits <= MAX_WORK // NODE_WORK

    def test_negative_leads_and_skipped_degrees(self):
        quartics = [
            (2, 0, 0, 0, -1),  # -t^4 + 2, roots +-2^(1/4)
            (1, 0, 0, 0, -2),  # -2t^4 + 1, roots +-2^(-1/4)
            (-36, 0, 13, 0, -1),  # -(t^2 - 4)(t^2 - 9)
        ]
        assert [count_roots_above(p) for p in quartics] == [1, 0, 2]
        cubics = [
            from_roots([2, 2, 3], Fraction(-3, 7)),  # -(3/7)(t - 2)^2 (t - 3)
            from_roots([1, 1, 2], -3),  # a double root at 1, which is excluded
            from_roots([Fraction(1, 2)] * 2 + [Fraction(3, 2)], Fraction(-3, 7)),
        ]
        assert [count_roots_above(p) for p in cubics] == [2, 1, 1]

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
            expected = len({r for r in roots if r > 1})
            assert count_roots_above(p) == expected

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
            scan_hi = max(max(roots), 1) + 1  # no sign changes beyond the top root
            step = Fraction(1, 64)
            crossings = 0
            x = Fraction(1)
            prev = evaluate(p, x)
            while x < scan_hi:
                x += step
                value = evaluate(p, x)
                if prev != 0 and value != 0 and (prev > 0) != (value > 0):
                    crossings += 1
                if value != 0:
                    prev = value
            assert count_roots_above(p) == crossings


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
            got = isolate_roots_above(p)
            inside = [r for r in roots if r > 1]
            assert len(got) == len(inside)
            for (lo, hi), root in zip(got, inside):
                assert lo <= root <= hi
                # exactly one sign change or a touching value at the endpoint
                assert evaluate(p, lo) == 0 or evaluate(p, hi) == 0 or (
                    (evaluate(p, lo) > 0) != (evaluate(p, hi) > 0)
                )

    def test_no_roots_gives_empty(self):
        assert isolate_roots_above((1, 0, 1)) == []  # t^2 + 1
