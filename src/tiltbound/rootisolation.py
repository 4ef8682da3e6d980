"""Exact real-root counting for rational polynomials via Sturm chains.

Polynomials are tuples of Fractions in ascending degree order.  Everything
here is exact: the counts returned are theorems about the polynomial, not
numerical estimates.  Used by the prover's base case to certify that a
polynomial in t has no root on an open interval (a, oo), which pins its sign
there.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

Poly = tuple[Fraction, ...]


def make_poly(coeffs: Sequence) -> Poly:
    """Build a trimmed ascending-coefficient polynomial from any rationals."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p: Poly) -> int:
    return len(p) - 1


def evaluate(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_derivative(p: Poly) -> Poly:
    return tuple(c * i for i, c in enumerate(p) if i)


def _scale(p: Poly, s: Fraction) -> Poly:
    return tuple(c * s for c in p)


def positive_content(p: Poly) -> Fraction:
    """Positive rational by which dividing makes coefficients coprime ints."""
    denom_lcm = 1
    for c in p:
        g = gcd(denom_lcm, c.denominator)
        denom_lcm = denom_lcm * c.denominator // g
    numer_gcd = 0
    for c in p:
        numer_gcd = gcd(numer_gcd, abs(c.numerator * (denom_lcm // c.denominator)))
    return Fraction(numer_gcd, denom_lcm)


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    r = list(a)
    db = degree(b)
    lead = b[-1]
    while len(r) - 1 >= db and any(r):
        dr = len(r) - 1
        while dr >= 0 and r[dr] == 0:
            dr -= 1
        if dr < db:
            break
        factor = r[dr] / lead
        shift = dr - db
        q[shift] = factor
        for i, c in enumerate(b):
            r[shift + i] -= factor * c
    return make_poly(q), make_poly(r)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    a, b = make_poly(a), make_poly(b)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
        if a:
            content = positive_content(a)
            if content:
                a = _scale(a, 1 / content)
    if a and a[-1] < 0:
        a = _scale(a, Fraction(-1))
    return a


def square_free_part(p: Poly) -> Poly:
    p = make_poly(p)
    if degree(p) < 1:
        return p
    g = poly_gcd(p, poly_derivative(p))
    if degree(g) < 1:
        return p
    q, r = poly_divmod(p, g)
    assert not r, "gcd must divide the polynomial exactly"
    return q


def sturm_chain(p: Poly) -> list[Poly]:
    """Sturm chain of the square-free part of p.

    Each remainder is rescaled by a positive rational to keep coefficients
    small; positive scaling never changes sign variation counts.
    """
    p = square_free_part(p)
    chain = [p, poly_derivative(p)]
    while chain[-1]:
        _, r = poly_divmod(chain[-2], chain[-1])
        r = tuple(-c for c in r)
        if r:
            content = positive_content(r)
            if content:
                r = _scale(r, 1 / content)
        chain.append(r)
    chain.pop()
    return chain


def _variations(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)


def variations_at(chain: Sequence[Poly], x: Fraction) -> int:
    return _variations(evaluate(p, x) for p in chain)


def variations_at_infinity(chain: Sequence[Poly]) -> int:
    return _variations(p[-1] for p in chain if p)


def count_roots_above(p: Poly, lower: Fraction) -> int:
    """Number of distinct real roots of p in the open interval (lower, oo)."""
    p = make_poly(p)
    if degree(p) < 1:
        return 0
    chain = sturm_chain(p)
    return variations_at(chain, lower) - variations_at_infinity(chain)


def root_magnitude_bound(p: Poly) -> Fraction:
    """Cauchy bound: every real root lies in (-B, B)."""
    p = make_poly(p)
    if degree(p) < 1:
        return Fraction(1)
    lead = abs(p[-1])
    return 1 + max(abs(c) / lead for c in p[:-1])


def isolate_roots_above(p: Poly, lower: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Disjoint open intervals in (lower, oo) each containing one root of p.

    Intervals are half-open on the left in the Sturm sense; endpoints are
    exact rationals.  A diagnostic: it locates the roots that keep a base
    case from a verdict.
    """
    p = make_poly(p)
    total = count_roots_above(p, lower)
    if total == 0:
        return []
    chain = sturm_chain(p)
    upper = root_magnitude_bound(p)
    if upper <= lower:
        upper = lower + 1

    def count_between(a: Fraction, b: Fraction) -> int:
        return variations_at(chain, a) - variations_at(chain, b)

    intervals: list[tuple[Fraction, Fraction]] = []
    stack = [(lower, upper, total)]
    while stack:
        a, b, n = stack.pop()
        if n == 0:
            continue
        if n == 1:
            intervals.append((a, b))
            continue
        mid = (a + b) / 2
        left = count_between(a, mid)
        stack.append((mid, b, n - left))
        stack.append((a, mid, left))
    intervals.sort()
    return intervals
