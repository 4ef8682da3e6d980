"""Exact real-root counting for rational polynomials via Sturm chains.

Polynomials are tuples of ints (Fractions where not integral) in ascending
degree order.  Everything here is exact: the counts returned are theorems
about the polynomial, not numerical estimates.  The Sturm chain clears
denominators once and runs a primitive pseudo-remainder sequence over the
integers (Brown 1971).  Used by the prover's base case to certify that a
polynomial in t has no root on an open interval (a, oo), which pins its
sign there.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence, Union

Scalar = Union[int, Fraction]
Poly = tuple[Scalar, ...]


def exact(value: Scalar) -> Scalar:
    """The canonical form of a rational: an int when it is integral."""
    return value.numerator if value.denominator == 1 else value


def make_poly(coeffs: Sequence) -> Poly:
    """Build a trimmed ascending-coefficient polynomial from any rationals."""
    cs = [c if type(c) is int else exact(Fraction(c)) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def evaluate(p: Poly, x: Scalar) -> Scalar:
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_derivative(p: Poly) -> Poly:
    return tuple(c * i for i, c in enumerate(p) if i)


def primitive(cs: Sequence[Scalar]) -> tuple[int, ...]:
    """cs times the positive rational that makes them coprime integers.

    The one content routine of the exact kernels; cs is empty or not all 0.
    """
    den = lcm(*(c.denominator for c in cs if type(c) is not int))
    if den != 1:
        cs = [c.numerator * (den // c.denominator) for c in cs]
    g = gcd(*cs)
    return tuple(cs) if g == 1 else tuple(c // g for c in cs)


def prem(a: Poly, b: Poly) -> Poly:
    """The pseudo-remainder lc(b)^(deg a - deg b + 1) * (a mod b) of integer a, b.

    Each of the deg a - deg b + 1 steps multiplies by lc(b), also when the
    leading term it removes is already 0, so the power is exact.
    """
    r, low, lead = list(a), b[:-1], b[-1]
    for shift in range(len(a) - len(b), -1, -1):
        top = r.pop()
        r = [lead * c for c in r]
        if top:
            for i, c in enumerate(low):
                r[shift + i] -= top * c
    while r and r[-1] == 0:
        r.pop()
    return tuple(r)


def _remainders(p: Poly) -> list[Poly]:
    """The Sturm sequence p, p', -rem, ... of a primitive integer p, each member primitive.

    prem(a, b) is lc(b)^e * rem(a, b) with e = deg a - deg b + 1, so the next
    member -rem(a, b), up to a positive factor, is -prem unless lc(b)^e < 0.
    The last member is gcd(p, p') up to a constant factor.
    """
    chain, b = [p], primitive(poly_derivative(p))
    while b:
        a = chain[-1]
        chain.append(b)
        r = prem(a, b)
        if not r:
            break
        r = primitive(r)
        b = r if b[-1] < 0 and (len(a) - len(b)) % 2 == 0 else tuple(-c for c in r)
    return chain


def _quotient(a: Poly, b: Poly) -> Poly:
    """a / b over the integers, for an integer b that divides a."""
    q, r = [0] * (len(a) - len(b) + 1), list(a)
    for shift in range(len(q) - 1, -1, -1):
        q[shift], rest = divmod(r[shift + len(b) - 1], b[-1])
        if rest:
            raise ArithmeticError("the divisor does not divide the polynomial")
        for i, c in enumerate(b):
            r[shift + i] -= q[shift] * c
    return tuple(q)


def sturm_chain(p: Poly) -> list[Poly]:
    """Sturm chain of the square-free part of p, as primitive integer polynomials.

    The chain of p itself ends in g = gcd(p, p'); when g is not constant the
    chain is rerun on p / g, an exact integer division by Gauss's lemma.
    Positive factors never change sign variation counts.
    """
    p = primitive(make_poly(p))
    chain = _remainders(p) if p else []
    if chain and len(chain[-1]) > 1:
        g = chain[-1]
        chain = _remainders(_quotient(p, g if g[-1] > 0 else tuple(-c for c in g)))
    return chain


def _variations(values) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)


def variations_at(chain: Sequence[Poly], x: Scalar) -> int:
    return _variations(evaluate(p, x) for p in chain)


def count_roots_above(p: Poly, lower: Scalar) -> int:
    """Number of distinct real roots of p in the open interval (lower, oo)."""
    chain = sturm_chain(p)
    return variations_at(chain, lower) - _variations(q[-1] for q in chain)


def root_magnitude_bound(p: Poly) -> Scalar:
    """Cauchy bound: every real root lies in (-B, B)."""
    p = make_poly(p)
    if len(p) < 2:
        return 1
    p = primitive(p)
    return exact(1 + Fraction(max(abs(c) for c in p[:-1]), abs(p[-1])))


def isolate_roots_above(p: Poly, lower: Scalar) -> list[tuple[Scalar, Scalar]]:
    """Disjoint open intervals in (lower, oo) each containing one root of p.

    Intervals are half-open on the left in the Sturm sense; endpoints are
    exact rationals.  A diagnostic that locates the roots keeping a base
    case from a verdict; nothing in the package calls it.
    """
    chain = sturm_chain(p)
    total = variations_at(chain, lower) - _variations(q[-1] for q in chain)  # count_roots_above
    upper = max(root_magnitude_bound(p), lower + 1)
    intervals: list[tuple[Scalar, Scalar]] = []
    stack = [(lower, upper, total)]
    while stack:
        a, b, n = stack.pop()
        if n == 1:
            intervals.append((a, b))
        elif n:
            mid = exact(Fraction(a + b) / 2)
            left = variations_at(chain, a) - variations_at(chain, mid)
            stack += [(mid, b, n - left), (a, mid, left)]
    intervals.sort()
    return intervals
