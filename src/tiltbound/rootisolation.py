"""Exact real-root counting on t > 1 for integer polynomials by Descartes' rule of signs.

A polynomial is a tuple of ints in ascending degree order; its one caller is
the prover's base case, which passes the primitive integer polynomial q(t) of
the last step of a derivative chain and needs to know that q has no root on
t = e^w > 1, which pins its sign there.  Everything here is exact: the counts
returned are theorems about the polynomial, not numerical estimates.  One
routine, Vincent-Collins-Akritas bisection by Moebius transforms (Collins &
Akritas 1976; Rouillier & Zimmermann 2004), covers (1, oo) with leaves: it
moves the interval to (0, oo) by the integer Taylor shift t = 1 + x and
reads the sign variations of the coefficients, computing with ints alone.
A coefficient that is not an int raises TypeError.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .exppoly import Scalar, exact

Poly = tuple[int, ...]

# The splits of one root count may cost at most this much work.  A node q that
# splits charges len(q) times the sum over its coefficients of their bits plus
# 1,024, in proportion to the time of its two Taylor shifts: each coefficient
# is added about len(q) times, and an addition costs about as much as 1,024 bits.
# It also charges NODE_WORK for the interpreter's fixed cost of a node, which
# dominates a small q: a quartic stops after a few hundred splits, not thousands.
MAX_WORK = 2**26
NODE_WORK = 2**17


def make_poly(coeffs: Sequence[int]) -> Poly:
    """The ascending int coefficients as a tuple, trailing zeros trimmed."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def evaluate(p: Poly, x: Scalar) -> Scalar:
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def primitive(cs: Sequence[int]) -> tuple[int, ...]:
    """cs divided by their content, so coprime; cs is empty or not all 0, and ints only.

    The content is ``gcd`` of the coefficients, the one content of the exact
    kernels: :func:`~.exppoly.normalize` divides by the same ``gcd``.
    """
    g = gcd(*cs)
    return tuple(cs) if g == 1 else tuple(c // g for c in cs)


def _shift(p: Sequence[int], a: int) -> list[int]:
    """The coefficients of p(x + a), by the O(n^2) Taylor shift."""
    cs = list(p)
    for i in range(len(cs) - 1):
        for j in range(len(cs) - 2, i - 1, -1):
            cs[j] += a * cs[j + 1]
    return cs


def _variations(values) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)


def _leaves(p: Poly) -> list[tuple[int, int, int, int]]:
    """One Moebius map (a, b, c, d) per distinct real root of p on (1, oo).

    A node is q(x), x > 0, with t = (a x + b) / (c x + d), so its root lies
    between b/d and a/c (oo when c = 0).  With 0 sign variations q has no
    root on x > 0, with 1 it has one simple root there.  With more the node
    splits at x = s, after dividing out a root at s (a leaf with both ends
    at it): into q(s + x) on the right, where s doubles, and into
    (1 + x)^n q(s / (1 + x)) on the left, where s is 1 again.  A run of right
    children passes every root in O(log) splits.  A rational root r is met
    as a split point, so a repeated one is counted once: if r + 1 = m/n in
    lowest terms at the start of a run, the left child that ends the run (at
    s = 2^k) makes r + 1 = 2^k n / (m - 2^k n), whose numerator plus
    denominator is at most m < m + n.

    Raises ArithmeticError when the splits pass ``MAX_WORK``, as they do
    near an irrational multiple root, whose variations never fall to 1.
    """
    leaves, work = [], 0
    stack = [(primitive(_shift(make_poly(p), 1)), 1, (1, 1, 0, 1))]  # p(1 + x)
    while stack:
        q, s, (a, b, c, d) = stack.pop()
        count = _variations(q)
        if count == 1:
            leaves.append((a, b, c, d))
        if count < 2:
            continue
        work += NODE_WORK + len(q) * sum(coeff.bit_length() + 1024 for coeff in q)
        if work > MAX_WORK:
            raise ArithmeticError(f"the root count took over {MAX_WORK} units of work")
        if evaluate(q, s) == 0:
            leaves.append((a * s + b,) * 2 + (c * s + d,) * 2)
            while evaluate(q, s) == 0:  # divide by (x - s), by Horner's scheme
                quotient = [q[-1]]
                for coeff in q[-2:0:-1]:
                    quotient.append(coeff + s * quotient[-1])
                q = tuple(reversed(quotient))
        flipped = [coeff * s**i for i, coeff in enumerate(q)][::-1]  # x^n q(s / x)
        stack.append((primitive(_shift(flipped, 1)), 1, (b, a * s + b, d, c * s + d)))
        stack.append((primitive(_shift(q, s)), 2 * s, (a, a * s + b, c, c * s + d)))
    return leaves


def count_roots_above(p: Poly) -> int:
    """Number of distinct real roots of the int polynomial p on t > 1.

    The prover's base case calls it with the primitive integer polynomial of
    the last step of a chain.  Raises ArithmeticError when the bisection does
    not resolve the roots (see ``_leaves``), and TypeError on a coefficient
    that is not an int.
    """
    return len(_leaves(p))


def isolate_roots_above(p: Poly) -> list[tuple[Scalar, Scalar]]:
    """Sorted intervals (lo, hi) in (1, oo), each holding one root of the int polynomial p.

    The leaves :func:`count_roots_above` counts: an open interval with
    exact rational ends, or (r, r) for a rational root r met as a split
    point.  The unbounded right end is closed by the Cauchy bound
    1 + max|c_i|/|c_n| over the lower coefficients c_i of p, which every
    real root lies below; a leaf has a root, so p has degree 1 or more.
    A diagnostic that locates the roots keeping a base case from a verdict;
    nothing in the package calls it, and ``bench/tracing.py`` wraps it by name.
    """
    p = make_poly(p)

    def at(num: int, den: int) -> Scalar:  # den 0 is the right end at infinity
        return exact(Fraction(num) / den if den else 1 + Fraction(max(map(abs, p[:-1])), abs(p[-1])))

    return sorted(tuple(sorted((at(b, d), at(a, c)))) for a, b, c, d in _leaves(p))
