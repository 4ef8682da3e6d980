"""Exact bivariate polynomials P(w, t) with t standing for exp(w).

Every inequality handled by the prover has the shape ``P(w, e^w) < 0`` (or
``> 0``) on w in (0, oo) for a polynomial P with rational coefficients.  This
module supplies the exact-arithmetic polynomial type, a small ASCII text
grammar for entering such expressions (parsed in integer arithmetic over one
denominator per subexpression, with fixed caps on what a text builds),
symbolic differentiation with respect to w (where d/dw t = t), the
sign-preserving normal form used by the prover, and the "num/den" text of
the rationals in a certificate.  :class:`ExpPoly` shares its arithmetic and
derivative rule (:class:`SparsePoly`) with :class:`tiltbound.identities.Laurent`.

A coefficient is an ``int``, or a :class:`fractions.Fraction` when it is not
integral (never ``Fraction(n, 1)``); :func:`normalize` makes all of them ints
and :func:`derivative` keeps them so.  Floats are rejected so that
certificates replay bit for bit.
"""

from __future__ import annotations

import math
import re
import string
from fractions import Fraction
from operator import add
from typing import Iterator, Mapping

from .rootisolation import Scalar, exact, primitive


class SparsePoly:
    """Sum of monomials c * x^key with int-tuple keys and exact c, immutable by convention.

    The arithmetic and derivative rule of :class:`ExpPoly` and :class:`~.identities.Laurent`.
    ``_ONE`` is the key of 1.  An operand of ``+ - *`` is the same type or a scalar
    that ``_scalar`` takes; anything else, the other kernel included, raises TypeError.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, ...], Scalar]):
        self._terms = self._of(terms)._terms

    @classmethod
    def _of(cls, terms: Mapping[tuple[int, ...], Scalar]):
        """The result of exact arithmetic on coefficients: drop zeros, make ints canonical."""
        p = cls.__new__(cls)
        p._terms = {key: c if type(c) is int else exact(c) for key, c in terms.items() if c}
        return p

    @staticmethod
    def _scalar(value) -> Scalar | None:
        """The coefficient a scalar operand stands for, None if not a scalar: an int or Fraction."""
        return value if isinstance(value, (int, Fraction)) else None

    @classmethod
    def constant(cls, value):
        if (c := cls._scalar(value)) is None:
            raise TypeError(f"exact scalar required, got {type(value).__name__}")
        return cls._of({cls._ONE: c})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other):
        if type(other) is not type(self):
            if (c := self._scalar(other)) is None:
                return NotImplemented
            other = self._of({self._ONE: c})
        terms = dict(self._terms)
        for key, c in other._terms.items():
            terms[key] = terms.get(key, 0) + c
        return self._of(terms)

    __radd__ = __add__

    def __neg__(self):
        return self._of({key: -c for key, c in self._terms.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is not type(self):
            if (c := self._scalar(other)) is None:
                return NotImplemented
            return self._of({key: x * c for key, x in self._terms.items()})
        terms: dict[tuple[int, ...], Scalar] = {}
        for a, x in self._terms.items():
            for b, y in other._terms.items():
                key = tuple(map(add, a, b))
                terms[key] = terms.get(key, 0) + x * y
        return self._of(terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self._of({self._ONE: 1})
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        return self._terms == other._terms if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(sorted(self._terms.items())))

    def _diff(self, power_axis: int, rate_axis: int):
        """d/dx: x^a e^(r x) -> (a/x + r) x^a e^(r x), a = key[power_axis], r = key[rate_axis]."""
        terms: dict[tuple[int, ...], Scalar] = {}
        for key, c in self._terms.items():
            power, rate = key[power_axis], key[rate_axis]
            if power:
                lowered = list(key)
                lowered[power_axis] = power - 1
                lowered = tuple(lowered)
                terms[lowered] = terms.get(lowered, 0) + power * c
            if rate:
                terms[key] = terms.get(key, 0) + rate * c
        return self._of(terms)


class ExpPoly(SparsePoly):
    """Sum of monomials c * w^i * t^k with exact rational c, an int when integral.

    Negative t-degrees are permitted (they arise from sinh/cosh expansions)
    until :func:`normalize` clears them.  A scalar operand is an int or a
    Fraction; a float raises TypeError.
    """

    __slots__ = ()
    _ONE = (0, 0)

    def __init__(self, terms: Mapping[tuple[int, int], Scalar] | None = None):
        self._terms: dict[tuple[int, int], Scalar] = {}
        for (i, k), c in (terms or {}).items():
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"exact coefficient required, got {type(c).__name__}")
            if c:
                self._terms[(int(i), int(k))] = exact(c)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "ExpPoly":
        return cls()

    @classmethod
    def monomial(cls, coeff: Scalar, w_deg: int, t_deg: int) -> "ExpPoly":
        return cls({(w_deg, t_deg): coeff})

    # -- inspection --------------------------------------------------------

    @property
    def w_degree(self) -> int:
        """Highest power of w; -1 for the zero polynomial."""
        return max((i for i, _ in self._terms), default=-1)

    @property
    def t_degrees(self) -> tuple[int, int]:
        """(min, max) power of t; (0, 0) for the zero polynomial."""
        ks = [k for _, k in self._terms] or [0]
        return (min(ks), max(ks))

    def coeff(self, w_deg: int, t_deg: int) -> Scalar:
        return self._terms.get((w_deg, t_deg), 0)

    def terms(self) -> Iterator[tuple[int, int, Scalar]]:
        """Yield (w_deg, t_deg, coeff) in canonical (w, t) order."""
        for (i, k) in sorted(self._terms):
            yield i, k, self._terms[(i, k)]

    def eval_at_zero(self) -> Scalar:
        """Exact value of P(w, e^w) at w = 0, i.e. P(0, 1)."""
        return exact(sum(c for (i, _), c in self._terms.items() if i == 0))

    def evaluate(self, w: float) -> float:
        """Floating-point value of P(w, e^w).  May overflow for large w."""
        t = math.exp(w)
        total = 0.0
        for (i, k), c in self._terms.items():
            total += float(c) * w**i * t**k
        return total

    def __repr__(self) -> str:
        if self.is_zero:
            return "ExpPoly(0)"
        parts = []
        for i, k, c in self.terms():
            piece = str(c)
            if i:
                piece += f"*w^{i}" if i > 1 else "*w"
            if k:
                piece += f"*t^{k}" if k != 1 else "*t"
            parts.append(piece)
        return "ExpPoly(" + " + ".join(parts) + ")"

    # -- serialization -----------------------------------------------------

    def to_term_list(self) -> list[list]:
        """Canonical [[w_deg, t_deg, "num/den"], ...] representation."""
        return [[i, k, rational_str(c)] for i, k, c in self.terms()]

    @classmethod
    def from_term_list(cls, data) -> "ExpPoly":
        """Inverse of :meth:`to_term_list`: int degrees and rational strings only."""
        terms = {}
        for i, k, c in data:
            if type(i) is not int or type(k) is not int:
                raise TypeError(f"term {[i, k, c]!r} needs int degrees and a rational string")
            terms[(i, k)] = parse_rational(c)
        return cls(terms)


def rational_str(q: Scalar) -> str:
    """The text "num/den" of a rational, the one form certificates store."""
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Scalar:
    """Inverse of :func:`rational_str`: a string only, never a float or an int."""
    if type(text) is not str:
        raise TypeError(f"rational {text!r} is not a string")
    return exact(Fraction(text))


W = ExpPoly.monomial(1, 1, 0)
T = ExpPoly.monomial(1, 0, 1)


def normalize(raw: ExpPoly) -> ExpPoly:
    """Sign-equivalent normal form on w in (0, oo).

    Multiplies through by a positive monomial so that the minimum t-degree
    and minimum w-degree are both zero, then rescales by a positive rational
    so the coefficients are coprime integers.  Both steps preserve the sign
    of P(w, e^w) pointwise since w > 0 and t = e^w > 0.

    Raises ValueError on the zero polynomial.
    """
    if raw.is_zero:
        raise ValueError("cannot normalize the zero polynomial")
    min_i = min(i for i, _ in raw._terms)
    min_k = min(k for _, k in raw._terms)
    keys = [(i - min_i, k - min_k) for i, k in raw._terms]
    return ExpPoly._of(dict(zip(keys, primitive(raw._terms.values()))))


def derivative(p: ExpPoly) -> ExpPoly:
    """Exact d/dw of P(w, t) under t = e^w.

    Each monomial c w^i t^k maps to c i w^(i-1) t^k + c k w^i t^k.
    """
    return p._diff(0, 1)


# ---------------------------------------------------------------------------
# Expression grammar
# ---------------------------------------------------------------------------
#
#   expr   := term (('+' | '-') term)*
#   term   := factor (('*' | '/') factor)*          division by constants only
#   factor := ('+' | '-') factor | power
#   power  := atom ('^' INTEGER)?
#   atom   := NUMBER | 'w' | FUNC '(' expr ')' | '(' expr ')'
#   FUNC   := 'exp' | 'sinh' | 'cosh'               argument must be n*w
#
# NUMBER is ASCII digits with an optional decimal part, [0-9]+(.[0-9]*)?, and
# INTEGER is ASCII digits alone; names are ASCII letters, blanks are ASCII
# whitespace, and any other character is a syntax error.
#
# The parser computes in ints.  A subexpression is a pair (terms, den): the
# polynomial sum(c w^i t^k for (i, k), c in terms) / den, with int c (zeros
# allowed) and int den > 0.  A decimal is its digits over a power of ten,
# dividing by the constant c/d scales by d and multiplies den by c, and sinh
# and cosh carry den 2.  Only the result gets Fractions, one for each
# coefficient that den does not divide.


class ExprSyntaxError(ValueError):
    """Raised when an expression string cannot be parsed."""


_TOKEN = re.compile(r"[0-9]+(?:\.[0-9]*)?|[A-Za-z]+|\S", re.ASCII)
_TOKEN_STARTS = frozenset(string.ascii_letters + string.digits + "+-*/^()")
_FUNCTIONS = ("exp", "sinh", "cosh")

_Value = tuple[dict[tuple[int, int], int], int]  # (int terms, den > 0)

# Caps on what one text builds, far above what the battery and the benchmark's
# claims need, so that no short text takes unbounded time or memory.
MAX_EXPONENT = 64  # of one '^'
MAX_POWER_BITS = 256  # the exponent times the bits of the base's largest int
MAX_DEGREE = 40  # i + |k| of each monomial w^i t^k of the result
MAX_PRODUCT = 4096  # term pairs multiplied out by one product


def _add(a: _Value, b: _Value, sign: int) -> _Value:
    """a + sign * b over the least common denominator."""
    (x, den), (y, yden) = a, b
    if den == yden:
        out = x.copy()
    else:
        g = math.gcd(den, yden)
        scale, sign = yden // g, sign * (den // g)
        out = {key: c * scale for key, c in x.items()}
        den *= scale
    for key, c in y.items():
        out[key] = out.get(key, 0) + sign * c
    return out, den


def _mul(a: _Value, b: _Value) -> _Value:
    (x, xden), (y, yden) = a, b
    if len(x) == 1 and (0, 0) in x:
        x, y = y, x
    if len(y) == 1 and (0, 0) in y:  # a constant factor scales the other
        c = y[0, 0]
        return {key: v * c for key, v in x.items()}, xden * yden
    if len(x) * len(y) > MAX_PRODUCT:
        raise ExprSyntaxError(f"a product of {len(x)} by {len(y)} terms: over {MAX_PRODUCT} pairs")
    out: dict[tuple[int, int], int] = {}
    for (i, k), u in x.items():
        for (j, m), v in y.items():
            key = (i + j, k + m)
            out[key] = out.get(key, 0) + u * v
    return out, xden * yden


def _power(base: _Value, n: int) -> _Value:
    terms, den = base
    if n > MAX_EXPONENT or n * max(den, *map(abs, terms.values())).bit_length() > MAX_POWER_BITS:
        raise ExprSyntaxError(f"^{n}: exponent over {MAX_EXPONENT} or over {MAX_POWER_BITS} bits")
    if len(terms) == 1:
        (((i, k), c),) = terms.items()
        return {(i * n, k * n): c**n}, den**n
    result: _Value = ({(0, 0): 1}, 1)
    while n:  # by squaring
        if n & 1:
            result = _mul(result, base)
        n >>= 1
        if n:
            base = _mul(base, base)
    return result


def _multiple(terms: dict[tuple[int, int], int], den: int, key: tuple[int, int]) -> int | None:
    """n when the terms over den are n times the monomial key for an int n, else None."""
    n = 0
    for other, c in terms.items():
        if c:
            if other != key or c % den:
                return None
            n = c // den
    return n


class _Descent:
    """Recursive descent over the tokens of one text; factor reads power and atom too."""

    def __init__(self, text: str):
        tokens = _TOKEN.findall(text)
        if not {tok[0] for tok in tokens} <= _TOKEN_STARTS:
            bad = next(m for m in _TOKEN.finditer(text) if m[0][0] not in _TOKEN_STARTS)
            raise ExprSyntaxError(f"unexpected character {bad[0]!r} at position {bad.start()}")
        self.tokens, self.pos = tokens + [""], 0  # "" ends the text

    def expect(self, tok: str) -> None:
        found = self.tokens[self.pos]
        self.pos += 1
        if found != tok:
            raise ExprSyntaxError(f"expected {tok!r}, found {found!r}")

    def expr(self) -> _Value:
        value = self.term()
        while (op := self.tokens[self.pos]) in ("+", "-"):
            self.pos += 1
            value = _add(value, self.term(), 1 if op == "+" else -1)
        return value

    def term(self) -> _Value:
        value = self.factor()
        while (op := self.tokens[self.pos]) in ("*", "/"):
            self.pos += 1
            rhs, d = self.factor()
            if op == "*":
                value = _mul(value, (rhs, d))
                continue
            c = _multiple(rhs, 1, (0, 0))  # c when rhs is the constant c/d
            if not c:
                raise ExprSyntaxError("division is only defined by nonzero constants")
            d = d if c > 0 else -d
            value = {key: x * d for key, x in value[0].items()}, value[1] * abs(c)
        return value

    def factor(self) -> _Value:
        tok = self.tokens[self.pos]
        self.pos += 1
        if tok == "-":
            terms, den = self.factor()
            return {key: -c for key, c in terms.items()}, den
        if tok == "+":
            return self.factor()
        if tok == "w":
            value = {(1, 0): 1}, 1
        elif tok[:1].isdigit():
            whole, _, decimals = tok.partition(".")
            value = {(0, 0): int(whole + decimals)}, 10 ** len(decimals)
        elif tok == "(":
            value = self.expr()
            self.expect(")")
        elif tok in _FUNCTIONS:
            self.expect("(")
            n = _multiple(*self.expr(), (1, 0))
            self.expect(")")
            if n is None:
                raise ExprSyntaxError(f"{tok}() argument must be an integer multiple of w")
            if tok == "exp":
                value = {(0, n): 1}, 1
            elif n == 0:  # sinh(0) = 0, cosh(0) = 1
                value = {(0, 0): int(tok == "cosh")}, 1
            else:
                value = {(0, n): 1, (0, -n): 1 if tok == "cosh" else -1}, 2
        elif tok[:1].isalpha():
            raise ExprSyntaxError(f"unknown name {tok!r}")
        else:
            raise ExprSyntaxError(f"unexpected token {tok!r}")
        if self.tokens[self.pos] != "^":
            return value
        exponent = self.tokens[self.pos + 1]
        self.pos += 2
        if not exponent.isdigit():
            raise ExprSyntaxError(f"exponent must be an integer, found {exponent!r}")
        return _power(value, int(exponent))


def parse_expression(text: str) -> ExpPoly:
    """Parse the expression grammar above into an ExpPoly.

    The only transcendental atoms are exp, sinh and cosh of integer multiples
    of w; everything else must be polynomial.  Raises ExprSyntaxError on any
    malformed input, on input nested deeper than the recursive descent can
    follow (such as 400 nested parentheses), and on input that builds past a
    cap above, such as ``(1+w+exp(w))^200``.
    """
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression")
    parser = _Descent(text)
    try:
        terms, den = parser.expr()
    except RecursionError:
        raise ExprSyntaxError("expression nests too deeply") from None
    if parser.tokens[parser.pos]:
        raise ExprSyntaxError(f"trailing input at {parser.tokens[parser.pos]!r}")
    if any(c and i + abs(k) > MAX_DEGREE for (i, k), c in terms.items()):
        raise ExprSyntaxError(f"a monomial w^i exp(w)^k with i + |k| above {MAX_DEGREE}")
    return ExpPoly._of({key: Fraction(c, den) if c % den else c // den for key, c in terms.items()})
