"""Exact bivariate polynomials P(w, t) with t standing for exp(w).

Every inequality handled by the prover has the shape ``P(w, e^w) < 0`` (or
``> 0``) on w in (0, oo) for a polynomial P with rational coefficients.  This
module supplies the exact-arithmetic polynomial type, a small text grammar for
entering such expressions, symbolic differentiation with respect to w (where
d/dw t = t), and the sign-preserving normal form used by the prover.

A coefficient is an ``int``, or a :class:`fractions.Fraction` when it is not
integral (never ``Fraction(n, 1)``); :func:`normalize` makes all of them ints
and :func:`derivative` keeps them so.  Floats are rejected so that
certificates replay bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Mapping

from .rootisolation import Scalar, exact, primitive


class ExpPoly:
    """Sum of monomials c * w^i * t^k with exact rational c, an int when integral.

    Negative t-degrees are permitted (they arise from sinh/cosh expansions)
    until :func:`normalize` clears them.  Instances are immutable by
    convention; all arithmetic returns new objects.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], Scalar] | None = None):
        self._terms: dict[tuple[int, int], Scalar] = {}
        for (i, k), c in (terms or {}).items():
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"exact coefficient required, got {type(c).__name__}")
            if c:
                self._terms[(int(i), int(k))] = exact(c)

    @classmethod
    def _of(cls, terms: dict[tuple[int, int], Scalar]) -> "ExpPoly":
        """The result of exact arithmetic on coefficients: drop zeros, make ints canonical."""
        p = cls.__new__(cls)
        p._terms = {key: c if type(c) is int else exact(c) for key, c in terms.items() if c}
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "ExpPoly":
        return cls()

    @classmethod
    def constant(cls, value: Scalar) -> "ExpPoly":
        return cls({(0, 0): value})

    @classmethod
    def monomial(cls, coeff: Scalar, w_deg: int, t_deg: int) -> "ExpPoly":
        return cls({(w_deg, t_deg): coeff})

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def w_degree(self) -> int:
        """Highest power of w; -1 for the zero polynomial."""
        return max((i for i, _ in self._terms), default=-1)

    @property
    def t_degrees(self) -> tuple[int, int]:
        """(min, max) power of t; (0, 0) for the zero polynomial."""
        if not self._terms:
            return (0, 0)
        ks = [k for _, k in self._terms]
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

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "ExpPoly | None":
        if isinstance(other, ExpPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return ExpPoly.constant(other)
        return None

    def __add__(self, other) -> "ExpPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        merged = dict(self._terms)
        for key, c in rhs._terms.items():
            merged[key] = merged.get(key, 0) + c
        return ExpPoly._of(merged)

    __radd__ = __add__

    def __neg__(self) -> "ExpPoly":
        return ExpPoly._of({key: -c for key, c in self._terms.items()})

    def __sub__(self, other) -> "ExpPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> "ExpPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other) -> "ExpPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        product: dict[tuple[int, int], Scalar] = {}
        for (i1, k1), c1 in self._terms.items():
            for (i2, k2), c2 in rhs._terms.items():
                key = (i1 + i2, k1 + k2)
                product[key] = product.get(key, 0) + c1 * c2
        return ExpPoly._of(product)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "ExpPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = ExpPoly.constant(1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(sorted(self._terms.items())))

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
        return [[i, k, f"{c.numerator}/{c.denominator}"] for i, k, c in self.terms()]

    @classmethod
    def from_term_list(cls, data) -> "ExpPoly":
        """Inverse of :meth:`to_term_list`: int degrees and rational strings only."""
        terms = {}
        for i, k, c in data:
            if type(i) is not int or type(k) is not int or type(c) is not str:
                raise TypeError(f"term {[i, k, c]!r} needs int degrees and a rational string")
            terms[(i, k)] = Fraction(c)
        return cls(terms)


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
    out: dict[tuple[int, int], Scalar] = {}
    for (i, k), c in p._terms.items():
        if i:
            key = (i - 1, k)
            out[key] = out.get(key, 0) + c * i
        if k:
            key = (i, k)
            out[key] = out.get(key, 0) + c * k
    return ExpPoly._of(out)


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
# Numbers may be integers or decimal literals; both parse exactly.


class ExprSyntaxError(ValueError):
    """Raised when an expression string cannot be parsed."""


_FUNCTIONS = ("exp", "sinh", "cosh")


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            if pos < n and text[pos] == ".":
                pos += 1
                while pos < n and text[pos].isdigit():
                    pos += 1
            tokens.append(("number", text[start:pos]))
            continue
        if ch.isalpha():
            start = pos
            while pos < n and text[pos].isalpha():
                pos += 1
            tokens.append(("name", text[start:pos]))
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch))
            pos += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r} at position {pos}")
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str]:
        tok = self.advance()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok[1]!r}")
        return tok

    def parse(self) -> ExpPoly:
        value = self.expr()
        if self.peek()[0] != "end":
            raise ExprSyntaxError(f"trailing input at {self.peek()[1]!r}")
        return value

    def expr(self) -> ExpPoly:
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> ExpPoly:
        value = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.factor()
            if op == "*":
                value = value * rhs
            else:
                const = _constant_value(rhs)
                if const is None or const == 0:
                    raise ExprSyntaxError("division is only defined by nonzero constants")
                value = value * (Fraction(1) / const)
        return value

    def factor(self) -> ExpPoly:
        kind, _ = self.peek()
        if kind == "+":
            self.advance()
            return self.factor()
        if kind == "-":
            self.advance()
            return -self.factor()
        return self.power()

    def power(self) -> ExpPoly:
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("number")
            if "." in tok[1]:
                raise ExprSyntaxError("exponent must be an integer")
            return base ** int(tok[1])
        return base

    def atom(self) -> ExpPoly:
        kind, text = self.advance()
        if kind == "number":
            return ExpPoly.constant(Fraction(text) if "." in text else int(text))
        if kind == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if kind == "name":
            if text == "w":
                return W
            if text in _FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return _apply_function(text, arg)
            raise ExprSyntaxError(f"unknown name {text!r}")
        raise ExprSyntaxError(f"unexpected token {text!r}")


def _constant_value(p: ExpPoly) -> Scalar | None:
    if p.is_zero:
        return 0
    terms = list(p.terms())
    if len(terms) == 1 and terms[0][0] == 0 and terms[0][1] == 0:
        return terms[0][2]
    return None


def _linear_w_multiple(p: ExpPoly) -> int | None:
    """Return n when p == n*w for integer n (0 for the zero polynomial)."""
    if p.is_zero:
        return 0
    terms = list(p.terms())
    if len(terms) == 1 and terms[0][:2] == (1, 0) and type(terms[0][2]) is int:
        return terms[0][2]
    return None


def _apply_function(name: str, arg: ExpPoly) -> ExpPoly:
    n = _linear_w_multiple(arg)
    if n is None:
        raise ExprSyntaxError(f"{name}() argument must be an integer multiple of w")
    if name == "exp":
        return ExpPoly.monomial(1, 0, n)
    half = Fraction(1, 2)
    if name == "sinh":
        return ExpPoly({(0, n): half, (0, -n): -half})
    # cosh
    if n == 0:
        return ExpPoly.constant(1)
    return ExpPoly({(0, n): half, (0, -n): half})


def parse_expression(text: str) -> ExpPoly:
    """Parse the expression grammar above into an ExpPoly.

    The only transcendental atoms are exp, sinh and cosh of integer multiples
    of w; everything else must be polynomial.  Raises ExprSyntaxError on any
    malformed input, and on input nested deeper than the recursive descent
    can follow (such as 400 nested parentheses).
    """
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression")
    try:
        return _Parser(text).parse()
    except RecursionError:
        raise ExprSyntaxError("expression nests too deeply") from None
