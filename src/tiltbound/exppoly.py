"""The exact kernels: polynomials P(w, t) with t standing for exp(w), and Laurent polynomials.

Every inequality handled by the prover has the shape ``P(w, e^w) < 0`` (or
``> 0``) on w in (0, oo) for a polynomial P with rational coefficients.  This
module supplies the exact-arithmetic polynomial type :class:`ExpPoly`, a
small ASCII text grammar for entering such expressions (with fixed caps on
what a text builds), symbolic differentiation with respect to w (where
d/dw t = t), the sign-preserving normal form used by the prover, the
"num/den" text of the rationals in a certificate, and the canonical rational
itself (:data:`Scalar`, :func:`exact`).

It also holds the identity kernel :class:`Laurent`: a finite sum of monomials

    c * u^a v^b w^c' * e^(p u + q v + r w)

with rational c and integer exponents, negative ones included (so(w) =
sinh(w)/w needs w^-1).  An identity between closed forms in u, v, w, e^u,
e^v and e^w holds when the difference of its two sides expands to the zero
Laurent polynomial: since u, v, w and e^u, e^v, e^w are algebraically
independent, a sum that collects to no monomial is zero as a function, and
one that does not is not zero as a formal expression.  Its operations are
+ - * ** == (with another Laurent or an exact scalar; a float operand is read
exactly through ``as_integer_ratio()``), the formal partial derivative
:meth:`Laurent.diff`, the substitution of one variable by another
(:meth:`Laurent.at`, such as v := u, u := w or v := w), and exp, sinh, cosh
and sinh_over of an integer-linear argument such as -(v + w) or 2w
(sinh_over only of a multiple of one variable, whose division is a
monomial).  Anything else raises: ``exp(u*u)`` or ``sinh_over(u/2)`` never
expands to something else, and a Laurent has no truth value.  The generic
``vexp``/``vsinh``/``vcosh``/``vsinh_over`` of :mod:`tiltbound.intervals`
call these methods, so a catalog form evaluates here exactly as written.

Both kernels share one arithmetic and derivative rule (:class:`SparsePoly`),
which is one set of private routines on (int terms, den) pairs: add,
multiply, power by squaring, reading the integer coefficients of a linear
argument, and (e^x +- e^-x)/2.  :class:`SparsePoly`'s operators, the parser
and the elementary functions of ``Laurent`` all call them, and no other
module reads the pairs.

A polynomial is stored as int numerators over one positive int denominator,
reduced, and its arithmetic computes with ints alone; :func:`normalize`
makes the denominator 1 and :func:`derivative` keeps it so, and Laurent's
exp, sinh and cosh build theirs over 1 or 2, sinh_over over 2|k|.  Only
reading a coefficient (``terms()``, ``coeff()``, ``eval_at_zero()`` and the
``repr``, the constructor call of either kernel) yields a rational: an
``int``, or a :class:`fractions.Fraction` when it is not integral (never
``Fraction(n, 1)``).  ``ExpPoly`` neither reads nor computes a float: a
float coefficient or operand raises TypeError, and no method evaluates a
polynomial in floating point, so certificates replay bit for bit.
"""

from __future__ import annotations

import math
import re
import string
from fractions import Fraction
from operator import add, neg, sub
from typing import Iterator, Mapping, Union

Scalar = Union[int, Fraction]


def exact(value: Scalar) -> Scalar:
    """The canonical form of a rational: an int when it is integral."""
    return value.numerator if value.denominator == 1 else value


# The one arithmetic of the exact kernels, on pairs (terms, den): the polynomial
# sum(c x^key for key, c in terms) / den with int c (zeros allowed) and int
# den > 0, not reduced, keys of any one length that add component by component.
# SparsePoly reduces each result with _of; parse_expression reduces only its
# result, so its caps read each pair as built.


def _add(a: tuple[dict, int], b: tuple[dict, int], sign: int = 1) -> tuple[dict, int]:
    """a + sign * b over the least common denominator."""
    (x, den), (y, yden) = a, b
    g = math.gcd(den, yden)
    scale, sign = yden // g, sign * (den // g)
    out = x.copy() if scale == 1 else {key: c * scale for key, c in x.items()}
    for key, c in y.items():
        out[key] = out.get(key, 0) + sign * c
    return out, den * scale


def _mul(a: tuple[dict, int], b: tuple[dict, int], one: tuple, limit: float = math.inf):
    """a * b with ``one`` the key of 1; over ``limit`` term pairs of two non-constants raises."""
    (x, xden), (y, yden) = a, b
    if len(x) == 1 and one in x:
        x, y = y, x
    if len(y) == 1 and one in y:  # a constant factor scales the other
        c = y[one]
        return {key: v * c for key, v in x.items()}, xden * yden
    if len(x) * len(y) > limit:
        raise ExprSyntaxError(f"a product of {len(x)} by {len(y)} terms: over {limit} pairs")
    out: dict[tuple[int, ...], int] = {}
    for xkey, u in x.items():
        for ykey, v in y.items():
            key = tuple(map(add, xkey, ykey))
            out[key] = out.get(key, 0) + u * v
    return out, xden * yden


def _power(base: tuple[dict, int], n: int, one: tuple, limit: float = math.inf):
    """base^n for an int n >= 0 by squaring, with ``one`` and ``limit`` as for :func:`_mul`."""
    result = {one: 1}, 1
    while n:
        if n & 1:
            result = _mul(result, base, one, limit)
        n >>= 1
        if n:
            base = _mul(base, base, one, limit)
    return result


def _linear(pair: tuple[dict, int], units: dict[tuple, int]) -> tuple[int, ...] | None:
    """The ints n with pair = sum(n[i] x^key for key, i in units.items()), else None."""
    terms, den = pair
    rates = [0] * len(units)
    for key, c in terms.items():
        if c:
            if (i := units.get(key)) is None or c % den:
                return None
            rates[i] = c // den
    return tuple(rates)


def _half_sum(up: tuple[int, ...], sign: int) -> tuple[dict, int]:
    """(e^x + sign e^-x) / 2 for the key ``up`` of e^x: over 2, or the constant over 1 at x = 0."""
    down = tuple(map(neg, up))
    return ({up: (1 + sign) // 2}, 1) if up == down else ({up: 1, down: sign}, 2)


class SparsePoly:
    """Sum of monomials (n / den) x^key with int-tuple keys, immutable by convention.

    The arithmetic and derivative rule of :class:`ExpPoly` and :class:`Laurent`.
    ``_terms`` maps each key to a nonzero int numerator and ``_den`` is one positive int
    denominator with ``gcd(den, *numerators) == 1``, so ``==`` and ``hash`` are structural.
    ``_ONE`` is the key of 1.  An operand of ``+ - *`` is the same type or an instance of
    one of the type's ``_SCALARS``, read exactly through ``as_integer_ratio()`` (a NaN
    raises ValueError, an infinity OverflowError); anything else, the other kernel
    included, raises TypeError.
    """

    __slots__ = ("_terms", "_den")
    _SCALARS = (int, Fraction)

    def __init__(self, terms: Mapping[tuple[int, ...], Scalar] | None = None):
        terms = terms or {}
        for c in terms.values():
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"exact coefficient required, got {type(c).__name__}")
        den = math.lcm(*(c.denominator for c in terms.values()))
        nums = {tuple(map(int, key)): c.numerator * (den // c.denominator) for key, c in terms.items()}
        self._terms, self._den = (reduced := self._of(nums, den))._terms, reduced._den

    @classmethod
    def _of(cls, terms: dict, den: int):
        """The polynomial sum(n x^key) / den for int n (zeros dropped) and int den > 0, reduced."""
        p = cls.__new__(cls)
        if 0 in terms.values():
            terms = {key: c for key, c in terms.items() if c}
        if den != 1 and (g := math.gcd(den, *terms.values())) != 1:
            terms, den = {key: c // g for key, c in terms.items()}, den // g
        p._terms, p._den = terms, den
        return p

    def _rational(self, n: int) -> Scalar:
        """n / den as a canonical rational: an int when integral, else a Fraction."""
        return n if self._den == 1 else exact(Fraction(n, self._den))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def _pair(self, scalar) -> tuple[dict, int] | None:
        """(terms, den) of a ``_SCALARS`` operand, else None; ``+ - *`` read their own type."""
        if not isinstance(scalar, self._SCALARS):
            return None
        num, den = scalar.as_integer_ratio()
        return {self._ONE: num}, den

    def __add__(self, other):
        pair = (other._terms, other._den) if type(other) is type(self) else self._pair(other)
        if pair is None:
            return NotImplemented
        return self._of(*_add((self._terms, self._den), pair))

    __radd__ = __add__

    def __neg__(self):
        p = self.__new__(type(self))
        p._terms, p._den = {key: -c for key, c in self._terms.items()}, self._den
        return p

    def __sub__(self, other):
        pair = (other._terms, other._den) if type(other) is type(self) else self._pair(other)
        if pair is None:
            return NotImplemented
        return self._of(*_add((self._terms, self._den), pair, -1))

    def __rsub__(self, other):
        if (pair := self._pair(other)) is None:
            return NotImplemented
        return self._of(*_add(pair, (self._terms, self._den), -1))

    def __mul__(self, other):
        pair = (other._terms, other._den) if type(other) is type(self) else self._pair(other)
        if pair is None:
            return NotImplemented
        return self._of(*_mul((self._terms, self._den), pair, self._ONE))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return self._of(*_power((self._terms, self._den), exponent, self._ONE))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self):
        return hash((self._den, tuple(sorted(self._terms.items()))))

    def __repr__(self) -> str:
        """The constructor call, canonical rationals in key order: ``eval`` with Fraction rebuilds it."""
        terms = {key: self._rational(self._terms[key]) for key in sorted(self._terms)}
        return f"{type(self).__name__}({terms!r})"

    def _diff(self, power_axis: int, rate_axis: int):
        """d/dx: x^a e^(r x) -> (a/x + r) x^a e^(r x), a = key[power_axis], r = key[rate_axis]."""
        terms: dict[tuple[int, ...], int] = {}
        for key, c in self._terms.items():
            power, rate = key[power_axis], key[rate_axis]
            if power:
                lowered = list(key)
                lowered[power_axis] = power - 1
                lowered = tuple(lowered)
                terms[lowered] = terms.get(lowered, 0) + power * c
            if rate:
                terms[key] = terms.get(key, 0) + rate * c
        return self._of(terms, self._den)


class ExpPoly(SparsePoly):
    """Sum of monomials c * w^i * t^k with exact rational c.

    Negative t-degrees are permitted (they arise from sinh/cosh expansions)
    until :func:`normalize` clears them.  A scalar operand is an int or a
    Fraction; a float raises TypeError.
    """

    __slots__ = ()
    _ONE = (0, 0)

    # -- inspection --------------------------------------------------------

    @property
    def w_degree(self) -> int:
        """Highest power of w; -1 for the zero polynomial."""
        return max(self._terms)[0] if self._terms else -1  # keys (i, k) order by i first

    @property
    def t_degrees(self) -> tuple[int, int]:
        """(min, max) power of t; (0, 0) for the zero polynomial."""
        ks = [k for _, k in self._terms] or [0]
        return (min(ks), max(ks))

    def coeff(self, w_deg: int, t_deg: int) -> Scalar:
        return self._rational(self._terms.get((w_deg, t_deg), 0))

    def terms(self) -> Iterator[tuple[int, int, Scalar]]:
        """Yield (w_deg, t_deg, coeff) in canonical (w, t) order."""
        for (i, k) in sorted(self._terms):
            yield i, k, self._rational(self._terms[(i, k)])

    def eval_at_zero(self) -> Scalar:
        """Exact value of P(w, e^w) at w = 0, i.e. P(0, 1)."""
        total = 0
        for (i, _), c in self._terms.items():
            if not i:
                total += c
        return self._rational(total)

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


def normalize(raw: ExpPoly) -> ExpPoly:
    """Sign-equivalent normal form on w in (0, oo).

    Multiplies through by a positive monomial so that the minimum t-degree
    and minimum w-degree are both zero, then rescales by a positive rational
    so the coefficients are coprime integers.  Both steps preserve the sign
    of P(w, e^w) pointwise since w > 0 and t = e^w > 0.

    Raises ValueError on the zero polynomial.

    One pass for each minimum, and the terms are rebuilt only when a minimum
    is nonzero or the content is not 1; otherwise the result shares the
    input's dict (a polynomial is immutable).  The numerators are nonzero and
    coprime over denominator 1, so the result is already reduced.
    """
    terms = raw._terms
    if not terms:
        raise ValueError("cannot normalize the zero polynomial")
    min_i = min(terms)[0]  # keys (i, k) order by i first
    min_k = min([k for _, k in terms])
    g = math.gcd(*terms.values())  # the content, as in rootisolation.primitive
    if min_i or min_k:
        terms = {(i - min_i, k - min_k): c // g for (i, k), c in terms.items()}
    elif g != 1:
        terms = {key: c // g for key, c in terms.items()}
    p = ExpPoly.__new__(ExpPoly)
    p._terms, p._den = terms, 1
    return p


def derivative(p: ExpPoly) -> ExpPoly:
    """Exact d/dw of P(w, t) under t = e^w.

    Each monomial c w^i t^k maps to c i w^(i-1) t^k + c k w^i t^k.
    """
    return p._diff(0, 1)


# ---------------------------------------------------------------------------
# The identity kernel
# ---------------------------------------------------------------------------

# A monomial u^a v^b w^c e^(p u + q v + r w) is the key (a, b, c, p, q, r).
Key = tuple[int, int, int, int, int, int]
_AXES = ("u", "v", "w")
_LINEAR = {(1, 0, 0, 0, 0, 0): 0, (0, 1, 0, 0, 0, 0): 1, (0, 0, 1, 0, 0, 0): 2}  # key -> axis


class Laurent(SparsePoly):
    """A Laurent polynomial over the rationals in u, v, w, e^u, e^v and e^w."""

    __slots__ = ()
    _ONE = (0, 0, 0, 0, 0, 0)
    _SCALARS = (int, Fraction, float)

    @classmethod
    def variable(cls, name: str) -> "Laurent":
        return cls({tuple(int(axis == name) for axis in _AXES) + (0, 0, 0): 1})

    @classmethod
    def in_w(cls, p: ExpPoly) -> "Laurent":
        """The prover's P(w, t) read at t = e^w."""
        return cls._of({(0, 0, i, 0, 0, k): c for (i, k), c in p._terms.items()}, p._den)

    def terms(self) -> Iterator[tuple[Key, Scalar]]:
        """(key, coefficient) of every monomial, in key order."""
        for key in sorted(self._terms):
            yield key, self._rational(self._terms[key])

    def __bool__(self) -> bool:
        raise TypeError("a Laurent polynomial has no truth value; use is_zero")

    # -- formal operations ----------------------------------------------------

    def diff(self, name: str) -> "Laurent":
        """The partial derivative in u, v or w: x^a e^(p x) gives (a/x + p) x^a e^(p x)."""
        axis = _AXES.index(name)
        return self._diff(axis, 3 + axis)

    def at(self, name: str, by: str) -> "Laurent":
        """The substitution name := by, for two distinct axes of u, v, w."""
        i, j = _AXES.index(name), _AXES.index(by)
        if i == j:
            raise ValueError(f"{name} := {by} is no substitution")
        terms: dict[Key, int] = {}
        for key, coeff in self._terms.items():
            moved = list(key)
            for a, b in ((i, j), (3 + i, 3 + j)):  # the power, then the rate
                moved[a], moved[b] = 0, moved[a] + moved[b]
            moved = tuple(moved)
            terms[moved] = terms.get(moved, 0) + coeff
        return self._of(terms, self._den)

    # -- elementary functions of an integer-linear argument --------------------

    def _rates(self) -> tuple[int, int, int]:
        """(p, q, r) with self = p u + q v + r w, all integers; else ValueError."""
        if (rates := _linear((self._terms, self._den), _LINEAR)) is None:
            raise ValueError(f"{self!r} is not an integer-linear argument")
        return rates

    def exp(self) -> "Laurent":
        return Laurent._of({(0, 0, 0) + self._rates(): 1}, 1)

    def _half(self, sign: int) -> "Laurent":
        """(e^x + sign e^-x) / 2."""
        return Laurent._of(*_half_sum((0, 0, 0) + self._rates(), sign))

    def sinh(self) -> "Laurent":
        return self._half(-1)

    def cosh(self) -> "Laurent":
        return self._half(1)

    def sinh_over(self) -> "Laurent":
        """sinh(x)/x for x = k y with y one of u, v, w and k a nonzero integer."""
        sinh = self.sinh()
        if len(self._terms) != 1:
            raise ValueError(f"sinh_over needs a multiple of one variable, got {self!r}")
        ((key, k),) = self._terms.items()
        terms = {tuple(map(sub, m, key)): c if k > 0 else -c for m, c in sinh._terms.items()}
        return Laurent._of(terms, 2 * abs(k))  # / (k y)


U, V, W = (Laurent.variable(name) for name in _AXES)


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
# The parser computes with the pair routines above: a subexpression is a pair
# (terms, den) with keys (i, k) for w^i t^k.  A decimal is its digits over a
# power of ten, dividing by the constant c/d multiplies by the constant d/c,
# and sinh and cosh carry den 2.  The result is the ExpPoly of the same
# (terms, den); the caps below are the parser's own.


class ExprSyntaxError(ValueError):
    """Raised when an expression string cannot be parsed."""


_TOKEN = re.compile(r"[0-9]+(?:\.[0-9]*)?|[A-Za-z]+|\S", re.ASCII)
_TOKEN_STARTS = frozenset(string.ascii_letters + string.digits + "+-*/^()")
_FUNCTIONS = ("exp", "sinh", "cosh")

# Caps on what one text builds, far above what the battery and the benchmark's
# claims need, so that no short text takes unbounded time or memory.
MAX_EXPONENT = 64  # of one '^'
MAX_POWER_BITS = 256  # the exponent times the bits of the base's largest int
MAX_DEGREE = 40  # i + |k| of each monomial w^i t^k of the result
MAX_PRODUCT = 4096  # term pairs multiplied out by one product


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

    def expr(self) -> tuple[dict, int]:
        value = self.term()
        while (op := self.tokens[self.pos]) in ("+", "-"):
            self.pos += 1
            value = _add(value, self.term(), 1 if op == "+" else -1)
        return value

    def term(self) -> tuple[dict, int]:
        value = self.factor()
        while (op := self.tokens[self.pos]) in ("*", "/"):
            self.pos += 1
            rhs, d = self.factor()
            if op == "*":
                value = _mul(value, (rhs, d), (0, 0), MAX_PRODUCT)
                continue
            if {key for key, c in rhs.items() if c} != {(0, 0)}:
                raise ExprSyntaxError("division is only defined by nonzero constants")
            c = rhs[0, 0]  # the divisor is c / d
            value = _mul(value, ({(0, 0): d if c > 0 else -d}, abs(c)), (0, 0))
        return value

    def factor(self) -> tuple[dict, int]:
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
            digits = whole + decimals
            try:
                value = {(0, 0): int(digits)}, 10 ** len(decimals)
            except ValueError:  # more digits than int() reads
                raise ExprSyntaxError(f"a number of {len(digits)} digits: too long") from None
        elif tok == "(":
            value = self.expr()
            self.expect(")")
        elif tok in _FUNCTIONS:
            self.expect("(")
            rate = _linear(self.expr(), {(1, 0): 0})  # (n,) when the argument is n*w
            self.expect(")")
            if rate is None:
                raise ExprSyntaxError(f"{tok}() argument must be an integer multiple of w")
            up = (0, *rate)  # the key of e^(n w)
            value = ({up: 1}, 1) if tok == "exp" else _half_sum(up, 1 if tok == "cosh" else -1)
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
        digits = exponent.lstrip("0") or "0"
        # with more digits than MAX_EXPONENT, n is over it; int() never reads such a text
        n = int(digits) if len(digits) <= len(str(MAX_EXPONENT)) else MAX_EXPONENT + 1
        terms, den = value
        if n > MAX_EXPONENT or n * max(den, *map(abs, terms.values())).bit_length() > MAX_POWER_BITS:
            raise ExprSyntaxError(
                f"^{digits}: exponent over {MAX_EXPONENT} or over {MAX_POWER_BITS} bits"
            )
        return _power(value, n, (0, 0), MAX_PRODUCT)


def parse_expression(text: str) -> ExpPoly:
    """Parse the expression grammar above into an ExpPoly.

    The only transcendental atoms are exp, sinh and cosh of integer multiples
    of w; everything else must be polynomial.  Raises ExprSyntaxError on any
    malformed input, on input nested deeper than the recursive descent can
    follow (such as 400 nested parentheses), on a number of more digits than
    int() reads, and on input that builds past a cap above, such as
    ``(1+w+exp(w))^200``.
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
    return ExpPoly._of(terms, den)
