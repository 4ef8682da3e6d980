"""Exact identity checks by formal expansion.

An identity between closed forms in u, v, w, e^u, e^v and e^w holds when
the difference of its two sides expands to the zero polynomial.  This module
holds that polynomial: a :class:`Laurent` is a finite sum of monomials

    c * u^a v^b w^c' * e^(p u + q v + r w)

with rational c and integer exponents, negative ones included (so(w) =
sinh(w)/w needs w^-1).  Since u, v, w and e^u, e^v, e^w are algebraically
independent, a sum that collects to no monomial is zero as a function, and
one that does not is not zero as a formal expression.  The check is exact:
a coefficient is an ``int``, and a :class:`fractions.Fraction` only when it
is not integral, and a float operand is converted exactly.

The operations are + - * ** == (with another Laurent or an exact scalar)
and the formal partial derivative :meth:`Laurent.diff`, shared with the
prover through :class:`~tiltbound.exppoly.SparsePoly`; the substitution of one
variable by another (:meth:`Laurent.at`, such as v := u, u := w or
v := w), and exp, sinh, cosh and sinh_over of an integer-linear argument
such as -(v + w) or 2w (sinh_over only of a multiple of one variable, whose
division is a monomial).  Anything else raises:
``exp(u*u)`` or ``sinh_over(u/2)`` never expands to something else, and a
Laurent has no truth value.  The generic ``vexp``/``vsinh``/``vcosh``/
``vsinh_over`` of :mod:`tiltbound.intervals` call these methods, so a
catalog form evaluates here exactly as written.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .exppoly import ExpPoly, SparsePoly
from .rootisolation import Scalar, exact

# A monomial u^a v^b w^c e^(p u + q v + r w) is the key (a, b, c, p, q, r).
Key = tuple[int, int, int, int, int, int]
_AXES = ("u", "v", "w")
_LINEAR = {(1, 0, 0, 0, 0, 0): 0, (0, 1, 0, 0, 0, 0): 1, (0, 0, 1, 0, 0, 0): 2}  # key -> axis


class Laurent(SparsePoly):
    """A Laurent polynomial over the rationals in u, v, w, e^u, e^v and e^w."""

    __slots__ = ()
    _ONE = (0, 0, 0, 0, 0, 0)

    @staticmethod
    def _scalar(value) -> Scalar | None:
        """The rational equal to an int, Fraction or float (NaN and inf raise), else None."""
        return exact(Fraction(value)) if isinstance(value, (int, Fraction, float)) else None

    @classmethod
    def variable(cls, name: str) -> "Laurent":
        return cls({tuple(int(axis == name) for axis in _AXES) + (0, 0, 0): 1})

    @classmethod
    def in_w(cls, p: ExpPoly) -> "Laurent":
        """The prover's P(w, t) read at t = e^w."""
        return cls({(0, 0, i, 0, 0, k): c for i, k, c in p.terms()})

    def terms(self) -> Iterator[tuple[Key, Scalar]]:
        """(key, coefficient) of every monomial, in key order."""
        for key in sorted(self._terms):
            yield key, self._terms[key]

    def __repr__(self) -> str:
        return f"Laurent({dict(self.terms())!r})"

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
        terms: dict[Key, Scalar] = {}
        for key, coeff in self._terms.items():
            moved = list(key)
            for a, b in ((i, j), (3 + i, 3 + j)):  # the power, then the rate
                moved[a], moved[b] = 0, moved[a] + moved[b]
            moved = tuple(moved)
            terms[moved] = terms.get(moved, 0) + coeff
        return self._of(terms)

    # -- elementary functions of an integer-linear argument --------------------

    def _rates(self) -> tuple[int, int, int]:
        """(p, q, r) with self = p u + q v + r w, all integers; else ValueError."""
        rates = [0, 0, 0]
        for key, c in self._terms.items():
            axis = _LINEAR.get(key)
            if axis is None or type(c) is not int:
                raise ValueError(f"{self!r} is not an integer-linear argument")
            rates[axis] = c
        return rates[0], rates[1], rates[2]

    def exp(self) -> "Laurent":
        return Laurent({(0, 0, 0) + self._rates(): 1})

    def sinh(self) -> "Laurent":
        return (self.exp() - (-self).exp()) * Fraction(1, 2)

    def cosh(self) -> "Laurent":
        return (self.exp() + (-self).exp()) * Fraction(1, 2)

    def sinh_over(self) -> "Laurent":
        """sinh(x)/x for x = k y with y one of u, v, w and k a nonzero integer."""
        self._rates()
        if len(self._terms) != 1:
            raise ValueError(f"sinh_over needs a multiple of one variable, got {self!r}")
        ((key, k),) = self._terms.items()
        return self.sinh() * Laurent({tuple(-i for i in key): Fraction(1, k)})  # / (k y)


U, V, W = (Laurent.variable(name) for name in _AXES)
