"""Interval arithmetic with outward rounding, plus interval gradients.

:class:`Interval` implements the usual operations with every result widened
outward: one ulp per arithmetic operation (float +, -, * and / are correctly
rounded, so one ulp absorbs the rounding), and two ulps for exp/sinh/cosh,
whose libm implementations are assumed accurate to within one ulp.  The
hyperbolic functions use monotonicity for tight endpoint images; cosh splits
at its minimum.  ``sinh(x)/x`` gets a dedicated monotone primitive because
quotienting the two enclosures separately is catastrophically loose for
narrow x near zero.

:class:`Dual` carries an interval value together with interval enclosures of
the partial derivatives (forward mode).  The region checker combines a plain
evaluation with the mean-value form built from these gradients; both are
ordinary interval enclosures and their intersection stays rigorous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_INF = math.inf
ARITH_ULPS = 1
LIBM_ULPS = 2


def _down(x: float, steps: int = ARITH_ULPS) -> float:
    for _ in range(steps):
        x = math.nextafter(x, -_INF)
    return x


def _up(x: float, steps: int = ARITH_ULPS) -> float:
    for _ in range(steps):
        x = math.nextafter(x, _INF)
    return x


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return _INF


def _sinh(x: float) -> float:
    try:
        return math.sinh(x)
    except OverflowError:
        return _INF if x > 0 else -_INF


def _cosh(x: float) -> float:
    try:
        return math.cosh(x)
    except OverflowError:
        return _INF


def _prod(a: float, b: float) -> float:
    # Interval convention 0 * inf = 0: an exactly-zero endpoint annihilates.
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


@dataclass(frozen=True, slots=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi) or self.lo > self.hi:
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, value: float) -> "Interval":
        return cls(value, value)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def intersect(self, other: "Interval") -> "Interval":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            raise ValueError("intersection of disjoint enclosures; a bound is unsound")
        return Interval(lo, hi)

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "Interval | None":
        if isinstance(value, Interval):
            return value
        if isinstance(value, (int, float)):
            return Interval(float(value), float(value))
        return None

    def __add__(self, other) -> "Interval":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Interval(_down(self.lo + o.lo), _up(self.hi + o.hi))

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other) -> "Interval":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Interval(_down(self.lo - o.hi), _up(self.hi - o.lo))

    def __rsub__(self, other) -> "Interval":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other) -> "Interval":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        products = (
            _prod(self.lo, o.lo),
            _prod(self.lo, o.hi),
            _prod(self.hi, o.lo),
            _prod(self.hi, o.hi),
        )
        return Interval(_down(min(products)), _up(max(products)))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.lo <= 0.0 <= o.hi:
            # Divisor straddles zero: no finite enclosure exists.
            return Interval(-_INF, _INF)
        quotients = [
            q
            for q in (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
            if not math.isnan(q)  # inf/inf; the remaining corners cover the range
        ]
        if not quotients:
            return Interval(-_INF, _INF)
        return Interval(_down(min(quotients)), _up(max(quotients)))

    def __rtruediv__(self, other) -> "Interval":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int) -> "Interval":
        if not isinstance(n, int) or n < 0:
            raise ValueError("interval powers take nonnegative integer exponents")
        if n == 0:
            return Interval(1.0, 1.0)
        lo_p, hi_p = self.lo**n, self.hi**n
        if n % 2 == 1 or self.lo >= 0.0:
            return Interval(_down(lo_p), _up(hi_p))
        if self.hi <= 0.0:
            return Interval(_down(hi_p), _up(lo_p))
        return Interval(0.0, _up(max(lo_p, hi_p)))

    # -- elementary functions ------------------------------------------------

    def exp(self) -> "Interval":
        return Interval(max(0.0, _down(_exp(self.lo), LIBM_ULPS)), _up(_exp(self.hi), LIBM_ULPS))

    def sinh(self) -> "Interval":
        return Interval(_down(_sinh(self.lo), LIBM_ULPS), _up(_sinh(self.hi), LIBM_ULPS))

    def cosh(self) -> "Interval":
        top = _up(max(_cosh(self.lo), _cosh(self.hi)), LIBM_ULPS)
        if self.lo <= 0.0 <= self.hi:
            return Interval(1.0, top)  # cosh attains its exact minimum 1 at 0
        bottom = _down(min(_cosh(self.lo), _cosh(self.hi)), LIBM_ULPS)
        return Interval(max(1.0, bottom), top)

    def sinh_over(self) -> "Interval":
        """Enclosure of sinh(x)/x for x >= 0, exploiting monotonicity.

        The even power series of sinh(x)/x has positive coefficients, so the
        function increases on (0, oo) with limit 1 at 0.  Endpoint images are
        therefore tight; a naive quotient of enclosures is far too wide when
        the interval is narrow relative to its distance from zero.
        """
        if self.lo < 0.0:
            raise ValueError("sinh_over is defined for nonnegative intervals")
        lo = 1.0 if self.lo == 0.0 else _down(_sinh(self.lo) / self.lo, LIBM_ULPS + 1)
        hi = _up(_sinh(self.hi) / self.hi, LIBM_ULPS + 1) if self.hi > 0.0 else 1.0
        return Interval(max(1.0, lo) if self.lo > 0.0 else lo, max(1.0, hi))


@dataclass(frozen=True, slots=True)
class Dual:
    """Interval value with interval partial derivatives (forward mode)."""

    val: Interval
    grad: tuple[Interval, ...]

    @classmethod
    def variable(cls, value: Interval, index: int, arity: int) -> "Dual":
        grad = tuple(
            Interval.point(1.0) if i == index else Interval.point(0.0) for i in range(arity)
        )
        return cls(value, grad)

    @classmethod
    def constant(cls, value, arity: int) -> "Dual":
        iv = value if isinstance(value, Interval) else Interval.point(float(value))
        return cls(iv, tuple(Interval.point(0.0) for _ in range(arity)))

    def _coerce(self, other) -> "Dual | None":
        if isinstance(other, Dual):
            return other
        if isinstance(other, (int, float, Interval)):
            return Dual.constant(other, len(self.grad))
        return None

    def __add__(self, other) -> "Dual":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Dual(self.val + o.val, tuple(a + b for a, b in zip(self.grad, o.grad)))

    __radd__ = __add__

    def __neg__(self) -> "Dual":
        return Dual(-self.val, tuple(-g for g in self.grad))

    def __sub__(self, other) -> "Dual":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Dual(self.val - o.val, tuple(a - b for a, b in zip(self.grad, o.grad)))

    def __rsub__(self, other) -> "Dual":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other) -> "Dual":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Dual(
            self.val * o.val,
            tuple(a * o.val + b * self.val for a, b in zip(self.grad, o.grad)),
        )

    __rmul__ = __mul__

    def exp(self) -> "Dual":
        e = self.val.exp()
        return Dual(e, tuple(e * g for g in self.grad))

    def sinh(self) -> "Dual":
        c = self.val.cosh()
        return Dual(self.val.sinh(), tuple(c * g for g in self.grad))

    def cosh(self) -> "Dual":
        s = self.val.sinh()
        return Dual(self.val.cosh(), tuple(s * g for g in self.grad))

    def sinh_over(self) -> "Dual":
        # d/dx sinh(x)/x = cosh(x)/x - sinh(x)/x^2; looseness here only
        # affects the mean-value correction, which is second order.
        x = self.val
        deriv = x.cosh() / x - x.sinh() / (x * x)
        return Dual(x.sinh_over(), tuple(deriv * g for g in self.grad))


# Generic elementary functions usable with floats, Intervals and Duals.


def vexp(x):
    return x.exp() if isinstance(x, (Interval, Dual)) else math.exp(x)


def vsinh(x):
    return x.sinh() if isinstance(x, (Interval, Dual)) else math.sinh(x)


def vcosh(x):
    return x.cosh() if isinstance(x, (Interval, Dual)) else math.cosh(x)


def vsinh_over(x):
    if isinstance(x, (Interval, Dual)):
        return x.sinh_over()
    return math.sinh(x) / x
