"""Interval arithmetic with outward rounding, plus interval gradients.

:class:`Interval` implements the usual operations with every inexact result
widened outward: one ulp per arithmetic operation (float +, - and * are
correctly rounded, so one ulp absorbs the rounding), and ``LIBM_ULPS`` ulps
for exp/sinh/cosh.  There is no interval division: no catalog form divides,
and ``sinh(x)/x`` has its own primitives below.  The libm functions are not
correctly rounded (glibc's ``math.sinh(0.809034359644837)`` is off by 1.45
ulp), so the code relies on their error staying below ``LIBM_ULPS`` ulps;
tests/test_intervals.py checks that against mpmath on a seeded and an
adversarial point set.  A product with an exactly-zero factor is exact and
is not widened, so an interval starting at 0 keeps 0 as its lower end
through scaling; likewise a sum or difference that rounds to 0 is exact and
is not widened.  The hyperbolic functions use monotonicity for tight
endpoint images; cosh splits at its minimum.  ``so(x) = sinh(x)/x`` gets a
dedicated monotone primitive because quotienting the two enclosures
separately is catastrophically loose for narrow x near zero.

Its slope, which :meth:`Dual.sinh_over` needs, comes from convexity.  The
series so(x) = sum x^(2k)/(2k+1)! has positive coefficients, so so'' > 0
and the slope over [lo, hi] is [so'(lo), so'(hi)].  Term by term,
so'(x) = sum 2k x^(2k-1)/(2k+1)! lies between its first term x/3 and
x cosh(x)/3 = sum x^(2k-1)/(3 (2k-2)!), since 6k (2k-2)! <= (2k+1)! for
k >= 1.  Each end so'(x) = (cosh(x) - so(x))/x is enclosed by an interval
difference and a float quotient stepped one ulp outward, then clipped to
those two bounds, which stay tight where the difference cancels.

Every Interval is validated when it is built, by the one test
``lo <= hi``, which rejects inverted bounds and a NaN at either end.  It
runs in the private allocator ``_interval``: the public constructor
``Interval(lo, hi)`` calls it, and every operation builds its result with
it directly.  Intervals are immutable.  A scalar operand must equal a float
exactly: NaN and an int that no float equals (such as 2**53 + 1) raise
ValueError, since rounding the int first is an error the one-ulp widening
does not cover.

:class:`Dual` carries an interval value together with interval enclosures of
the partial derivatives (forward mode).  A partial that is exactly zero (a
constant, or an axis the subterm does not read) is the shared object
:data:`ZERO`; arithmetic tests for it by identity and skips it, so it costs
no multiplication and is never widened.  That only tightens the gradients:
by inclusion monotonicity an exact 0 in place of a widened one can never
widen a result.  The region checker combines a plain evaluation with the
mean-value form built from these gradients; both are ordinary interval
enclosures and their intersection stays rigorous.
"""

from __future__ import annotations

import math

_INF = math.inf
_TINY = math.ulp(0.0)  # the smallest positive subnormal
_nextafter = math.nextafter
LIBM_ULPS = 2  # _libm_down / _libm_up step this many ulps


def _down(x: float) -> float:
    return _nextafter(x, -_INF)


def _up(x: float) -> float:
    return _nextafter(x, _INF)


def _libm_down(x: float) -> float:
    return _nextafter(_nextafter(x, -_INF), -_INF)


def _libm_up(x: float) -> float:
    return _nextafter(_nextafter(x, _INF), _INF)


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
    """a * b rounded to nearest; the result is 0 exactly when it is exact.

    An exactly-zero factor annihilates, inf included (interval convention
    0 * inf = 0).  A product of nonzero factors that underflows to 0 comes
    back as the smallest subnormal of its sign, so callers may leave a zero
    unwidened.
    """
    if a == 0.0 or b == 0.0:
        return 0.0
    p = a * b
    return p if p else math.copysign(_TINY, p)


def _scalar(o) -> float:
    """The float equal to the real scalar operand o.

    Rejects NaN and an int that no float equals: rounding it first would add
    an error that the one-ulp widening of the operation does not cover.
    """
    if type(o) is float and o == o:  # a float that is not NaN is taken as it is
        return o
    try:
        x = float(o)
    except OverflowError:
        x = math.nan
    if x != o:  # NaN != NaN; an int compares with a float exactly
        raise ValueError(f"scalar operand {o!r} is NaN or not exactly a float")
    return x


def _read_only(self, name, value=None):
    raise AttributeError(f"{type(self).__name__} is immutable; cannot change {name!r}")


class Interval:
    """The closed interval [lo, hi] of floats; immutable."""

    __slots__ = ("lo", "hi")

    def __new__(cls, lo: float, hi: float) -> "Interval":
        return _interval(lo, hi)

    __setattr__ = __delattr__ = _read_only

    def __reduce__(self):
        return Interval, (self.lo, self.hi)

    def __eq__(self, other) -> bool:
        if type(other) is not Interval:
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"Interval(lo={self.lo!r}, hi={self.hi!r})"

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def intersect(self, other: "Interval") -> "Interval":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            raise ValueError("intersection of disjoint enclosures; a bound is unsound")
        return _interval(lo, hi)

    # -- arithmetic: the other operand is an Interval or a real scalar -------

    # A float sum or difference that rounds to 0 is exact: the exact result
    # is a multiple of the smallest subnormal, so a nonzero one never rounds
    # to 0.  Such a bound is left unwidened, as an exactly-zero product is.

    def __add__(self, o) -> "Interval":
        if type(o) is Interval:
            lo, hi = self.lo + o.lo, self.hi + o.hi
        elif isinstance(o, (int, float)):
            o = _scalar(o)
            lo, hi = self.lo + o, self.hi + o
        else:
            return NotImplemented
        return _interval(_nextafter(lo, -_INF) if lo else 0.0, _nextafter(hi, _INF) if hi else 0.0)

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return _interval(-self.hi, -self.lo)

    def __sub__(self, o) -> "Interval":
        if type(o) is Interval:
            lo, hi = self.lo - o.hi, self.hi - o.lo
        elif isinstance(o, (int, float)):
            o = _scalar(o)
            lo, hi = self.lo - o, self.hi - o
        else:
            return NotImplemented
        return _interval(_nextafter(lo, -_INF) if lo else 0.0, _nextafter(hi, _INF) if hi else 0.0)

    def __rsub__(self, o) -> "Interval":
        if not isinstance(o, (int, float)):
            return NotImplemented
        o = _scalar(o)
        lo, hi = o - self.hi, o - self.lo
        return _interval(_nextafter(lo, -_INF) if lo else 0.0, _nextafter(hi, _INF) if hi else 0.0)

    def __mul__(self, o) -> "Interval":
        if type(o) is Interval:
            olo, ohi = o.lo, o.hi
        elif isinstance(o, (int, float)):
            olo = ohi = _scalar(o)
        else:
            return NotImplemented
        lo, hi = self.lo, self.hi
        if lo >= 0.0 and olo >= 0.0:
            # Rounding is monotone, so the two endpoint products are the
            # least and the greatest of the four.
            return _interval(
                _nextafter(lo * olo, -_INF) if lo and olo else 0.0,
                _nextafter(hi * ohi, _INF) if hi and ohi else 0.0,
            )
        if lo and hi and olo and ohi:
            # No factor is 0, so no product is 0 * inf = NaN, and each is
            # the one _prod returns unless it underflows to 0.  When none
            # does, both ends are nonzero and are widened.
            a, b, c, d = lo * olo, lo * ohi, hi * olo, hi * ohi
            if a and b and c and d:
                lo, hi = min(a, b, c, d), max(a, b, c, d)
                return _interval(_nextafter(lo, -_INF), _nextafter(hi, _INF))
        products = (_prod(lo, olo), _prod(lo, ohi), _prod(hi, olo), _prod(hi, ohi))
        lo, hi = min(products), max(products)
        return _interval(_nextafter(lo, -_INF) if lo else 0.0, _nextafter(hi, _INF) if hi else 0.0)

    __rmul__ = __mul__

    # -- elementary functions ------------------------------------------------

    def exp(self) -> "Interval":
        return _interval(max(0.0, _libm_down(_exp(self.lo))), _libm_up(_exp(self.hi)))

    def sinh(self) -> "Interval":
        return _interval(_libm_down(_sinh(self.lo)), _libm_up(_sinh(self.hi)))

    def cosh(self) -> "Interval":
        at_lo, at_hi = _cosh(self.lo), _cosh(self.hi)
        top = _libm_up(max(at_lo, at_hi))
        if self.lo <= 0.0 <= self.hi:
            return _interval(1.0, top)  # cosh attains its exact minimum 1 at 0
        return _interval(max(1.0, _libm_down(min(at_lo, at_hi))), top)

    def sinh_over(self) -> "Interval":
        """Enclosure of sinh(x)/x for x >= 0, exploiting monotonicity.

        The even power series of sinh(x)/x has positive coefficients, so the
        function increases on (0, oo) with limit 1 at 0.  Endpoint images are
        therefore tight; a naive quotient of enclosures is far too wide when
        the interval is narrow relative to its distance from zero.  Each
        endpoint image is one libm call and one division: LIBM_ULPS + 1 ulps.
        """
        lo, hi = self.lo, self.hi
        if lo < 0.0:
            raise ValueError("sinh_over is defined for nonnegative intervals")
        bottom = max(1.0, _down(_libm_down(_sinh(lo) / lo))) if lo > 0.0 else 1.0
        top = max(1.0, _up(_libm_up(_sinh(hi) / hi))) if hi > 0.0 else 1.0
        return _interval(bottom, top)


# The slot setters, which only the allocators _interval and _dual call: they
# bypass _read_only.
_set_lo = Interval.lo.__set__
_set_hi = Interval.hi.__set__
_new = object.__new__


def _interval(lo: float, hi: float) -> Interval:
    """The one allocator of Interval, and the one place that checks its bounds."""
    if not lo <= hi:  # also false when either end is NaN
        raise ValueError(f"invalid interval [{lo}, {hi}]")
    result = _new(Interval)
    _set_lo(result, lo)
    _set_hi(result, hi)
    return result


ZERO = Interval(0.0, 0.0)  # the exact-zero partial; Dual tests for it by identity
_ONE = Interval(1.0, 1.0)


def _so_slope(x: float) -> Interval:
    """Enclosure of so'(x) = (cosh(x) - so(x))/x at a point x >= 0.

    The quotient by the float x is correctly rounded, so one ulp outward
    covers it; the clip to [x/3, x cosh(x)/3] is the module docstring's.
    """
    if x == 0.0:
        return ZERO
    # the bounds of Interval(x, x).cosh() and .sinh_over() for x > 0, from
    # one libm call each, then their outward-rounded difference
    cosh, so = _cosh(x), _sinh(x) / x
    cosh_lo, cosh_hi = max(1.0, _libm_down(cosh)), _libm_up(cosh)
    so_lo, so_hi = max(1.0, _down(_libm_down(so))), max(1.0, _up(_libm_up(so)))
    gap_lo, gap_hi = cosh_lo - so_hi, cosh_hi - so_lo
    gap_lo, gap_hi = _down(gap_lo) if gap_lo else 0.0, _up(gap_hi) if gap_hi else 0.0
    return _interval(
        max(_down(x / 3.0), _down(gap_lo / x)),
        min(_up(_up(x * cosh_hi) / 3.0), _up(gap_hi / x)),
    )


class Dual:
    """Interval value with interval partial derivatives (forward mode).

    ``grad`` is a tuple of Intervals, one per variable; a partial that is
    exactly zero is :data:`ZERO`.  The other operand of an arithmetic
    operation is a Dual of the same arity, an Interval or a real scalar.
    """

    __slots__ = ("val", "grad")

    def __new__(cls, val: Interval, grad: tuple[Interval, ...]) -> "Dual":
        return _dual(val, grad)

    __setattr__ = __delattr__ = _read_only

    def __repr__(self) -> str:
        return f"Dual(val={self.val!r}, grad={self.grad!r})"

    @classmethod
    def variable(cls, value: Interval, index: int, arity: int) -> "Dual":
        return cls(value, tuple([_ONE if i == index else ZERO for i in range(arity)]))

    def __add__(self, o) -> "Dual":
        if type(o) is Dual:
            return _dual(
                self.val + o.val,
                tuple([
                    b if a is ZERO else a if b is ZERO else a + b
                    for a, b in zip(self.grad, o.grad)
                ]),
            )
        if type(o) is Interval or isinstance(o, (int, float)):
            return _dual(self.val + o, self.grad)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "Dual":
        return _dual(-self.val, tuple([a if a is ZERO else -a for a in self.grad]))

    def __sub__(self, o) -> "Dual":
        if type(o) is Dual:
            return _dual(
                self.val - o.val,
                tuple([
                    a if b is ZERO else -b if a is ZERO else a - b
                    for a, b in zip(self.grad, o.grad)
                ]),
            )
        if type(o) is Interval or isinstance(o, (int, float)):
            return _dual(self.val - o, self.grad)
        return NotImplemented

    def __rsub__(self, o) -> "Dual":
        if type(o) is Interval or isinstance(o, (int, float)):
            return _dual(o - self.val, tuple([a if a is ZERO else -a for a in self.grad]))
        return NotImplemented

    def __mul__(self, o) -> "Dual":
        if type(o) is Dual:
            x, y = self.val, o.val
            grad = []
            for a, b in zip(self.grad, o.grad):
                if a is ZERO:
                    grad.append(ZERO if b is ZERO else b * x)
                elif b is ZERO:
                    grad.append(a * y)
                else:
                    grad.append(a * y + b * x)
            return _dual(x * y, tuple(grad))
        if type(o) is Interval or isinstance(o, (int, float)):
            return _dual(self.val * o, tuple([a if a is ZERO else a * o for a in self.grad]))
        return NotImplemented

    __rmul__ = __mul__

    def _chain(self, value: Interval, slope: Interval) -> "Dual":
        """f(self) from f's value and an enclosure of f' over self.val."""
        return _dual(value, tuple([a if a is ZERO else slope * a for a in self.grad]))

    def exp(self) -> "Dual":
        e = self.val.exp()
        return self._chain(e, e)

    def sinh(self) -> "Dual":
        return self._chain(self.val.sinh(), self.val.cosh())

    def cosh(self) -> "Dual":
        return self._chain(self.val.cosh(), self.val.sinh())

    def sinh_over(self) -> "Dual":
        # so = sinh(x)/x is convex, so its slope over [lo, hi] runs from
        # so'(lo) to so'(hi)
        x = self.val
        return self._chain(x.sinh_over(), _interval(_so_slope(x.lo).lo, _so_slope(x.hi).hi))


# As for Interval, only the allocator _dual calls these.
_set_val = Dual.val.__set__
_set_grad = Dual.grad.__set__


def _dual(val: Interval, grad: tuple[Interval, ...]) -> Dual:
    """The one allocator of Dual."""
    result = _new(Dual)
    _set_val(result, val)
    _set_grad(result, grad)
    return result


# Generic elementary functions: an int or float goes to math, and any other
# value (Interval, Dual, or the exact exppoly.Laurent) to its own method.


def vexp(x):
    return math.exp(x) if isinstance(x, (int, float)) else x.exp()


def vsinh(x):
    return math.sinh(x) if isinstance(x, (int, float)) else x.sinh()


def vcosh(x):
    return math.cosh(x) if isinstance(x, (int, float)) else x.cosh()


def vsinh_over(x):
    if isinstance(x, (int, float)):
        return math.sinh(x) / x if x else 1.0  # the limit at 0, as Interval.sinh_over
    return x.sinh_over()
