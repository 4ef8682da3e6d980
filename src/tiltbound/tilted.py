"""Winsorized-tilted means of symmetric discrete distributions.

The central quantity is the mean of X under the exponential tilt applied to
the capped variable min(X, w):

    m(h, w) = E[X e^{h (X ^ w)}] / E[e^{h (X ^ w)}],      h > 0, w > 0,

where ``^`` is the pointwise minimum.  For a symmetric X with second moment
s2 in (0, oo) this mean is strictly between 0 and (sinh(hw)/w) * s2, and the
factor sinh(hw)/w is the smallest possible.  For merely zero-mean X the factor
quoted is the larger (e^{hw} - 1)/w; nothing in this package proves it or
computes it.  The tests' witness, the zero-mean two-point law on {w, -s2/w},
has mean / s2 strictly between the two factors, so the symmetric bound needs
symmetry.  This module evaluates the mean, the symmetric factor as a plain
float (:func:`symmetric_factor`), and the symmetrized comparison expressions
g0, g1 and d used by the region checker.

d has one definition, :func:`d`, generic over float, Interval, Dual and
Laurent through the ``v*`` functions of :mod:`tiltbound.intervals`.  A flag
per argument resolves min(x, w): a capped side (x >= w) is written in
exponentials, (2 g0, 2 g1) = (e^w + e^-x, x (e^w - e^-x)), and an uncapped
one as (2 cosh(x), 2 x sinh(x)), which keeps x sinh(x) accurate for small x.
The float function :func:`d_expr` sets the flags from x >= w, and the
region catalog's d_case1 and d_case2 fix them by the case.

Distributions are finite and symmetric: a list of (x, p) with x >= 0, where
x > 0 contributes mass p/2 at each of +x and -x, and x = 0 contributes mass p
at zero.  Expectations are finite sums, so no quadrature error enters.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from typing import Iterable, NamedTuple, Sequence

from .intervals import vcosh, vexp, vsinh, vsinh_over

WEIGHT_TOLERANCE = 1e-12
STRICTNESS_SLACK = 1e-12


class InvalidDistributionError(ValueError):
    """Atom list violates the symmetric-distribution contract."""


class DegenerateDistributionError(ValueError):
    """Second moment is zero, or below the smallest normal float, so no bound is checked."""


class TiltParams(namedtuple("TiltParams", "h w")):
    """Tilt rate h and cap level w, both strictly positive; ``_replace`` checks them too."""

    __slots__ = ()

    def __new__(cls, h: float, w: float):
        if not (math.isfinite(h) and h > 0):
            raise ValueError(f"tilt rate h must be positive and finite, got {h}")
        if not (math.isfinite(w) and w > 0):
            raise ValueError(f"cap level w must be positive and finite, got {w}")
        return super().__new__(cls, h, w)

    _make = classmethod(lambda cls, fields: cls(*fields))


class SymmetricDiscreteDistribution(namedtuple("SymmetricDiscreteDistribution", "atoms")):
    """Finite symmetric law given by nonnegative atoms with pair weights; ``_replace`` checks them too."""

    __slots__ = ()

    def __new__(cls, atoms: Iterable[tuple[float, float]]):
        atoms = tuple((float(x), float(p)) for x, p in atoms)
        if not atoms:
            raise InvalidDistributionError("at least one atom is required")
        previous = -math.inf
        for x, p in atoms:
            if not math.isfinite(x) or x < 0:
                raise InvalidDistributionError(f"atom positions must be finite and >= 0, got {x}")
            if x <= previous:
                raise InvalidDistributionError("atom positions must be strictly increasing")
            if not math.isfinite(p) or p < 0:
                raise InvalidDistributionError(f"weights must be finite and >= 0, got {p}")
            previous = x
        total = math.fsum(p for _, p in atoms)
        if abs(total - 1.0) > WEIGHT_TOLERANCE:
            raise InvalidDistributionError(f"weights sum to {total!r}, expected 1")
        return super().__new__(cls, atoms)

    _make = classmethod(lambda cls, fields: cls(*fields))

    def second_moment(self) -> float:
        return math.fsum(p * x * x for x, p in self.atoms)

    def signed_atoms(self) -> list[tuple[float, float]]:
        """Expand to signed support: (-x, p/2), (+x, p/2), and (0, p)."""
        signed = []
        for x, p in self.atoms:
            if x == 0.0:
                signed.append((0.0, p))
            else:
                half = p / 2
                signed += ((-x, half), (x, half))
        return signed

    @classmethod
    def from_dict(cls, data: dict) -> "SymmetricDiscreteDistribution":
        """The law of ``{"atoms": [[x, p], ...]}`` with numbers x and p.

        Any other shape raises InvalidDistributionError, as the atom
        constraints themselves do.
        """
        atoms = data.get("atoms") if isinstance(data, dict) else None
        if not isinstance(atoms, (list, tuple)) or not all(
            isinstance(atom, (list, tuple))
            and len(atom) == 2
            and all(type(value) in (int, float) for value in atom)
            for atom in atoms
        ):
            raise InvalidDistributionError('expected an object {"atoms": [[x, p], ...]} of numbers')
        return cls(atoms)


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise OverflowError("result out of float range")
    return value


def _mean_below_zero(atoms: Sequence[tuple[float, float]], h: float, w: float) -> float:
    """The tilted mean of a support below 0, each weight scaled by e^(a - a_max).

    a_max is taken over the atoms of positive weight, and atoms of weight 0
    enter neither sum: e^(a - a_max) of one of them may overflow.
    """
    weighted = [(x, p, h * (w if w < x else x)) for x, p in atoms if p != 0]
    top = max(a for _, p, a in weighted if p > 0)
    scaled = [(x, p * math.exp(a - top)) for x, p, a in weighted]
    return _finite(math.fsum(x * q for x, q in scaled) / math.fsum(q for _, q in scaled))


def tilted_mean_signed(atoms: Sequence[tuple[float, float]], h: float, w: float) -> float:
    """Tilted mean over an explicit signed support; the evaluation core.

    The cap min(x, w) is written inline as ``w if w < x else x``, the rule
    the builtin ``min`` applies (x on a tie, for NaN on either side, and for
    zeros of either sign), without a call per atom.  The numerator is summed
    as x p (e^{h min(x, w)} - 1) plus x p.  For a symmetric law the +-x terms
    of the first sum share one sign and the second sum is exactly zero;
    summed as x p e^{h min(x, w)}, the +-x terms would cancel to about
    2 h x^2 p and keep the rounding error of x p.  A support with every atom
    below 0 is summed as x p e^(a - a_max) over p e^(a - a_max) instead,
    a = h min(x, w) and a_max the largest a of positive weight, leaving out
    atoms of weight 0: there ``expm1`` rounds to -1 far out and the two
    numerator sums cancel, while the terms of each shifted sum share one
    sign.  A result out of float range, infinite or NaN, raises
    OverflowError, as does a denominator that underflows to 0; a support
    whose weights sum to 0 (none at all, or every p zero) raises ValueError,
    as does a weight that is negative, NaN or infinite.
    """
    shifted, linear, weights = [], [], []
    for x, p in atoms:
        a = h * (w if w < x else x)
        xp = x * p
        shifted.append(xp * math.expm1(a))
        linear.append(xp)
        weights.append(math.exp(a) * p)
    total = math.fsum(weights)
    if not (0.0 < total < math.inf and min(weights) > 0.0):
        # a weight is 0, negative, NaN or infinite, or the total is out of
        # range; e^a p of a negative p may underflow to -0.0, so read each p
        for _, p in atoms:
            if not 0.0 <= p < math.inf:
                raise ValueError(f"weights must be finite and >= 0, got {p}")
    try:
        moment = math.fsum(linear)  # exactly 0 for a symmetric law: one comparison
        if moment < 0.0 and max(x for x, _ in atoms) < 0.0:
            return _mean_below_zero(atoms, h, w)
        return _finite((math.fsum(shifted) + moment) / total)
    except ZeroDivisionError:
        if math.fsum(p for _, p in atoms) == 0:
            raise ValueError("the support has no weight") from None
        raise OverflowError("result out of float range") from None


def tilted_mean(dist: SymmetricDiscreteDistribution, p: TiltParams) -> float:
    """The tilted-capped mean m(h, w); denominator is always positive."""
    return tilted_mean_signed(dist.signed_atoms(), p.h, p.w)


def symmetric_factor(p: TiltParams) -> float:
    """sinh(hw)/w, the sharp c with mean < c * E[X^2] for symmetric X."""
    return math.sinh(p.h * p.w) / p.w


class BoundCheck(NamedTuple):
    mean: float
    bound: float
    margin: float

    @property
    def holds(self) -> bool:
        """0 < mean < bound, allowing the slack STRICTNESS_SLACK * min(1, bound).

        The slack is absolute for a bound of 1 or more and relative below, so
        a law with a tiny E[X^2] does not hold whatever its mean.
        """
        slack = STRICTNESS_SLACK * min(1.0, self.bound)
        return self.mean > -slack and self.margin > -slack

    def to_dict(self) -> dict:
        return {**self._asdict(), "holds": self.holds}


def check_bound(dist: SymmetricDiscreteDistribution, p: TiltParams) -> BoundCheck:
    """Evaluate mean, the symmetric-class bound, and their margin.

    Requires E[X^2] > 0; a point mass at zero has no meaningful bound and
    raises DegenerateDistributionError, as does a law with weight off zero
    whose E[X^2] is 0 or subnormal in floating point (atoms near 1e-200 or
    1e-160), under a message saying so: the floor is ``sys.float_info.min``,
    as in ``extremal.sup_symmetric``.  A subnormal bound sinh(hw)/w * E[X^2]
    (``bound-check --h 1e-320``) raises ValueError under the same floor,
    since it keeps only a few significant digits.  A mean or bound out of
    float range raises OverflowError.
    """
    s2 = dist.second_moment()
    if s2 < sys.float_info.min:
        if any(x and p for x, p in dist.atoms):
            raise DegenerateDistributionError("second moment underflows below the smallest normal float")
        raise DegenerateDistributionError("second moment must be positive")
    mean = tilted_mean(dist, p)
    bound = _finite(symmetric_factor(p) * s2)
    if bound < sys.float_info.min:
        raise ValueError("sinh(hw)/w * E[X^2] must be at least the smallest normal float")
    return BoundCheck(mean=mean, bound=bound, margin=bound - mean)


# ---------------------------------------------------------------------------
# Symmetrized comparison expressions (h = 1 normalization)
# ---------------------------------------------------------------------------


def _g(x, ew):
    """(2 g0(x), 2 g1(x)), with min(x, w) resolved to w if ``ew`` is e^w, to x if it is None."""
    if ew is None:
        return 2 * vcosh(x), 2 * x * vsinh(x)
    enx = vexp(-x)
    return ew + enx, x * (ew - enx)


def d(u, v, w, u_capped: bool, v_capped: bool):
    """d(u, v, w) = 2g1(u) + 2g1(v) - so(w) (2g0(u) v^2 + 2g0(v) u^2), so(w) = sinh(w)/w.

    Generic over float, Interval, Dual and Laurent.  ``u_capped`` and
    ``v_capped`` resolve each min(x, w): a capped side (x >= w) is written
    in exponentials, an uncapped one in sinh and cosh; e^w is computed
    once and shared by both capped sides.
    """
    ew = vexp(w) if u_capped or v_capped else None
    gu0, gu1 = _g(u, ew if u_capped else None)
    gv0, gv1 = _g(v, ew if v_capped else None)
    return gu1 + gv1 - vsinh_over(w) * (gu0 * (v * v) + gv0 * (u * u))


def d_expr(u: float, v: float, w: float) -> float:
    """Comparison expression whose negativity implies the symmetric bound.

    d(u, v, w) = 2 [g1(u) + g1(v) - (sinh w / w)(g0(u) v^2 + g0(v) u^2)],
    at tilt rate 1 (general rates reduce to this by rescaling), evaluated
    by :func:`d`.  Boundary inputs u = 0 or v = 0 are allowed and return
    the continuous limit.  A result out of float range raises OverflowError.
    """
    if u < 0 or v < 0:
        raise ValueError("u and v must be >= 0")
    if w <= 0:
        raise ValueError("cap level w must be positive")
    return _finite(d(u, v, w, u >= w, v >= w))
