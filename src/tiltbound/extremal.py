"""Numerical search for the largest tilted-capped mean under moment constraints.

The sharpness side of the bound: over symmetric laws with E[X^2] = s^2 the
supremum of the tilted mean, divided by s^2, climbs to sinh(hw)/w as s drops
to 0, driven by the three-point family supported on {-w, 0, w}.
:func:`ratio_limit_scan` reproduces that limit numerically through
:func:`sup_symmetric`, which takes E[X^2] = sigma2 and places atoms in
[-4w, 4w].  The theorem and this search are about symmetric laws only; the
zero-mean factor (e^{hw} - 1)/w is a comparison point, and the tests show
with the closed-form two-point law on {w, -sigma2/w} that a zero-mean law
exceeds sinh(hw)/w, so the symmetric bound needs symmetry.

The optimizer is deterministic (no randomness) so scans are reproducible run
to run.  For fixed atom positions the objective is a ratio of two linear
functions of the weights, so over the weight polytope cut out by the mass and
second-moment constraints the optimum sits at a vertex with at most two
active support points: a pair +-x with an atom at zero, or two pairs.  The
search covers the first kind, the three-point law on {-x, 0, x} with pair
weight sigma2 / x^2, over x alone, and scores each candidate with
:func:`~.tilted.tilted_mean_signed` of its signed atoms.  The two-pair
vertices are left to a Tier-1 falsifier, which builds them on a grid from
their closed-form weights and finds none above the search's value beyond a
few ulps of rounding.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple, Sequence

from .tilted import SymmetricDiscreteDistribution, TiltParams, symmetric_factor, tilted_mean_signed


def _check_sigma2(sigma2: float) -> None:
    """Reject a second moment that is not finite or is below the smallest normal float.

    The pair weight sigma2 / x^2 solved from a subnormal sigma2 loses its
    precision (the search then reported ratios above sinh(hw)/w), and a
    sigma2 that underflows to 0 leaves the point mass at zero, a law with
    E[X^2] = 0.
    """
    if not (math.isfinite(sigma2) and sigma2 >= sys.float_info.min):
        raise ValueError("sigma2 must be finite and at least the smallest normal float")


def _three_point(sigma2: float, x: float) -> SymmetricDiscreteDistribution:
    """The law on {-x, 0, x} with E[X^2] = sigma2: pair weight sigma2 / x^2, the rest at zero.

    Feasible when 0 < sigma2 <= x^2, so the mass at zero is not negative;
    anything else raises ValueError.  An atom of weight 0 is left out.
    """
    if not (0 < sigma2 <= x * x):
        raise ValueError("infeasible three-point law: needs 0 < sigma2 <= x^2")
    pair = sigma2 / (x * x)
    return SymmetricDiscreteDistribution([(z, q) for z, q in ((0.0, 1.0 - pair), (x, pair)) if q > 0])


def three_point_extremal(sigma: float, w: float) -> SymmetricDiscreteDistribution:
    """Three-point law on {-w, 0, w} with E[X^2] = sigma^2.

    Pair weight sigma^2 / w^2 splits evenly over +-w; the rest sits at zero.
    Requires 0 < sigma < w so the zero mass stays positive, and sigma^2 and
    the pair weight at least the smallest normal float: a subnormal weight
    loses its precision, and one that underflows (w^2 may overflow) leaves
    the point mass at zero.
    """
    if not (0 < sigma < w):
        raise ValueError("three-point family needs 0 < sigma < w")
    _check_sigma2(sigma * sigma)
    if sigma * sigma / (w * w) < sys.float_info.min:
        raise ValueError("pair weight sigma^2 / w^2 must be at least the smallest normal float")
    return _three_point(sigma * sigma, w)


# -- deterministic refinement ------------------------------------------------


def _refine_scalar(
    objective: Callable[[float], float],
    lo: float,
    hi: float,
    extra: Sequence[float] = (),
    points: int = 129,
    rounds: int = 4,
) -> tuple[float, float]:
    """Grid search with shrinking windows; returns (best_x, best_value).

    Round 0 scans [lo, hi] at ``points`` even steps plus the ``extra``
    points inside it; each of the ``rounds`` that follow scans the steps of
    one grid spacing either side of the best point so far, within [lo, hi].
    """
    best_x, best_val = lo, -math.inf
    window_lo, window_hi = lo, hi
    extras = [x for x in extra if lo <= x <= hi]
    for _ in range(rounds + 1):
        width = window_hi - window_lo
        for x in [window_lo + width * i / (points - 1) for i in range(points)] + extras:
            val = objective(x)
            if val > best_val:
                best_x, best_val = x, val
        extras = []
        span = width / (points - 1)
        window_lo, window_hi = max(lo, best_x - span), min(hi, best_x + span)
    return best_x, best_val


class SupSearchResult(NamedTuple):
    value: float
    atoms: tuple[tuple[float, float], ...]  # signed support


def _atom_range(sigma2: float, p: TiltParams) -> float:
    """The search places atoms in [-4w, 4w]; sigma2 must fit inside.

    sigma2 must pass :func:`_check_sigma2`, and the bound scale
    sinh(hw)/w * sigma2, which the mean found is near, must not be
    subnormal: it loses its precision too (``extremal --h 1e-320`` printed
    ratios 8.7% above the factor, and 0.0).
    """
    _check_sigma2(sigma2)
    if symmetric_factor(p) * sigma2 < sys.float_info.min:
        raise ValueError("sinh(hw)/w * sigma2 must be at least the smallest normal float")
    x_max = 4.0 * p.w
    if sigma2 > x_max * x_max:
        raise ValueError("infeasible: sigma exceeds the atom range")
    return x_max


def sup_symmetric(sigma2: float, p: TiltParams) -> SupSearchResult:
    """Best tilted mean found over symmetric laws with E[X^2] = sigma2.

    Searches the three-point laws on {-x, 0, x} for x in [sigma, 4w]; the
    value is a lower bound on the true supremum.  The atoms are the signed
    support of the best law, without atoms of weight 0.
    """
    x_max = _atom_range(sigma2, p)
    sigma = math.sqrt(sigma2)

    def value(x: float) -> float:
        try:
            law = _three_point(sigma2, x)
        except ValueError:
            return -math.inf
        return tilted_mean_signed(law.signed_atoms(), p.h, p.w)

    extras = [x for x in (p.w, sigma) if sigma <= x <= x_max]
    best_x, best_val = _refine_scalar(value, sigma, x_max, extra=extras)
    return SupSearchResult(best_val, tuple(_three_point(sigma2, best_x).signed_atoms()))


# -- sharpness scan ----------------------------------------------------------


_SCAN_COLUMNS = ("sigma", "sup", "ratio", "bound_factor", "gap")  # to_dict keys, CSV columns


class ScanRow(NamedTuple):
    sigma: float
    sup: float
    ratio: float
    bound_factor: float
    gap: float
    atoms: tuple[tuple[float, float], ...]  # signed support of the best law found

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in _SCAN_COLUMNS}


def ratio_limit_scan(p: TiltParams, sigmas: Sequence[float]) -> list[ScanRow]:
    """sup / sigma^2 for each sigma; the ratios climb toward sinh(hw)/w.

    The true gap to the bound factor is positive (the bound is strict for
    every positive sigma), but it can fall below the rounding error of the
    float ratio, so the gap column, factor - ratio in floats, is within a
    few ulps of 0 on either side there (``extremal --w 1e-150 --sigma
    5e-151`` prints -2.2e-16).  An exact gap is ROADMAP open item 7.
    """
    factor = symmetric_factor(p)
    rows = []
    for sigma in sigmas:
        if not (0 < sigma < p.w):
            raise ValueError("scan requires 0 < sigma < w")
        found = sup_symmetric(sigma * sigma, p)
        ratio = found.value / (sigma * sigma)
        rows.append(
            ScanRow(
                sigma=sigma,
                sup=found.value,
                ratio=ratio,
                bound_factor=factor,
                gap=factor - ratio,
                atoms=found.atoms,
            )
        )
    return rows


def scan_to_csv(rows: Sequence[ScanRow]) -> str:
    lines = [",".join(_SCAN_COLUMNS)]
    for row in rows:
        lines.append(",".join(repr(getattr(row, name)) for name in _SCAN_COLUMNS))
    return "\n".join(lines) + "\n"
