"""Numerical search for the largest tilted-capped mean under moment constraints.

The sharpness side of the bound: over symmetric laws with E[X^2] = s^2 the
supremum of the tilted mean, divided by s^2, climbs to sinh(hw)/w as s drops
to 0, driven by the three-point family supported on {-w, 0, w}.
:func:`ratio_limit_scan` reproduces that limit numerically through
:func:`sup_symmetric`, which takes E[X^2] = sigma2 and places atoms from
sigma out to a range derived from h, w, sigma2 and the value found (see
there).  The theorem and this search are about symmetric laws only; the
zero-mean factor (e^{hw} - 1)/w is a comparison point, and the tests show
with the closed-form two-point law on {w, -sigma2/w} that a zero-mean law
exceeds sinh(hw)/w, so the symmetric bound needs symmetry.

The optimizer is deterministic (no randomness) so scans are reproducible run
to run.  For fixed atom positions the objective is a ratio of two linear
functions of the weights, so over the weight polytope cut out by the mass and
second-moment constraints the optimum sits at a vertex with at most two
active support points: a pair +-x with an atom at zero, or two pairs.  The
search covers the first kind, the three-point law on {-x, 0, x} with pair
weight sigma2 / x^2, over x alone, and scores each candidate by one
:func:`~.tilted.tilted_mean_signed` call on one tuple, the law's signed
support, with no list, law object or validation per candidate; it returns
the best candidate's tuple as its atoms, with no law built per search.  The
two-pair vertices are left to a Tier-1 falsifier, which builds them on a
grid from their closed-form weights and finds none above the search's value
beyond a few ulps of rounding.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple, Sequence

from .tilted import TiltParams, symmetric_factor, tilted_mean_signed


def _three_point_signed(sigma2: float, x: float) -> tuple[tuple[float, float], ...] | None:
    """Signed support of the law on {-x, 0, x} with E[X^2] = sigma2, or None when infeasible.

    Feasible when 0 < sigma2 <= x^2, so the mass at zero is not negative.
    With q = sigma2 / x^2 the support is (0, 1 - q), then (-x, q/2) and
    (x, q/2): the zero atom only when 1 - q > 0, the pair only when q > 0
    (q/2 of a subnormal q may round to 0, and the pair still appears).
    The search scores this tuple and returns the best one as its atoms.
    """
    if not (0 < sigma2 <= x * x):
        return None
    pair = sigma2 / (x * x)
    zero, half = 1.0 - pair, pair / 2
    if zero > 0:
        return ((0.0, zero), (-x, half), (x, half)) if pair > 0 else ((0.0, zero),)
    return ((-x, half), (x, half))  # zero <= 0 means q >= 1


# -- deterministic refinement ------------------------------------------------


REFINE_POINTS = 129  # even steps of each grid of _refine_scalar
REFINE_ROUNDS = 4  # shrinking windows after its first grid


def _refine_scalar(
    objective: Callable[[float], float], lo: float, hi: float, extra: Sequence[float] = ()
) -> tuple[float, float]:
    """Grid search with shrinking windows; returns (best_x, best_value).

    Round 0 scans [lo, hi] at ``REFINE_POINTS`` even steps plus the
    ``extra`` points inside it; each of the ``REFINE_ROUNDS`` that follow
    scans the steps of one grid spacing either side of the best point so
    far, within [lo, hi].
    """
    best_x, best_val = lo, -math.inf
    window_lo, window_hi = lo, hi
    extras = [x for x in extra if lo <= x <= hi]
    for _ in range(REFINE_ROUNDS + 1):
        width = window_hi - window_lo
        steps = [window_lo + width * i / (REFINE_POINTS - 1) for i in range(REFINE_POINTS)]
        for x in steps + extras:
            val = objective(x)
            if val > best_val:
                best_x, best_val = x, val
        extras = []
        span = width / (REFINE_POINTS - 1)
        window_lo, window_hi = max(lo, best_x - span), min(hi, best_x + span)
    return best_x, best_val


class SupSearchResult(NamedTuple):
    value: float
    atoms: tuple[tuple[float, float], ...]  # signed support


def sup_symmetric(sigma2: float, p: TiltParams) -> SupSearchResult:
    """Best tilted mean found over symmetric laws with E[X^2] = sigma2.

    Searches the three-point laws on {-x, 0, x} for x in [sigma, x_max],
    x_max = max(4w, sigma), then in [x_max, X] when x_max < X < inf,
    X = max(w, 2 sigma, 2 sigma2 e^(hw) / (3L)) with L the first value
    found: for x >= max(w, 2 sigma) the mean's numerator is at most
    sigma2 e^(hw) / (2x) and its denominator at least 1 - sigma2 / x^2 >=
    3/4, so no x beyond X beats L.  When sigma >= 4w the first segment is
    the one point sigma, or the next float up when sigma^2 rounds below
    sigma2, so L is the value of a feasible law.  The second point replaces
    the first only with a strictly larger value.  The value is a lower
    bound on the true supremum.  Each candidate x is scored by one
    :func:`~.tilted.tilted_mean_signed` call on the tuple
    :func:`_three_point_signed` lays out, and an infeasible one scores
    -inf; the atoms returned are the best candidate's tuple, laid out
    again at float(x) (an int w makes the grid point x = w an int), and no
    law is built.

    sigma2 must be finite and at least the smallest normal float: the pair
    weight sigma2 / x^2 solved from a subnormal sigma2 loses its precision
    (the search then reported ratios above sinh(hw)/w), and a sigma2 that
    underflows to 0 leaves the point mass at zero, a law with E[X^2] = 0.
    The bound scale sinh(hw)/w * sigma2, which the mean found is near, must
    not be subnormal either: it loses its precision too (``extremal --h
    1e-320`` printed ratios 8.7% above the factor, and 0.0).
    """
    if not (math.isfinite(sigma2) and sigma2 >= sys.float_info.min):
        raise ValueError("sigma2 must be finite and at least the smallest normal float")
    if symmetric_factor(p) * sigma2 < sys.float_info.min:
        raise ValueError("sinh(hw)/w * sigma2 must be at least the smallest normal float")
    four_w = 4.0 * p.w
    sigma = math.sqrt(sigma2)
    h, w = p

    def value(x: float) -> float:
        signed = _three_point_signed(sigma2, x)
        return -math.inf if signed is None else tilted_mean_signed(signed, h, w)

    if sigma < four_w:
        best_x, best_val = _refine_scalar(value, sigma, four_w, extra=(p.w, sigma))
    else:
        best_x = sigma if sigma * sigma >= sigma2 else math.nextafter(sigma, math.inf)
        best_val = value(best_x)
    x_max = max(four_w, sigma)
    # X of the docstring: no x beyond reach beats best_val
    reach = max(p.w, 2.0 * sigma, 2.0 * sigma2 * math.exp(p.h * p.w) / (3.0 * best_val))
    if x_max < reach < math.inf:
        far_x, far_val = _refine_scalar(value, x_max, reach)
        if far_val > best_val:
            best_x, best_val = far_x, far_val
    return SupSearchResult(best_val, _three_point_signed(sigma2, float(best_x)))


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
    5e-151`` prints -2.2e-16).  Each row's search reaches as far past 4w as
    :func:`sup_symmetric` derives its best pair can lie.  An exact gap is
    ROADMAP open item 11.
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
