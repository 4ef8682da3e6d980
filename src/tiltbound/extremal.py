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
active support points; the search therefore enumerates the pair family of
:func:`pair_atoms` (one pair plus an atom at zero, or two pairs) with weights
solved exactly.  The two-pair family goes through :func:`_coordinate_search`:
the first best point of a 2-D grid, then coordinate refinement up to its
fixed point.  A private pair objective evaluates each candidate to the same
float as :func:`~.tilted.tilted_mean_signed` of its :func:`pair_atoms`, from
exponentials computed once per support point.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

# bench/tracing.py counts calls through extremal.tilted_mean_signed
from .tilted import SymmetricDiscreteDistribution, TiltParams, symmetric_factor, tilted_mean_signed


def three_point_extremal(sigma: float, w: float) -> SymmetricDiscreteDistribution:
    """Three-point law on {-w, 0, w} with E[X^2] = sigma^2.

    Pair weight sigma^2 / w^2 splits evenly over +-w; the rest sits at zero.
    Requires 0 < sigma < w so the zero mass stays positive.
    """
    if not (0 < sigma < w):
        raise ValueError("three-point family needs 0 < sigma < w")
    pair = sigma * sigma / (w * w)
    return SymmetricDiscreteDistribution([(0.0, 1.0 - pair), (w, pair)])


# -- candidate laws as signed atoms (weights solved from the constraints) ---


def _high_pair_weight(x_low: float, x_high: float, sigma2: float) -> float:
    """Weight q_high of the +-x_high pair in :func:`pair_atoms`; the one feasibility rule.

    Feasible when 0 <= x_low < x_high and x_low^2 <= sigma2 <= x_high^2 with
    the two squares distinct as floats (both underflow to 0.0 for points
    such as 1e-170 and 2e-170); anything else raises ValueError.
    """
    low2, high2 = x_low * x_low, x_high * x_high
    if not (0 <= x_low < x_high and low2 <= sigma2 <= high2 and low2 < high2):
        raise ValueError("infeasible pair configuration")
    return (sigma2 - low2) / (high2 - low2)


def pair_atoms(x_low: float, x_high: float, sigma2: float) -> list[tuple[float, float]]:
    """Signed atoms of the symmetric law on {+-x_low, +-x_high} with E[X^2] = sigma2.

    Feasible when 0 <= x_low < x_high and x_low^2 <= sigma2 <= x_high^2; the
    two pair weights are then determined.  At x_low = 0 the low pair is the
    single atom (0, q) of the family on {-x_high, 0, x_high}.  A pair of
    weight 0 is left out, and the order is that of ``signed_atoms()``.
    """
    q_high = _high_pair_weight(x_low, x_high, sigma2)
    atoms = []
    for x, q in ((x_low, 1.0 - q_high), (x_high, q_high)):
        if q > 0:
            atoms.extend([(0.0, q)] if x == 0.0 else [(-x, q / 2), (x, q / 2)])
    return atoms


def _pair_objective(sigma2: float, p: TiltParams) -> Callable[[float, float], float]:
    """(x_low, x_high) -> tilted_mean_signed(pair_atoms(x_low, x_high, sigma2), p.h, p.w).

    The same float, with -inf for an infeasible pair: every summand is the
    reference's, computed by the same float operations.  The exponentials
    e^{h min(+-x, w)} - 1 and e^{h min(+-x, w)} depend on the support point x
    alone, so each point's are computed once, and every x >= w shares those
    of the cap h w.  The reference's sum of the x p terms is exactly 0.0 for
    symmetric atoms, since (-x) p == -(x p), and the atom at zero adds only
    its weight, e^0 q = q.
    """
    h, w = p.h, p.w
    cap = h * w
    cap_tilt = (math.expm1(cap), math.exp(cap))
    tilts: dict[float, tuple[float, float, float, float]] = {}

    def pair_terms(x: float, q: float) -> tuple[tuple[float, float], tuple[float, float]]:
        """Summands of the atoms (-x, q/2), (x, q/2) for x > 0: shifted, then weights."""
        tilt = tilts.get(x)
        if tilt is None:
            low = -(h * x)  # h min(-x, w), as -x < 0 < w
            high = (math.expm1(h * x), math.exp(h * x)) if x < w else cap_tilt
            tilt = tilts[x] = (math.expm1(low), math.exp(low), *high)
        expm1_low, exp_low, expm1_high, exp_high = tilt
        half = q / 2
        xp = x * half
        return (-xp * expm1_low, xp * expm1_high), (exp_low * half, exp_high * half)

    def value(x_low: float, x_high: float) -> float:
        try:
            q_high = _high_pair_weight(x_low, x_high, sigma2)
        except ValueError:
            return -math.inf
        q_low = 1.0 - q_high
        shifted, weights = (), ()
        if q_low > 0:
            if x_low == 0.0:
                weights = (q_low,)
            else:
                shifted, weights = pair_terms(x_low, q_low)
        if q_high > 0:
            high_shifted, high_weights = pair_terms(x_high, q_high)
            shifted += high_shifted
            weights += high_weights
        return (math.fsum(shifted) + 0.0) / math.fsum(weights)

    return value


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


def _coordinate_search(
    value: Callable[[float, float], float], xs: list[float], ys: list[float],
    x_window: tuple[float, float, Sequence[float]], y_window: tuple[float, float, Sequence[float]],
) -> tuple[float, float, float]:
    """Best (x, y, value) of a 2-D objective over the grid ``xs`` x ``ys``.

    Takes the first best point of the grid ``for x in xs: for y in ys``
    (``(xs[0], ys[-1])`` if none beats -inf), then refines one coordinate at
    a time with :func:`_refine_scalar`: x over ``x_window``, then y over
    ``y_window``, each a ``(lo, hi, extra)`` tuple.  A round that leaves y
    where it began would be repeated call for call by the next, so the
    refinement stops there, after at most 3 rounds.
    """
    best_x, best_y = xs[0], ys[-1]
    best_val = -math.inf
    for x in xs:
        for y in ys:
            val = value(x, y)
            if val > best_val:
                best_x, best_y, best_val = x, y, val
    for _ in range(3):  # each coordinate at 65 points, 2 rounds
        best_x, _ = _refine_scalar(lambda x: value(x, best_y), *x_window, 65, 2)
        last_y = best_y
        best_y, best_val = _refine_scalar(lambda y: value(best_x, y), *y_window, 65, 2)
        if best_y == last_y:
            break
    return best_x, best_y, best_val


@dataclass(frozen=True)
class SupSearchResult:
    value: float
    atoms: tuple[tuple[float, float], ...]  # signed support


def _atom_range(sigma2: float, p: TiltParams) -> float:
    """The search places atoms in [-4w, 4w]; sigma2 must fit inside.

    A subnormal sigma2 is rejected: the weights solved from it lose their
    precision, and the search then reports ratios above sinh(hw)/w.  So is a
    subnormal bound scale sinh(hw)/w * sigma2, which the mean found is near:
    it loses its precision too (``extremal --h 1e-320`` printed ratios 8.7%
    above the factor, and 0.0).
    """
    if not (math.isfinite(sigma2) and sigma2 >= sys.float_info.min):
        raise ValueError("sigma2 must be finite and at least the smallest normal float")
    if symmetric_factor(p) * sigma2 < sys.float_info.min:
        raise ValueError("sinh(hw)/w * sigma2 must be at least the smallest normal float")
    x_max = 4.0 * p.w
    if sigma2 > x_max * x_max:
        raise ValueError("infeasible: sigma exceeds the atom range")
    return x_max


def sup_symmetric(sigma2: float, p: TiltParams) -> SupSearchResult:
    """Best tilted mean found over symmetric laws with E[X^2] = sigma2.

    Searches :func:`pair_atoms` supports in [-4w, 4w], first with x_low = 0
    and then with two pairs; the value is a lower bound on the true supremum.
    """
    x_max = _atom_range(sigma2, p)
    sigma = math.sqrt(sigma2)
    pair_value = _pair_objective(sigma2, p)

    extras = [x for x in (p.w, sigma) if sigma <= x <= x_max]
    best_x, best_val = _refine_scalar(lambda x: pair_value(0.0, x), sigma, x_max, extra=extras)
    best_atoms = pair_atoms(0.0, best_x, sigma2)

    # The solved pair weights lose precision as sigma shrinks, so the
    # two-pair search runs only for sigma > 1e-9.
    if sigma > 1e-9:
        grid_n = 33
        lows = [sigma * i / grid_n for i in range(1, grid_n + 1)]
        highs = [sigma + (x_max - sigma) * i / (grid_n - 1) for i in range(grid_n)]
        best_lo, best_hi, best_two = _coordinate_search(
            pair_value, lows, highs, (sigma / grid_n, sigma, ()), (sigma, x_max, (p.w,))
        )
        if best_two > best_val:
            best_val = best_two
            best_atoms = pair_atoms(best_lo, best_hi, sigma2)

    return SupSearchResult(best_val, tuple(best_atoms))


# -- sharpness scan ----------------------------------------------------------


_SCAN_COLUMNS = ("sigma", "sup", "ratio", "bound_factor", "gap")  # to_dict keys, CSV columns


@dataclass(frozen=True)
class ScanRow:
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
