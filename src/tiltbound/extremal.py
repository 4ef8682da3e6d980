"""Numerical search for the largest tilted-capped mean under moment constraints.

The sharpness side of the bound: over symmetric laws with E[X^2] = s^2 the
supremum of the tilted mean, divided by s^2, climbs to sinh(hw)/w as s drops
to 0, driven by the three-point family supported on {-w, 0, w}.
:func:`ratio_limit_scan` reproduces that limit numerically through
:func:`sup_symmetric`.  :func:`sup_zero_mean` searches the zero-mean class,
whose corresponding constant is the larger (e^{hw} - 1)/w.  Both searches
take E[X^2] = sigma2 and place atoms in [-4w, 4w].

The optimizer is deterministic (coarse grids plus coordinate refinement, no
randomness) so scans are reproducible run to run.  For fixed atom positions
the objective is a ratio of two linear functions of the weights, so over the
weight polytope cut out by the mass and second-moment constraints the optimum
sits at a vertex with at most two active support points; the search therefore
enumerates the pair family of :func:`pair_atoms` (one pair plus an atom at
zero, or two pairs) with weights solved exactly.  A private pair objective
evaluates each candidate to the same float as :func:`tilted_mean_signed` of
its :func:`pair_atoms`, from exponentials computed once per support point.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

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


def zero_mean_three_atom(
    x_pos: float, x_neg: float, sigma2: float
) -> list[tuple[float, float]]:
    """Zero-mean signed atoms {x_pos, -x_neg, 0} with E[X^2] = sigma2.

    Solving E X = 0 and E X^2 = sigma2 gives the two outer weights; the
    remainder sits at zero and must be nonnegative, i.e. x_pos * x_neg >=
    sigma2.
    """
    if x_pos <= 0 or x_neg <= 0:
        raise ValueError("support points must be positive")
    q_pos = sigma2 / (x_pos * (x_pos + x_neg))
    q_neg = sigma2 / (x_neg * (x_pos + x_neg))
    q_zero = 1.0 - q_pos - q_neg
    if q_zero < -1e-12:
        raise ValueError("infeasible: support too close to zero for the moment")
    atoms = [(-x_neg, q_neg), (x_pos, q_pos)]
    if q_zero > 0:
        atoms.append((0.0, q_zero))
    return atoms


# -- deterministic refinement ------------------------------------------------


def _refine_scalar(
    objective: Callable[[float], float],
    lo: float,
    hi: float,
    extra: Sequence[float] = (),
    points: int = 129,
    rounds: int = 4,
) -> tuple[float, float]:
    """Grid search with shrinking windows; returns (best_x, best_value)."""
    best_x, best_val = lo, -math.inf
    candidates = [lo + (hi - lo) * i / (points - 1) for i in range(points)]
    candidates.extend(x for x in extra if lo <= x <= hi)
    for x in candidates:
        val = objective(x)
        if val > best_val:
            best_x, best_val = x, val
    span = (hi - lo) / (points - 1)
    for _ in range(rounds):
        window_lo = max(lo, best_x - span)
        window_hi = min(hi, best_x + span)
        for i in range(points):
            x = window_lo + (window_hi - window_lo) * i / (points - 1)
            val = objective(x)
            if val > best_val:
                best_x, best_val = x, val
        span = (window_hi - window_lo) / (points - 1)
    return best_x, best_val


@dataclass(frozen=True)
class SupSearchResult:
    value: float
    atoms: tuple[tuple[float, float], ...]  # signed support


def _atom_range(sigma2: float, p: TiltParams) -> float:
    """The searches place atoms in [-4w, 4w]; sigma2 must fit inside.

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
        best_lo, best_hi, best_two = lows[0], highs[-1], -math.inf
        for xl in lows:
            for xh in highs:
                val = pair_value(xl, xh)
                if val > best_two:
                    best_lo, best_hi, best_two = xl, xh, val
        for _ in range(3):  # coordinate refinement, up to its fixed point
            best_lo, best_two = _refine_scalar(
                lambda x: pair_value(x, best_hi), sigma / grid_n, sigma, points=65, rounds=2
            )
            last_hi = best_hi
            best_hi, best_two = _refine_scalar(
                lambda x: pair_value(best_lo, x), sigma, x_max, extra=[p.w], points=65, rounds=2
            )
            if best_hi == last_hi:  # a further round would repeat this one
                break
        if best_two > best_val:
            best_val = best_two
            best_atoms = pair_atoms(best_lo, best_hi, sigma2)

    return SupSearchResult(best_val, tuple(best_atoms))


def sup_zero_mean(sigma2: float, p: TiltParams) -> SupSearchResult:
    """Best tilted mean found over zero-mean laws with E[X^2] = sigma2.

    Searches three-atom supports {x_pos, -x_neg, 0} in [-4w, 4w]; the value
    is a lower bound on the true supremum, which approaches the factor
    (e^{hw} - 1)/w as sigma2 drops to 0.
    """
    x_max = _atom_range(sigma2, p)

    def value(x_pos: float, x_neg: float) -> float:
        try:  # zero_mean_three_atom is the one feasibility check
            atoms = zero_mean_three_atom(x_pos, x_neg, sigma2)
        except ValueError:
            return -math.inf
        return tilted_mean_signed(atoms, p.h, p.w)

    # x_neg spans many orders of magnitude (the extremal shape pushes it to
    # its feasibility floor sigma2 / x_pos), so scan it on a log scale.
    def neg_grid(x_pos: float, n: int = 65) -> list[float]:
        floor = sigma2 / x_pos
        if floor >= x_max:
            return []
        ratio = x_max / floor
        return [floor * ratio ** (i / (n - 1)) for i in range(n)]

    pos_points = [sigma2 / x_max + (x_max - sigma2 / x_max) * i / 64 for i in range(65)]
    if sigma2 / x_max <= p.w <= x_max:
        pos_points.append(p.w)
    best = (-math.inf, x_max, x_max)
    for xp in pos_points:
        for xn in neg_grid(xp):
            val = value(xp, xn)
            if val > best[0]:
                best = (val, xp, xn)
    _, best_pos, best_neg = best
    for _ in range(3):  # coordinate refinement, up to its fixed point
        best_pos, _ = _refine_scalar(
            lambda x: value(x, best_neg), sigma2 / x_max, x_max, extra=[p.w], points=65, rounds=2
        )
        floor = sigma2 / best_pos
        last_neg = best_neg
        best_neg, best_value = _refine_scalar(
            lambda x: value(best_pos, x), floor, x_max, extra=[floor], points=65, rounds=2
        )
        if best_neg == last_neg:  # a further round would repeat this one
            break
    return SupSearchResult(best_value, tuple(zero_mean_three_atom(best_pos, best_neg, sigma2)))


# -- sharpness scan ----------------------------------------------------------


@dataclass(frozen=True)
class ScanRow:
    sigma: float
    sup: float
    ratio: float
    bound_factor: float
    gap: float
    atoms: tuple[tuple[float, float], ...]  # signed support of the best law found

    def to_dict(self) -> dict:
        return {
            "sigma": self.sigma,
            "sup": self.sup,
            "ratio": self.ratio,
            "bound_factor": self.bound_factor,
            "gap": self.gap,
        }


def ratio_limit_scan(p: TiltParams, sigmas: Sequence[float]) -> list[ScanRow]:
    """sup / sigma^2 for each sigma; the ratios climb toward sinh(hw)/w.

    The true gap to the bound factor is positive (the bound is strict for
    every positive sigma), but it can fall below the rounding error of the
    float ratio, so the gap column, factor - ratio in floats, is within a
    few ulps of 0 on either side there (``extremal --w 1e-150 --sigma
    5e-151`` prints -2.2e-16).  An exact gap is ROADMAP open item 6.
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
    lines = ["sigma,sup,ratio,bound_factor,gap"]
    for row in rows:
        lines.append(
            f"{row.sigma!r},{row.sup!r},{row.ratio!r},{row.bound_factor!r},{row.gap!r}"
        )
    return "\n".join(lines) + "\n"
