"""Interval certification of the multivariate negativity claims.

The symmetric bound reduces to d(u, v, w) < 0 for positive u, v, w, where d
is the symmetrized comparison expression from :mod:`tiltbound.tilted`.  The
proof splits the orthant by how u and v compare with the cap w:

    case 1:  0 < w <= u <= v
    case 2:  0 < u <= w <= v
    case 3:  0 < u <= v <= w   (reduces to case 2 by monotonicity in w)

On each region d loses its minimum operator and becomes an explicit
exp/sinh/cosh formula.  The catalog holds six closed forms:

    d_case1             d on case 1
    dv2_case1           second v-derivative of d on case 1 (concavity in v)
    dv_at_v_eq_u_case1  v-slope of d on case 1 at v = u
    d_case2             d on case 2
    d1_case2            w e^v times the v-slope of d on case 2
    d_at_v_eq_w_case2   d on the face v = w of case 2, as 2 u^2 Phi(u, w)

It bounds their ranges over boxes with outward-rounded interval arithmetic
sharpened by a mean-value form, and certifies strict negativity by adaptive
bisection.  ``tiltbound verify-proof`` bisects all of them but d_case1 and
d_case2, which it derives through :func:`verify_case_structure`: case 1
from concavity in v, the negative slope at v = u and the exact diagonal
v = u; case 2 from d1_case2 < 0 (d decreases in v) and the negative face;
case 3 from the face, by a replayed prover certificate plus an interval
enclosure.  Bisecting d_case1 and d_case2 themselves stays available as an
independent cross-check.

Certification is sound but not complete: d genuinely reaches 0 at u = 0 with
v = w, so boxes touching that edge come back UNDETERMINED with the undecided
sub-boxes as witnesses.  Every check here, :func:`verify_case_structure`
included, covers the bounded cube [lo, hi]^3 only; the unbounded tails are
not covered.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

from .exppoly import parse_expression
from .intervals import Dual, Interval, vcosh, vexp, vsinh, vsinh_over
from .prover import Outcome, decide_sign, replay
from .tilted import d_expr  # noqa: F401  (unused here; bench/tracing.py wraps regions.d_expr)


class EmptyRegionError(ValueError):
    """Box does not meet the ordering constraints of its case region."""


class CaseRegion(enum.Enum):
    CASE1 = "case1"  # w <= u <= v
    CASE2 = "case2"  # u <= w <= v
    CASE3 = "case3"  # u <= v <= w


_CASE_ORDER: dict[CaseRegion, tuple[tuple[str, str], ...]] = {
    CaseRegion.CASE1: (("w", "u"), ("u", "v")),
    CaseRegion.CASE2: (("u", "w"), ("w", "v")),
    CaseRegion.CASE3: (("u", "v"), ("v", "w")),
}

_AXES = ("u", "v", "w")


@dataclass(frozen=True)
class BoxRegion:
    """Axis-aligned box in (u, v, w) tagged with its case region."""

    u: tuple[float, float]
    v: tuple[float, float]
    w: tuple[float, float]
    case: CaseRegion

    def __post_init__(self):
        for name in _AXES:
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
                raise ValueError(f"invalid {name}-range [{lo}, {hi}]")

    def interval(self, axis: str) -> tuple[float, float]:
        return getattr(self, axis)

    def replace(self, axis: str, bounds: tuple[float, float]) -> "BoxRegion":
        parts = {name: getattr(self, name) for name in _AXES}
        parts[axis] = bounds
        return BoxRegion(case=self.case, **parts)

    def clipped(self, axes: tuple[str, ...] = _AXES) -> Optional["BoxRegion"]:
        """Bounding box of the intersection with the case-order constraints.

        Only constraints speaking about ``axes`` are applied; a restricted
        catalog expression (d_at_v_eq_w_case2 with v pinned to w, or
        dv_at_v_eq_u_case1 with v pinned to u) uses the surviving
        constraint among its own variables.  Returns None
        when the intersection is empty.
        """
        bounds = {name: list(getattr(self, name)) for name in _AXES}
        pairs = [
            (a, b) for a, b in _CASE_ORDER[self.case] if a in axes and b in axes
        ]
        for _ in range(2):  # a <= b chains settle after two sweeps
            for a, b in pairs:
                bounds[b][0] = max(bounds[b][0], bounds[a][0])
                bounds[a][1] = min(bounds[a][1], bounds[b][1])
        for name in axes:
            if bounds[name][0] > bounds[name][1]:
                return None
        return BoxRegion(
            u=tuple(bounds["u"]), v=tuple(bounds["v"]), w=tuple(bounds["w"]), case=self.case
        )

    def widest_axis(self, axes: tuple[str, ...]) -> str:
        return max(axes, key=lambda name: getattr(self, name)[1] - getattr(self, name)[0])

    def split(self, axis: str) -> tuple["BoxRegion", "BoxRegion"]:
        lo, hi = getattr(self, axis)
        mid = 0.5 * (lo + hi)
        return self.replace(axis, (lo, mid)), self.replace(axis, (mid, hi))

    def sort_key(self) -> tuple:
        return (self.u, self.v, self.w)

    def to_dict(self) -> dict:
        return {"u": list(self.u), "v": list(self.v), "w": list(self.w), "case": self.case.value}


# ---------------------------------------------------------------------------
# Expression catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProofExpr:
    """Closed form from the case analysis, generic over the value type.

    ``fn`` accepts floats, Intervals or Duals, in the order given by
    ``variables``.  ``point`` evaluates at floats.  The module docstring
    says what each catalog form is.
    """

    name: str
    variables: tuple[str, ...]
    case: CaseRegion
    fn: Callable

    def point(self, **values: float) -> float:
        return self.fn(*(values[name] for name in self.variables))


def _d_case1(u, v, w):
    f = vsinh_over(w)
    ew = vexp(w)
    return (
        (ew - vexp(-u)) * u
        + (ew - vexp(-v)) * v
        - f * (ew * (u * u + v * v) + vexp(-v) * (u * u) + vexp(-u) * (v * v))
    )


def _dv2_case1(u, v, w):
    return vexp(-v) * (2 - v) - vsinh_over(w) * (vexp(-v) * (u * u) + 2 * vexp(-u) + 2 * vexp(w))


def _dv_at_v_eq_u_case1(u, w):
    # the v-derivative of _d_case1, taken at v = u
    emu = vexp(-u)
    ew = vexp(w)
    return (ew - emu) + u * emu - vsinh_over(w) * (2 * u * ew - (u * u) * emu + 2 * u * emu)


def _d_case2(u, v, w):
    return (
        2 * u * vsinh(u)
        + v * (vsinh(v) + vsinh(w) + vcosh(w))
        - v * vcosh(v)
        - vsinh_over(w) * ((u * u) * (vexp(-v) + vexp(w)) + 2 * (v * v) * vcosh(u))
    )


def _d1_case2(u, v, w):
    return w * (vexp(v + w) - 1 + v) - vsinh(w) * (4 * v * vexp(v) * vcosh(u) - u * u)


def _d_at_v_eq_w_case2(u, w):
    # 2 u^2 Phi(u, w) with so = sinh(x)/x and
    #   Phi = so(u) - so(w) cosh(w) - (w sinh(w) / 2) so(u/2)^2,
    # exactly d(u, w, w) by 1 - cosh(u) = -(u^2 / 2) so(u/2)^2: the face
    # vanishes at u = 0 through the factor u^2 alone, with no cancellation
    half = vsinh_over(0.5 * u)
    phi = vsinh_over(u) - vsinh_over(w) * vcosh(w) - (0.5 * w) * vsinh(w) * (half * half)
    return 2 * (u * u) * phi


CATALOG: dict[str, ProofExpr] = {
    expr.name: expr
    for expr in (
        ProofExpr("d_case1", ("u", "v", "w"), CaseRegion.CASE1, _d_case1),
        ProofExpr("dv2_case1", ("u", "v", "w"), CaseRegion.CASE1, _dv2_case1),
        ProofExpr("dv_at_v_eq_u_case1", ("u", "w"), CaseRegion.CASE1, _dv_at_v_eq_u_case1),
        ProofExpr("d_case2", ("u", "v", "w"), CaseRegion.CASE2, _d_case2),
        ProofExpr("d1_case2", ("u", "v", "w"), CaseRegion.CASE2, _d1_case2),
        ProofExpr("d_at_v_eq_w_case2", ("u", "w"), CaseRegion.CASE2, _d_at_v_eq_w_case2),
    )
}


# ---------------------------------------------------------------------------
# Enclosures
# ---------------------------------------------------------------------------


def _enclosure(expr: ProofExpr, box: BoxRegion) -> Interval:
    """Interval evaluation sharpened by derivative information.

    Three rigorous enclosures are intersected: the naive evaluation, the
    mean-value form f(m) + grad(box) . (box - m) (quadratically tight in the
    box width, which rescues the cancellation-heavy expressions near the
    degenerate corner), and a monotonicity contraction: every axis whose
    gradient enclosure has a strict sign is pinned to the face where the
    supremum (respectively infimum) lives before re-evaluating.
    """
    arity = len(expr.variables)
    spans = [box.interval(name) for name in expr.variables]

    duals = [
        Dual.variable(Interval(lo, hi), index, arity)
        for index, (lo, hi) in enumerate(spans)
    ]
    full = expr.fn(*duals)
    naive: Interval = full.val

    mids = [Interval.point(0.5 * (lo + hi)) for lo, hi in spans]
    mean_value = expr.fn(*mids)
    for index, (lo, hi) in enumerate(spans):
        mid = 0.5 * (lo + hi)
        offset = Interval(_dnext(lo - mid), _unext(hi - mid))
        mean_value = mean_value + full.grad[index] * offset
    enclosure = naive.intersect(mean_value)

    upper_faces = []
    lower_faces = []
    monotone = False
    for index, (lo, hi) in enumerate(spans):
        grad = full.grad[index]
        if lo < hi and grad.hi < 0.0:
            monotone = True
            upper_faces.append(Interval.point(lo))
            lower_faces.append(Interval.point(hi))
        elif lo < hi and grad.lo > 0.0:
            monotone = True
            upper_faces.append(Interval.point(hi))
            lower_faces.append(Interval.point(lo))
        else:
            upper_faces.append(Interval(lo, hi))
            lower_faces.append(Interval(lo, hi))
    if monotone:
        sup_bound = expr.fn(*upper_faces).hi
        inf_bound = expr.fn(*lower_faces).lo
        enclosure = Interval(max(enclosure.lo, inf_bound), min(enclosure.hi, sup_bound))
    return enclosure


def _dnext(x: float) -> float:
    return math.nextafter(x, -math.inf)


def _unext(x: float) -> float:
    return math.nextafter(x, math.inf)


def _owner(expr: ProofExpr | str, box: BoxRegion) -> ProofExpr:
    """The catalog expression, which holds only on its own case region."""
    if isinstance(expr, str):
        expr = CATALOG[expr]
    if box.case is not expr.case:
        raise ValueError(
            f"{expr.name} is the closed form on {expr.case.value}, not on {box.case.value}"
        )
    return expr


def eval_interval(expr: ProofExpr | str, box: BoxRegion) -> Interval:
    """Rigorous enclosure of the expression's range over box ∩ case region.

    Raises ValueError when the box belongs to another case region than the
    expression, and EmptyRegionError when it misses its case region entirely.
    """
    expr = _owner(expr, box)
    clipped = box.clipped(expr.variables)
    if clipped is None:
        raise EmptyRegionError(
            f"box does not intersect the {box.case.value} ordering constraints"
        )
    return _enclosure(expr, clipped)


@dataclass(frozen=True)
class CertifyResult:
    certified: bool
    undecided: tuple[BoxRegion, ...]
    boxes_evaluated: int
    deepest_level: int


def certify_negative(expr: ProofExpr | str, box: BoxRegion, max_depth: int) -> CertifyResult:
    """Adaptive bisection proof that the expression is negative on the box.

    A sub-box is settled once its enclosure has hi < 0; otherwise its widest
    axis is halved, and each half keeps the parent's enclosure as a bound on
    its own.  ``max_depth`` caps how many times any single axis may be
    halved, so depth d resolves features down to (axis width) / 2^d.  The
    result is sound: ``certified`` means the expression is strictly negative
    everywhere on box ∩ case region.  Undecided boxes are returned in
    canonical order for inspection.  Raises ValueError when the box belongs
    to another case region than the expression.
    """
    expr = _owner(expr, box)
    axes = expr.variables
    root = box.clipped(axes)
    if root is None:
        return CertifyResult(True, (), 0, 0)

    undecided: list[BoxRegion] = []
    evaluated = 0
    deepest = 0
    zero_levels = {axis: 0 for axis in axes}
    stack: list[tuple[BoxRegion, dict[str, int], Interval | None]] = [
        (root, zero_levels, None)
    ]
    while stack:
        current, levels, inherited = stack.pop()
        clipped = current.clipped(axes)
        if clipped is None:
            continue
        enclosure = _enclosure(expr, clipped)
        if inherited is not None:
            enclosure = enclosure.intersect(inherited)
        evaluated += 1
        if enclosure.hi < 0.0:
            continue
        axis = clipped.widest_axis(axes)
        level = levels[axis]
        deepest = max(deepest, level)
        if level >= max_depth:
            undecided.append(clipped)
            continue
        child_levels = dict(levels)
        child_levels[axis] = level + 1
        left, right = clipped.split(axis)
        stack.append((right, child_levels, enclosure))
        stack.append((left, child_levels, enclosure))

    undecided.sort(key=lambda b: b.sort_key())
    return CertifyResult(not undecided, tuple(undecided), evaluated, deepest)


# ---------------------------------------------------------------------------
# Case-structure checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructureCheck:
    """One structural fact, with the region certification behind it if any."""

    name: str
    passed: bool
    detail: str
    result: Optional[CertifyResult] = None

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class CaseStructureReport:
    checks: tuple[StructureCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> StructureCheck:
        return next(c for c in self.checks if c.name == name)

    def to_dict(self) -> dict:
        return {"all_passed": self.all_passed, "checks": [c.to_dict() for c in self.checks]}


# sinh(w)/w increases on w > 0: its derivative is this over w^2
SINH_OVER_INCREASING = "w*cosh(w) - sinh(w)"


def verify_case_structure(lo: float, hi: float, max_depth: int) -> CaseStructureReport:
    """Certify the structural facts the case analysis rests on, on [lo, hi]^3.

    (a) concavity of d in v on case 1 (second v-derivative negative), so for
        fixed (u, w) d lies below its tangent at v = u:
        d(u, v, w) <= d(u, u, w) + d_v(u, u, w) (v - u);
    (b) the slope d_v(u, u, w) of that tangent is negative;
    (c) the diagonal d(u, u, w) is negative, by the exact identity
        d(u, u, w) = 4u e^((w-u)/2) (sinh(s) - u so(w) cosh(s)) with
        s = (u + w)/2 and so(x) = sinh(x)/x: case 1 gives s <= u and
        so(w) >= 1, so the bracket is at most sinh(s) - s cosh(s), which
        is negative for s > 0 because so increases (a replayed prover
        certificate); d(0, 0, 0) = 0, so this needs lo > 0;
    (d) d decreasing in v on case 2 (the scaled slope d1 negative), so d is
        at most its value on the face v = w;
    (e) case-3 reduction: d depends on w only through so(w), which
        increases (the same certificate) and multiplies the nonnegative
        u^2 cosh(v) + v^2 cosh(u), so d(u, v, w) <= d(u, v, v), a point of
        the face;
    (f) the face v = w, 2 u^2 Phi(u, w), is negative; it vanishes at u = 0
        through the factor u^2 alone.

    (a), (b), (d) and (f) are interval bisections whose results ride on
    their checks; every check passes only on certified or exact evidence.
    """
    checks: list[StructureCheck] = []

    def on_cube(check: str, name: str, claim: str) -> None:
        cube = BoxRegion(u=(lo, hi), v=(lo, hi), w=(lo, hi), case=CATALOG[name].case)
        result = certify_negative(name, cube, max_depth)
        detail = f"{claim} on [{lo}, {hi}]^3 via {result.boxes_evaluated} boxes"
        checks.append(StructureCheck(check, result.certified, detail, result))

    decision = decide_sign(parse_expression(SINH_OVER_INCREASING))
    replayed = decision.certificate is not None and replay(decision.certificate)
    increasing = decision.outcome is Outcome.POSITIVE and replayed is Outcome.POSITIVE
    so_increasing = (
        f"{SINH_OVER_INCREASING} {decision.outcome.value} on w > 0 (prover certificate, replayed)"
    )

    on_cube("case1_concavity_in_v", "dv2_case1", "dv2_case1 < 0")
    on_cube("case1_slope_at_v_eq_u", "dv_at_v_eq_u_case1", "d_v|_(v=u) < 0")
    checks.append(
        StructureCheck(
            "case1_diagonal",
            increasing and lo > 0.0,
            "d(u, u, w) = 4u e^((w-u)/2) (sinh(s) - u so(w) cosh(s)) exactly, with "
            "s = (u+w)/2 <= u <= u so(w), so d(u, u, w) <= 4u e^((w-u)/2) (sinh(s) - "
            f"s cosh(s)), negative for u > 0 by {so_increasing}; the cube starts at u = {lo}",
        )
    )
    on_cube("case2_decreasing_in_v", "d1_case2", "d1_case2 < 0")

    multiplier = _case3_multiplier_interval(lo, hi)
    checks.append(
        StructureCheck(
            "case3_decreasing_in_w",
            increasing and multiplier.lo >= 0.0,
            f"{so_increasing}; multiplied term enclosure "
            f"[{multiplier.lo:.6g}, {multiplier.hi:.6g}] is nonnegative",
        )
    )

    on_cube("boundary_v_eq_w", "d_at_v_eq_w_case2", "d|_(v=w) = 2 u^2 Phi(u, w) < 0")
    return CaseStructureReport(tuple(checks))


def _case3_multiplier_interval(lo: float, hi: float) -> Interval:
    # In case 3 both arguments sit below the cap, so the factor multiplies
    # u^2 cosh(v) + v^2 cosh(u); nonnegativity makes d nonincreasing in w.
    u = Interval(lo, hi)
    v = Interval(lo, hi)
    return (u * u) * vcosh(v) + (v * v) * vcosh(u)
