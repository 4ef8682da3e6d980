"""Interval certification of the multivariate negativity claims.

The symmetric bound reduces to d(u, v, w) < 0 for positive u, v, w, where d
is the symmetrized comparison expression from :mod:`tiltbound.tilted`.  The
proof splits the orthant by how u and v compare with the cap w:

    case 1:  0 < w <= u <= v
    case 2:  0 < u <= w <= v
    case 3:  0 < u <= v <= w   (reduces to case 2 by monotonicity in w)

On each region d loses its minimum operator and becomes an explicit
exp/sinh/cosh formula.  The catalog holds five closed forms:

    d_case1             tilted.d with u and v capped at w (case 1)
    dv2_case1           second v-derivative of d on case 1 (concavity in v)
    d_case2             tilted.d with v capped at w and u not (case 2)
    d1_case2            w e^-w times the v-slope of d on case 2
    d_at_v_eq_w_case2   d on the face v = w of case 2, as 2 u^2 Phi(u, w)

It bounds their ranges over boxes with outward-rounded interval arithmetic,
sharpened by the corner evaluations when every axis of the box is monotone
and otherwise by a mean-value form, built only then, and certifies strict
negativity by adaptive bisection.  The slope form carries a positive factor
that keeps its sign and cancels its e^w growth, which naive interval
evaluation would overestimate on wide boxes.  d_case1 and d_case2 are no
transcriptions: they evaluate :func:`tiltbound.tilted.d`, the one
definition of d, which writes a capped side in exponentials and an uncapped
side in sinh and cosh.  So d_case2 has -v e^-v where a hyperbolic form of
the capped v would have v sinh(v) - v cosh(v), two terms near v e^v / 2
whose enclosures cancel only to a width of that size.

``tiltbound verify-proof`` bisects nothing.  Its case analysis is one
table, ``LINKS``: each row names a link, the case it derives, the battery
lemmas it reads, the identities it expands and whether it needs the cube
to start above 0, and :func:`verify_case_structure` checks every row by one
rule.  Case 1 is derived from concavity in v, the slope at v = u and the
diagonal v = u; case 2 from its slope in v and the face v = w; case 3 from
the face.  The diagonal, the face and case 3 are exact steps from the
battery lemma ``sinh_over_increasing``.  Concavity and both slopes expand
the catalog's own d_case1, dv2_case1, d_case2 and d1_case2 in
:mod:`tiltbound.exppoly` into identities that tie them to their battery
lemmas, so the identities expand the same d that the bisection encloses
and :func:`tiltbound.tilted.d_expr` evaluates.  The verdict reads no
interval enclosure.  Bisecting the five catalog forms stays available as
independent cross-checks.

Certification is sound but not complete: d genuinely reaches 0 at u = 0 with
v = w, so boxes touching that edge come back UNDETERMINED with the undecided
sub-boxes as witnesses.  Bisection covers exactly the box it is given.  The
links of :func:`verify_case_structure` are not confined to a cube: each
identity is exact and each battery lemma holds on all of w > 0, so together
they give d < 0 on all of 0 < u <= v, w > 0, the unbounded tails included;
u > v follows from the symmetry d(u, v, w) = d(v, u, w), which no code
checks.  The cube [lo, hi]^3 is read only by the lo > 0 gate of
``Link.needs_lo``, and it is the region the report names.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from functools import cache, partial
from typing import Callable, NamedTuple, Optional

from .exppoly import U, V, W, Laurent
from .intervals import Dual, Interval, vcosh, vexp, vsinh, vsinh_over
from .prover import BatteryReport
from .tilted import d, d_expr  # noqa: F401  (bench/tracing.py wraps regions.d_expr)


# certify_negative evaluates at most this many boxes, about twice the 51,537 that the
# d_case2 cross-check takes at depth 18 on [0.05, 8]^3
MAX_BOXES = 100_000


class EmptyRegionError(ValueError):
    """Box does not meet the ordering constraints of its case region."""


class CaseRegion(enum.Enum):
    CASE1 = "case1"  # w <= u <= v
    CASE2 = "case2"  # u <= w <= v


_CASE_ORDER: dict[CaseRegion, tuple[tuple[str, str], ...]] = {
    CaseRegion.CASE1: (("w", "u"), ("u", "v")),
    CaseRegion.CASE2: (("u", "w"), ("w", "v")),
}

_AXES = ("u", "v", "w")


class BoxRegion(namedtuple("BoxRegion", "u v w case")):
    """Axis-aligned box in (u, v, w) tagged with its case region.

    ``u``, ``v`` and ``w`` are (lo, hi) pairs of floats; ``case`` is a
    CaseRegion.  ``_replace`` checks the bounds as construction does.
    """

    __slots__ = ()

    def __new__(cls, u, v, w, case: CaseRegion):
        for name, (lo, hi) in zip(_AXES, (u, v, w)):
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
                raise ValueError(f"invalid {name}-range [{lo}, {hi}]")
        return super().__new__(cls, u, v, w, case)

    _make = classmethod(lambda cls, fields: cls(*fields))

    def clipped(self, axes: tuple[str, ...] = _AXES) -> Optional["BoxRegion"]:
        """Bounding box of the intersection with the case-order constraints.

        Only constraints speaking about ``axes`` are applied.  The case
        order is one chain a <= b <= c, so one pass up the chain raises each
        lower end to the one below it and one pass back lowers each upper end
        to the one above it.  Without v among ``axes`` the box lies on the
        lower face of v in its case order (v = u on case 1, v = w on case 2),
        so v takes that axis's range.  Returns the box itself when it
        already meets its order, and None when the intersection is empty.
        """
        order = _CASE_ORDER[self.case]
        pairs = [(a, b) for a, b in order if a in axes and b in axes]
        spans = {"u": self.u, "v": self.v, "w": self.w}
        for a, b in pairs:
            if spans[b][0] < spans[a][0]:
                spans[b] = (spans[a][0], spans[b][1])
        for a, b in reversed(pairs):
            if spans[a][1] > spans[b][1]:
                spans[a] = (spans[a][0], spans[b][1])
        if any(lo > hi for lo, hi in spans.values()):
            return None
        if "v" not in axes:
            spans["v"] = spans[next(a for a, b in order if b == "v")]
        if (spans["u"], spans["v"], spans["w"]) == self[:3]:
            return self
        return BoxRegion(**spans, case=self.case)

    def widest_axis(self, axes: tuple[str, ...]) -> str:
        return max(axes, key=lambda name: getattr(self, name)[1] - getattr(self, name)[0])

    def split(self, axis: str) -> tuple["BoxRegion", "BoxRegion"]:
        lo, hi = getattr(self, axis)
        mid = 0.5 * (lo + hi)
        return self._replace(**{axis: (lo, mid)}), self._replace(**{axis: (mid, hi)})

    def sort_key(self) -> tuple:
        return (self.u, self.v, self.w)

    def to_dict(self) -> dict:
        return {"u": list(self.u), "v": list(self.v), "w": list(self.w), "case": self.case.value}


# ---------------------------------------------------------------------------
# Expression catalog
# ---------------------------------------------------------------------------


class ProofExpr(NamedTuple):
    """Closed form from the case analysis, generic over the value type.

    ``fn`` accepts floats, Intervals, Duals or Laurents, in the order given by
    ``variables``.  ``point`` evaluates at floats.  The module docstring
    says what each catalog form is.
    """

    name: str
    variables: tuple[str, ...]
    case: CaseRegion
    fn: Callable

    def point(self, **values: float) -> float:
        return self.fn(*(values[name] for name in self.variables))


def _dv2_case1(u, v, w):
    ev = vexp(-v)
    return ev * (2 - v) - vsinh_over(w) * (ev * (u * u) + 2 * vexp(-u) + 2 * vexp(w))


def _d1_case2(u, v, w):
    # e^-(v+w) times d1 = w (e^(v+w) - 1 + v) - sinh(w) (4v e^v cosh(u) - u^2),
    # that is w e^-w times the v-slope of d, by 2 sinh(w) e^-w = 1 - e^-2w
    e = vexp(-(v + w))
    return (
        w * (1 - (1 - v) * e)
        - 2 * v * vcosh(u) * (1 - vexp(-2 * w))
        + (u * u) * vsinh(w) * e
    )


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
        ProofExpr(
            "d_case1", ("u", "v", "w"), CaseRegion.CASE1, partial(d, u_capped=True, v_capped=True)
        ),
        ProofExpr("dv2_case1", ("u", "v", "w"), CaseRegion.CASE1, _dv2_case1),
        ProofExpr(
            "d_case2", ("u", "v", "w"), CaseRegion.CASE2, partial(d, u_capped=False, v_capped=True)
        ),
        ProofExpr("d1_case2", ("u", "v", "w"), CaseRegion.CASE2, _d1_case2),
        ProofExpr("d_at_v_eq_w_case2", ("u", "w"), CaseRegion.CASE2, _d_at_v_eq_w_case2),
    )
}


# ---------------------------------------------------------------------------
# Enclosures
# ---------------------------------------------------------------------------


def _enclosure(expr: ProofExpr, box: BoxRegion) -> Interval:
    """Interval evaluation sharpened by derivative information.

    One ``Dual`` pass gives the naive evaluation and the gradient enclosure.
    Every axis of positive width whose gradient has a strict sign is pinned
    to the face where the supremum (respectively infimum) lives, and the
    form is evaluated on the upper and the lower faces.  When every axis is
    monotone or has zero width, both faces are the corners, which bound the
    range (the monotonicity test of Hansen & Walster), so the enclosure is
    the naive one clipped by the two corner evaluations: three evaluations
    of the form.  Otherwise the mean-value form f(m) + grad(box) . (box - m)
    is built from one more evaluation, at the centre m (quadratically tight
    in the box width, which rescues the cancellation-heavy expressions near
    the degenerate corner), and intersected with the naive one before the
    faces, if any axis is monotone, clip it.  On the corner branch no
    intersection runs, so the one check that the enclosures meet is the
    ``lo <= hi`` test of the final Interval, naive against the corners.  A
    box with no monotone axis pins no face, so a point box, whose naive
    enclosure is already the evaluation at that point, takes one pass.
    """
    arity = len(expr.variables)
    spans = [getattr(box, name) for name in expr.variables]
    axes = [Interval(lo, hi) for lo, hi in spans]

    full = expr.fn(*[Dual.variable(axis, index, arity) for index, axis in enumerate(axes)])
    enclosure: Interval = full.val

    upper_faces = []
    lower_faces = []
    monotone = False
    corners = True
    for (lo, hi), axis, grad in zip(spans, axes, full.grad):
        if lo < hi and grad.hi < 0.0:
            monotone = True
            upper_faces.append(Interval.point(lo))
            lower_faces.append(Interval.point(hi))
        elif lo < hi and grad.lo > 0.0:
            monotone = True
            upper_faces.append(Interval.point(hi))
            lower_faces.append(Interval.point(lo))
        else:
            corners = corners and lo == hi
            upper_faces.append(axis)
            lower_faces.append(axis)

    if not corners:
        centres = [0.5 * (lo + hi) for lo, hi in spans]
        mean_value = expr.fn(*[Interval.point(centre) for centre in centres])
        for grad, axis, centre in zip(full.grad, axes, centres):
            mean_value = mean_value + grad * (axis - centre)
        enclosure = enclosure.intersect(mean_value)
    if not monotone:
        return enclosure
    sup_bound = expr.fn(*upper_faces).hi
    inf_bound = expr.fn(*lower_faces).lo
    return Interval(max(enclosure.lo, inf_bound), min(enclosure.hi, sup_bound))


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


class CertifyResult(NamedTuple):
    certified: bool
    undecided: tuple[BoxRegion, ...]
    boxes_evaluated: int
    deepest_level: int


def certify_negative(expr: ProofExpr | str, box: BoxRegion, max_depth: int) -> CertifyResult:
    """Adaptive bisection proof that the expression is negative on the box.

    A sub-box is settled once its enclosure has hi < 0; otherwise its widest
    axis is halved, and each half keeps the parent's enclosure as a bound on
    its own.  ``max_depth`` caps how many times any single axis may be
    halved, so depth d resolves features down to (axis width) / 2^d.  After
    ``MAX_BOXES`` evaluations every box still pending is undecided.  The
    result is sound: ``certified`` means the expression is strictly negative
    everywhere on box ∩ case region.  Undecided boxes are returned in
    canonical order for inspection.  Raises ValueError when the box belongs
    to another case region than the expression.
    """
    expr = _owner(expr, box)
    axes = expr.variables
    undecided: list[BoxRegion] = []
    evaluated = 0
    deepest = 0
    zero_levels = {axis: 0 for axis in axes}
    stack: list[tuple[BoxRegion, dict[str, int], Interval | None]] = [(box, zero_levels, None)]
    while stack:
        current, levels, inherited = stack.pop()
        clipped = current.clipped(axes)
        if clipped is None:
            continue
        if evaluated == MAX_BOXES:
            undecided.append(clipped)
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


class StructureCheck(NamedTuple):
    """One structural fact and the reason it holds."""

    name: str
    passed: bool
    detail: str


@cache
def _expanded(expr: ProofExpr) -> Laurent:
    """A catalog form's Laurent at (U, V, W), expanded on its first use.

    The key is the form itself, so a replaced ``CATALOG`` entry is expanded
    afresh.  Only the form is kept; every identity is expanded on every call.
    """
    return expr.fn(U, V, W)


def _case1_concavity_identities(lemmas: dict[str, Laurent]) -> tuple:
    """(left side, summands of the right side) of each identity of case-1 concavity.

    With so(w) = sinh(w)/w they say dv2_case1 = d_vv and

        dv2_case1 = -(e^-v (2e^v - 2 + v) + 2 (so(w) e^w - 1)
                      + so(w) (e^-v u^2 + 2e^-u)).

    For v >= 0, 2e^v - 2 + v >= 0; sinh(w) - w > 0 on w > 0 (read by name
    from ``lemmas``, not expanded) gives so(w) >= 1, which holds at w = 0 as
    a limit, so so(w) e^w - 1 >= 0 and the last bracket is positive.  So
    d_vv < 0 on u, v, w >= 0: d is concave in v.
    """
    u, v, w = U, V, W
    so = vsinh_over(w)
    dv2 = _expanded(CATALOG["dv2_case1"])
    return (
        (dv2, (_expanded(CATALOG["d_case1"]).diff("v").diff("v"),)),
        (
            dv2,
            (
                -vexp(-v) * (2 * vexp(v) - 2 + v),
                -2 * (so * vexp(w) - 1),
                -so * (vexp(-v) * (u * u) + 2 * vexp(-u)),
            ),
        ),
    )


def _case1_slope_identities(lemmas: dict[str, Laurent]) -> tuple:
    """(left side, summands of the right side) of each identity of the case-1 slope.

    ``lemmas`` maps each symbol its ``LINKS`` row reads to the battery
    expression.  With D1 = w e^u d_v(u, u, w), a function of (u, w), they say

        D1_uu          = M1 - (e^(u+w) - e^(2w)) ((sinh(w) - w) + (3 + 2u) sinh(w))
                            - 2 e^(2w) (u - w) sinh(w),
        D1(w, w)       = C1,
        e^w D1_u(w, w) = L.

    On 0 < w <= u: e^(u+w) >= e^(2w), sinh(w) > w > 0 and u - w >= 0, so
    every bracket is nonnegative and D1_uu <= M1 < 0; D1(w, w) = C1 < 0 and
    D1_u(w, w) = e^-w L < 0.  So D1 is concave in u on u >= w and lies below
    its tangent there, D1 <= D1(w, w) + D1_u(w, w) (u - w) < 0, and
    d_v(u, u, w) = e^-u D1 / w < 0.
    """
    u, w = U, W
    d1 = w * vexp(u) * _expanded(CATALOG["d_case1"]).diff("v").at("v", "u")
    sw, e2w = vsinh(w), vexp(2 * w)
    return (
        (
            d1.diff("u").diff("u"),
            (
                lemmas["M1"],
                -(vexp(u + w) - e2w) * (lemmas["sinh(w) - w"] + (3 + 2 * u) * sw),
                -2 * e2w * (u - w) * sw,
            ),
        ),
        (d1.at("u", "w"), (lemmas["C1"],)),
        (vexp(w) * d1.diff("u").at("u", "w"), (lemmas["L"],)),
    )


def _case2_slope_identities(lemmas: dict[str, Laurent]) -> tuple:
    """(left side, summands of the right side) of each identity of the case-2 slope.

    ``lemmas`` maps each symbol its ``LINKS`` row reads to the battery
    expression.  With d1 = e^(v+w) d1_case2 and c = cosh(u) - 1, the
    identities say d1 = w e^v d_v and

        e^-v d1_vv     = M2 - 4 sinh(w) (c (2 + v) + (v - w)),
        d1_v(u, w, w)  = S0 - 4 sinh(w) e^w (1 + w) c,
        d1(u, w, w)    = D111 - sinh(w) ((w - u)(w + u) + w (e^w - w) + 4w e^w c),
        e^w - w        = (sinh(w) - w) + cosh(w),
        c              = e^-u (e^u - 1)^2 / 2.

    On 0 < u <= w <= v: sinh(w) > w > 0, so e^w - w > 0 and c >= 0, and
    every bracket is nonnegative.  So e^-v d1_vv <= M2 < 0, d1_v(u, w, w)
    <= S0 < 0 and d1(u, w, w) <= D111 < 0: d1 is concave in v on v >= w and
    lies below its tangent there, d1 <= d1(u, w, w) + d1_v(u, w, w) (v - w)
    < 0, and d_v = e^-v d1 / w < 0.
    """
    u, v, w = U, V, W
    d1 = vexp(v + w) * _expanded(CATALOG["d1_case2"])
    d1_v = d1.diff("v")
    sw, ew, c = vsinh(w), vexp(w), vcosh(u) - 1
    return (
        (d1, (w * vexp(v) * _expanded(CATALOG["d_case2"]).diff("v"),)),
        (
            vexp(-v) * d1_v.diff("v"),
            (lemmas["M2"], -4 * sw * c * (2 + v), -4 * sw * (v - w)),
        ),
        (d1_v.at("v", "w"), (lemmas["S0"], -4 * sw * ew * (1 + w) * c)),
        (
            d1.at("v", "w"),
            (
                lemmas["D111"],
                -sw * (w - u) * (w + u),
                -sw * w * (ew - w),
                -4 * sw * w * ew * c,
            ),
        ),
        (ew - w, (lemmas["sinh(w) - w"], vcosh(w))),
        (c, (0.5 * vexp(-u) * (vexp(u) - 1) * (vexp(u) - 1),)),
    )


class Link(NamedTuple):
    """One link of the case analysis, as :func:`verify_case_structure` checks it.

    ``lemmas`` pairs each battery entry the link reads with the symbol that
    stands for it in ``identities`` and in ``detail``; ``identities`` builds
    the link's (left side, summands of the right side) pairs from those
    lemmas, or is None for a link that expands none.  ``detail`` states the
    link with the slots ``{identities}``, ``{lemmas}`` and ``{lo}``.
    """

    name: str
    derives: Optional[str]  # the catalog form whose case the link derives
    lemmas: tuple[tuple[str, str], ...]
    identities: Optional[Callable[[dict[str, Laurent]], tuple]]
    needs_lo: bool  # the conclusion holds only above 0, so the cube must start there
    detail: str


# On case 1, d is concave in v, so it lies below its tangent at v = u, whose
# slope and value (the diagonal) are negative.  On case 2, d decreases in v,
# so it is at most its value on the negative face v = w.  Case 3 reduces to
# the face by monotonicity in w.  so(x) = sinh(x)/x throughout.
_SO_INCREASING = (("w*cosh(w) - sinh(w)", "sinh_over_increasing"),)
_SINH_DOMINATES = ("sinh(w) - w", "sinh_dominates_identity")
LINKS: tuple[Link, ...] = (
    Link(
        "case1_concavity_in_v", "d_case1", (_SINH_DOMINATES,), _case1_concavity_identities, False,
        "dv2_case1 = d_vv and dv2_case1 = -(e^-v (2e^v - 2 + v) + 2 (so(w) e^w - 1) + so(w) "
        "(e^-v u^2 + 2e^-u)) with so(w) = sinh(w)/w: {identities}; {lemmas} on w > 0; hence "
        "so(w) >= 1, also as the limit at w = 0, and d_vv < 0 for u, v, w >= 0: d is concave in v",
    ),
    Link(
        "case1_slope_at_v_eq_u", "d_case1",
        (("M1", "d1_case1_concavity_majorant"), ("C1", "d1_case1_at_corner"),
         ("L", "d1_case1_slope_at_corner"), _SINH_DOMINATES),
        _case1_slope_identities, True,
        "D1 = w e^u d_v(u, u, w), with D1_uu = M1 - (e^(u+w) - e^(2w)) ((sinh(w) - w) + "
        "(3 + 2u) sinh(w)) - 2 e^(2w) (u - w) sinh(w), D1(w, w) = C1 and e^w D1_u(w, w) = L: "
        "{identities}; {lemmas} on w > 0; so on w <= u, D1 is concave in u and D1 <= D1(w, w) + "
        "D1_u(w, w) (u - w), negative for w > 0, and d_v(u, u, w) = e^-u D1 / w < 0; the cube "
        "starts at w = {lo}",
    ),
    Link(
        "case1_diagonal", "d_case1", _SO_INCREASING, None, True,
        "d(u, u, w) = 4u e^((w-u)/2) (sinh(s) - u so(w) cosh(s)) exactly, with s = (u+w)/2 <= u "
        "<= u so(w), so d(u, u, w) <= 4u e^((w-u)/2) (sinh(s) - s cosh(s)), negative for u > 0 "
        "by {lemmas} on w > 0; the cube starts at u = {lo}",
    ),
    Link(
        "case2_decreasing_in_v", "d_case2",
        (("M2", "d1_case2_concavity_majorant"), ("S0", "d1_case2_slope_at_u_zero"),
         ("D111", "d111_negativity"), _SINH_DOMINATES),
        _case2_slope_identities, True,
        "d1 = e^(v+w) d1_case2 = w e^v d_v, with e^-v d1_vv = M2 - 4 sinh(w) ((cosh(u) - 1)"
        "(2 + v) + (v - w)), d1_v(u, w, w) = S0 - 4 sinh(w) e^w (1 + w) (cosh(u) - 1) and "
        "d1(u, w, w) = D111 - sinh(w) ((w - u)(w + u) + w (e^w - w) + 4w e^w (cosh(u) - 1)), "
        "where e^w - w = (sinh(w) - w) + cosh(w) and cosh(u) - 1 = e^-u (e^u - 1)^2 / 2: "
        "{identities}; {lemmas} on w > 0; so on u <= w <= v, d1 is concave in v and d1 <= "
        "d1(u, w, w) + d1_v(u, w, w) (v - w), negative for w > 0; the cube starts at w = {lo}",
    ),
    Link(
        "case3_decreasing_in_w", None, _SO_INCREASING, None, False,
        "{lemmas} on w > 0; on case 3, d = 2 (u sinh(u) + v sinh(v) - so(w) m) with the "
        "multiplier m = u^2 cosh(v) + v^2 cosh(u) nonnegative by its form, so d(u, v, w) <= "
        "d(u, v, v), a point of the face v = w",
    ),
    Link(
        "boundary_v_eq_w", "d_case2", _SO_INCREASING, None, True,
        "d(u, w, w) = 2 u^2 Phi(u, w) exactly, with Phi = so(u) - so(w) cosh(w) - (w sinh(w) / 2) "
        "so(u/2)^2; u <= w gives so(u) <= so(w) by {lemmas} on w > 0, so d(u, w, w) <= 2 u^2 "
        "so(w) (1 - cosh(w)), negative for u > 0 as cosh(w) > 1; the cube starts at u = {lo}",
    ),
)


class CaseStructureReport(NamedTuple):
    cube: tuple[float, float]  # (lo, hi): the region [lo, hi]^3 the report names
    checks: tuple[StructureCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> StructureCheck:
        return next(c for c in self.checks if c.name == name)

    def to_dict(self) -> dict:
        return {"all_passed": self.all_passed, "checks": [c._asdict() for c in self.checks]}

    def derived_regions(self) -> list[dict]:
        """d_case1 and d_case2, each derived from the ``LINKS`` rows that derive it.

        The status is that of the links.  No link bisects, so an entry
        evaluates no box and leaves none undecided.
        """
        derivations: dict[str, list[str]] = {}
        for link in LINKS:
            if link.derives is not None:
                derivations.setdefault(link.derives, []).append(link.name)

        def derived(name: str, links: list[str]) -> dict:
            cube = BoxRegion(u=self.cube, v=self.cube, w=self.cube, case=CATALOG[name].case)
            passed = all(self.check(link).passed for link in links)
            return {
                "expression": name,
                "region": cube.to_dict(),
                "method": "derived",
                "links": links,
                "status": "certified" if passed else "undetermined",
                "boxes_evaluated": 0,
                "undecided_boxes": [],
            }

        return [derived(name, links) for name, links in derivations.items()]


def verify_case_structure(lo: float, hi: float, battery: BatteryReport) -> CaseStructureReport:
    """Check every row of ``LINKS`` by one rule, naming the cube [lo, hi]^3.

    A link passes when each of its identities expands to 0, ``battery``
    certified each lemma it reads (taken from the polynomial the battery
    decided, ``BatteryEntry.poly``), and, if it needs lo, lo > 0.  No link
    evaluates an interval.
    """
    entries = {e.name: e for e in battery.entries}
    checks = []
    for link in LINKS:
        lemmas = {sym: entries[name] for sym, name in link.lemmas}
        exact = () if link.identities is None else link.identities(
            {sym: Laurent.in_w(e.poly) for sym, e in lemmas.items()}
        )
        zero = sum((lhs - sum(rhs)).is_zero for lhs, rhs in exact)
        read = ", ".join(
            f"{sym} = {e.name} {e.decision.outcome.value} "
            + ("(prover certificate, replayed)" if e.certified else "(the battery did not certify it)")
            for sym, e in lemmas.items()
        )
        certified = all(e.certified for e in lemmas.values())
        passed = zero == len(exact) and certified and (lo > 0.0 or not link.needs_lo)
        identities = f"{zero} of {len(exact)} identities expand to 0"
        detail = link.detail.format(identities=identities, lemmas=read, lo=lo)
        checks.append(StructureCheck(link.name, passed, detail))
    return CaseStructureReport((lo, hi), tuple(checks))
