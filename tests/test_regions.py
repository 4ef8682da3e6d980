"""Region checker: catalog fidelity, enclosure soundness, certification."""

import hashlib
import itertools
import math
import random

import mpmath
import numpy as np
import pytest

from tiltbound import d_expr, regions, replay
from tiltbound.exppoly import U, V, W, Laurent, parse_expression
from tiltbound.intervals import Dual, Interval, vcosh, vexp, vsinh, vsinh_over
from tiltbound.prover import BATTERY, Outcome, SignDecision
from tiltbound.regions import (
    CATALOG,
    LINKS,
    BoxRegion,
    CaseRegion,
    EmptyRegionError,
    certify_negative,
    eval_interval,
    verify_case_structure,
)
from tiltbound.tilted import d

# ---------------------------------------------------------------------------
# Catalog fidelity: every transcription must reproduce finite differences of
# the reference expression d at random interior points.  The differences are
# taken on a high-precision mirror of d (same folded-g definition, evaluated
# with mpmath) so that second differences are free of float noise; the
# mirror itself is pinned to d_expr first.
# ---------------------------------------------------------------------------

REL_TOL = 1e-5
mpmath.mp.dps = 40


def mp_d(u, v, w):
    u, v, w = mpmath.mpf(u), mpmath.mpf(v), mpmath.mpf(w)

    def g(j, x):
        plus = mpmath.e ** min(x, w)
        minus = mpmath.e ** (-x)
        return (x**j * plus + (x**j if j == 0 else -x) * minus) / 2

    factor = mpmath.sinh(w) / w
    return 2 * (g(1, u) + g(1, v) - factor * (g(0, u) * v**2 + g(0, v) * u**2))


FD_STEP = mpmath.mpf(1) / 10**8


def dv1(u, v, w, h=FD_STEP):
    return float((mp_d(u, v + h, w) - mp_d(u, v - h, w)) / (2 * h))


def dv2(u, v, w, h=FD_STEP):
    return float((mp_d(u, v + h, w) - 2 * mp_d(u, v, w) + mp_d(u, v - h, w)) / (h * h))


def test_high_precision_mirror_matches_d_expr(rng):
    for _ in range(50):
        u, v, w = rng.uniform(0.05, 5.0, size=3)
        assert float(mp_d(u, v, w)) == pytest.approx(d_expr(u, v, w), rel=1e-13, abs=1e-13)


def test_d_expr_sign_at_small_arguments():
    # with x sinh(x) formed as x (e^x - e^-x) / 2, d_expr gave +5.12e-23 here
    u, v, w = 1.2996915631709963e-06, 1.4759214878183688e-06, 2.4076439519936488e-06
    want = float(mp_d(u, v, w))
    assert want < 0.0
    assert d_expr(u, v, w) == pytest.approx(want, rel=1e-4, abs=0.0)


def test_d_expr_sign_on_small_case3_points():
    # u <= v <= w log-uniform in [1e-6, 1e-2]; with x sinh(x) formed from
    # exponentials, 6 of these 1,000 signs came out wrong
    rng = np.random.default_rng(11)
    points = np.sort(10.0 ** rng.uniform(-6.0, -2.0, size=(1000, 3)), axis=1)
    wrong = [p for p in points.tolist() if (d_expr(*p) < 0.0) != (mp_d(*p) < 0)]
    assert wrong == []


def case1_points(rng, n=100):
    for _ in range(n):
        w = rng.uniform(0.2, 2.0)
        u = rng.uniform(w + 0.1, 4.0)
        v = rng.uniform(u + 0.1, 5.0)
        yield u, v, w


def case2_points(rng, n=100):
    for _ in range(n):
        u = rng.uniform(0.1, 1.5)
        w = rng.uniform(u + 0.1, 3.0)
        v = rng.uniform(w + 0.1, 5.0)
        yield u, v, w


def assert_close(got, want):
    assert got == pytest.approx(want, rel=REL_TOL, abs=1e-7)


class TestCatalogFidelity:
    # d_case1, d_case2 and d_expr evaluate one definition, tilted.d, so the
    # two case forms are checked against the mirror, not against d_expr
    def test_d_case1(self, rng):
        for u, v, w in case1_points(rng):
            assert_close(CATALOG["d_case1"].point(u=u, v=v, w=w), float(mp_d(u, v, w)))

    def test_d_case2(self, rng):
        for u, v, w in case2_points(rng):
            assert_close(CATALOG["d_case2"].point(u=u, v=v, w=w), float(mp_d(u, v, w)))

    def test_dv2_case1(self, rng):
        for u, v, w in case1_points(rng):
            assert_close(CATALOG["dv2_case1"].point(u=u, v=v, w=w), dv2(u, v, w))

    def test_d1_case2(self, rng):
        for u, v, w in case2_points(rng):
            assert_close(
                CATALOG["d1_case2"].point(u=u, v=v, w=w), w * math.exp(-w) * dv1(u, v, w)
            )

    def test_d1_case2_is_the_rescaled_d1(self, rng):
        # e^-(v+w) times d1 = w (e^(v+w) - 1 + v) - sinh(w) (4v e^v cosh(u) - u^2)
        # at 50 digits, with w down to 1e-4
        def d1(u, v, w):
            u, v, w = mpmath.mpf(u), mpmath.mpf(v), mpmath.mpf(w)
            return w * (mpmath.exp(v + w) - 1 + v) - mpmath.sinh(w) * (
                4 * v * mpmath.exp(v) * mpmath.cosh(u) - u * u
            )

        rescaled = CATALOG["d1_case2"]
        points = [(u, v, w) for w in (1e-4, 1e-2, 1.0) for u in (0.0, w) for v in (w, 8.0)]
        for _ in range(200):
            w = float(10 ** rng.uniform(-4.0, math.log10(8.0)))
            points.append((float(rng.uniform(0.0, w)), float(rng.uniform(w, 8.0)), w))
        with mpmath.workdps(50):
            for u, v, w in points:
                want = mpmath.exp(-(mpmath.mpf(v) + w)) * d1(u, v, w)
                got = rescaled.point(u=u, v=v, w=w)
                assert abs(got - want) <= 1e-12 * abs(want), (u, v, w)

    def test_d_at_v_eq_w_case2(self, rng):
        for u, v, w in case2_points(rng):
            del v
            assert_close(CATALOG["d_at_v_eq_w_case2"].point(u=u, w=w), d_expr(u, w, w))

    def test_factored_face_matches_high_precision(self, rng):
        # 2 u^2 Phi(u, w) against d(u, w, w) at 50 digits, down to u = 1e-6,
        # where the unfactored face loses about 4 of its 16 digits (d_expr
        # is off by 1e-4 relative at u = 1e-6, w = 1)
        face = CATALOG["d_at_v_eq_w_case2"]
        points = [(u, w) for u in (1e-6, 1e-4, 1e-2) for w in (0.05, 1.0, 8.0)]
        points += [tuple(sorted(rng.uniform(0.05, 8.0, size=2))) for _ in range(200)]
        with mpmath.workdps(50):
            for u, w in points:
                want = mp_d(u, w, w)
                got = face.point(u=float(u), w=float(w))
                assert abs(got - want) <= 1e-12 * abs(want), (u, w)

    def test_dv_at_v_eq_u_case1_matches_high_precision(self, rng):
        # the v-slope of d at v = u that the case-1 slope link expands in the
        # identity kernel from d_case1, against mpmath's derivative of the
        # 50-digit mirror, with w down to 1e-4 (u > w keeps d smooth in v)
        slope = CATALOG["d_case1"].fn(U, V, W).diff("v").at("v", "u")
        assert all(key[1] == key[4] == 0 for key, _ in slope.terms())  # no v left

        def kernel(u, w):
            return mpmath.fsum(
                mpmath.mpf(c.numerator) / c.denominator
                * u**a * w**e * mpmath.exp(p * u + r * w)
                for (a, _, e, p, _, r), c in slope.terms()
            )

        with mpmath.workdps(50):
            for _ in range(200):
                w = mpmath.mpf(float(10 ** rng.uniform(-4.0, math.log10(4.0))))
                u = w + mpmath.mpf(float(rng.uniform(1e-3, 4.0)))
                want = mpmath.diff(lambda v: mp_d(u, v, w), u)
                assert abs(kernel(u, w) - want) <= 1e-12 * abs(want), (u, w)

    def test_dv_at_v_eq_u_case1_is_the_rescaled_slope(self):
        # the link's D1 = w e^u d_v(u, u, w) is, exactly,
        #   w (e^(u+w) - 1 + u) - sinh(w) (2u e^(u+w) - u^2 + 2u),
        # the d1 of case 1 whose value at u = w is the battery's corner lemma
        d1 = W * vexp(U) * CATALOG["d_case1"].fn(U, V, W).diff("v").at("v", "u")
        closed = W * (vexp(U + W) - 1 + U) - vsinh(W) * (
            2 * U * vexp(U + W) - U * U + 2 * U
        )
        assert (d1 - closed).is_zero
        corner = next(text for name, text, *_ in BATTERY if name == "d1_case1_at_corner")
        assert (closed.at("u", "w") - Laurent.in_w(parse_expression(corner))).is_zero

    def test_diagonal_identity_matches_high_precision(self, rng):
        # the exact step of case1_diagonal, at 50 digits with w down to 1e-4:
        # d(u, u, w) = 4u e^((w-u)/2) (sinh(s) - u so(w) cosh(s)), s = (u+w)/2
        def factored(u, w):
            u, w = mpmath.mpf(u), mpmath.mpf(w)
            s = (u + w) / 2
            so_w = mpmath.sinh(w) / w
            return 4 * u * mpmath.exp((w - u) / 2) * (mpmath.sinh(s) - u * so_w * mpmath.cosh(s))

        points = [(u, w) for w in (1e-4, 1e-2, 1.0) for u in (w, 2 * w, 8.0)]
        for _ in range(200):
            w = float(10 ** rng.uniform(-4.0, math.log10(8.0)))
            points.append((float(rng.uniform(w, 8.0)), w))
        with mpmath.workdps(50):
            for u, w in points:
                want = mp_d(u, u, w)
                assert abs(factored(u, w) - want) <= 1e-12 * abs(want), (u, w)

    def test_face_vanishes_at_u_zero_through_its_factor(self):
        face = CATALOG["d_at_v_eq_w_case2"]
        assert face.point(u=0.0, w=1.0) == 0.0
        assert face.point(u=1e-6, w=1.0) < 0.0


# ---------------------------------------------------------------------------
# Enclosures
# ---------------------------------------------------------------------------


def random_box(rng, case: CaseRegion) -> BoxRegion:
    def span():
        a, b = sorted(rng.uniform(0.05, 5.0, size=2))
        return (float(a), float(b))

    return BoxRegion(u=span(), v=span(), w=span(), case=case)


class TestEnclosures:
    def test_point_box_width(self):
        box = BoxRegion(u=(1.0, 1.0), v=(1.0, 1.0), w=(1.0, 1.0), case=CaseRegion.CASE2)
        enc = eval_interval("d_case2", box)
        assert enc.contains(-2.5529160411188316)
        assert enc.width < 1e-9

    def test_point_box_case1(self):
        box = BoxRegion(u=(1.0, 1.0), v=(2.0, 2.0), w=(1.0, 1.0), case=CaseRegion.CASE1)
        enc = eval_interval("d_case1", box)
        assert enc.contains(-10.34472038952272)

    def test_degenerate_edge_cannot_certify(self):
        # touching u = 0 with v = w inside: supremum is genuinely 0
        box = BoxRegion(u=(0.0, 0.5), v=(0.8, 1.2), w=(0.8, 1.2), case=CaseRegion.CASE2)
        enc = eval_interval("d_case2", box)
        assert enc.hi >= 0.0

    def test_case2_enclosure_has_no_cancelling_pair(self):
        # in hyperbolic form, v sinh(v) - v cosh(v) = -v e^-v is two terms
        # near 1.2e4 whose intervals cancel to about [-1567, 1324]
        box = BoxRegion(u=(0.05, 0.1), v=(7.5, 8.0), w=(1.0, 1.1), case=CaseRegion.CASE2)
        assert eval_interval("d_case2", box).hi < 0.0

    def test_soundness_random_points(self, rng):
        for expr in CATALOG.values():
            checked = 0
            while checked < 100:
                box = random_box(rng, expr.case)
                clipped = box.clipped(expr.variables)
                if clipped is None:
                    continue
                point = {
                    name: float(rng.uniform(*getattr(clipped, name)))
                    for name in expr.variables
                }
                enc = eval_interval(expr, box)
                assert enc.contains(expr.point(**point)), expr.name
                checked += 1

    def test_nested_enclosures_shrink(self, rng):
        expr = CATALOG["d_case2"]
        for _ in range(50):
            box = random_box(rng, CaseRegion.CASE2)
            clipped = box.clipped(expr.variables)
            if clipped is None:
                continue
            parent = eval_interval(expr, clipped)
            axis = clipped.widest_axis(expr.variables)
            for child in clipped.split(axis):
                child_enc = eval_interval(expr, child).intersect(parent)
                assert child_enc.width <= parent.width
                assert parent.contains(child_enc.lo) and parent.contains(child_enc.hi)

    def test_box_of_another_case_rejected(self):
        # d_case1 is not d on case 2: -10.25 against d = -5.75 at (0.5, 2, 1)
        box = BoxRegion(u=(0.1, 1.0), v=(1.0, 3.0), w=(1.0, 1.0), case=CaseRegion.CASE2)
        with pytest.raises(ValueError, match="not on case2"):
            eval_interval("d_case1", box)
        with pytest.raises(ValueError, match="not on case2"):
            certify_negative("d_case1", box, max_depth=12)

    def test_empty_intersection_raises(self):
        box = BoxRegion(u=(3.0, 4.0), v=(0.1, 0.2), w=(1.0, 2.0), case=CaseRegion.CASE2)
        with pytest.raises(EmptyRegionError):
            eval_interval("d_case2", box)  # needs u <= w <= v, impossible here

    @pytest.mark.parametrize("name", ["d_case1", "d_case2"])
    def test_sub_micron_boxes_contain_the_high_precision_values(self, name):
        # below the pinned widths: each enclosure holds the 40-digit value of
        # d at the 8 corners and the centre of the box it encloses, each that
        # meets the case order (the form is d only there); one box in four
        # starts its middle axis at the lower end of the one below
        rng = random.Random(37)
        expr = CATALOG[name]
        # the axes in case order, lowest first: w <= u <= v or u <= w <= v
        order = ("w", "u", "v") if expr.case is CaseRegion.CASE1 else ("u", "w", "v")
        for _ in range(150):
            anchors = sorted(rng.uniform(0.01, 6.0) for _ in range(3))
            if rng.random() < 0.25:
                anchors[1] = anchors[0]
            spans = {
                axis: (x, x + 10.0 ** rng.uniform(-14.0, -4.0))
                for axis, x in zip(order, anchors)
            }
            box = BoxRegion(**spans, case=expr.case).clipped()
            enc = eval_interval(expr, box)
            points = list(itertools.product(box.u, box.v, box.w))
            points.append(tuple(0.5 * (lo + hi) for lo, hi in (box.u, box.v, box.w)))
            for u, v, w in points:
                point = {"u": u, "v": v, "w": w}
                if point[order[0]] <= point[order[1]] <= point[order[2]]:
                    assert enc.lo <= mp_d(u, v, w) <= enc.hi, (box, point)


def enclosure_gradient(expr, box: BoxRegion) -> list:
    """The gradient enclosure that the enclosure's ``Dual`` pass computes."""
    axes = [Interval(*getattr(box, name)) for name in expr.variables]
    duals = [Dual.variable(axis, index, len(axes)) for index, axis in enumerate(axes)]
    return list(expr.fn(*duals).grad)


class TestFormEvaluations:
    """How many times one enclosure evaluates its catalog form.

    The ``Dual`` pass is one evaluation.  When every axis is monotone or
    has zero width, the two corners bound the range: three in all.  An axis
    whose gradient straddles 0 adds the mean-value form's centre: four when
    another axis is monotone, two when none is, as then no face is pinned.
    A point box pins no face either, and its ``Dual`` pass is all it takes.
    """

    @pytest.mark.parametrize(
        "box, signs, evaluations",
        [
            (((0.5, 0.51), (2.0, 2.01), (1.0, 1.01)), "--+", 3),
            (((0.5, 0.51), (2.0, 2.01), (1.0, 1.0)), "--+", 3),
            (((0.0, 0.1), (2.0, 2.01), (1.0, 1.01)), "0-+", 4),
            (((0.0, 0.5), (0.8, 1.2), (0.8, 1.2)), "000", 2),
            (((0.5, 0.5), (2.0, 2.0), (1.0, 1.0)), "--+", 1),
        ],
        ids=["monotone", "zero-width-axis", "straddling-axis", "no-monotone-axis", "point"],
    )
    def test_evaluations_per_enclosure(self, monkeypatch, box, signs, evaluations):
        form = CATALOG["d_case2"]
        box = BoxRegion(*box, case=form.case)
        # the sign of each partial over the box, "0" where it may vanish
        gradient = enclosure_gradient(form, box)
        assert "".join("-" if g.hi < 0.0 else "+" if g.lo > 0.0 else "0" for g in gradient) == signs
        calls = []

        def counting(*args):
            calls.append(args)
            return form.fn(*args)

        monkeypatch.setitem(CATALOG, "d_case2", form._replace(fn=counting))
        eval_interval("d_case2", box)
        assert len(calls) == evaluations


def pin_boxes() -> list[tuple[str, BoxRegion]]:
    """500 seeded boxes, 100 per catalog form, each meeting its case order.

    Widths run from 1e-4 to about 3; about one axis in 17 starts at 0.
    """
    rng = random.Random(34)
    names = list(CATALOG)
    boxes = []
    while len(boxes) < 500:
        expr = CATALOG[names[len(boxes) % len(names)]]
        spans = []
        for _ in range(3):
            lo = max(0.0, rng.uniform(-0.5, 8.0))
            spans.append((lo, lo + 10.0 ** rng.uniform(-4.0, 0.5)))
        box = BoxRegion(*spans, case=expr.case)
        if box.clipped(expr.variables) is not None:
            boxes.append((expr.name, box))
    return boxes


class TestBitForBit:
    """Enclosures and bisections, pinned to the bit.

    A faster interval kernel must give the same floats: the digest covers
    both ends of each enclosure of ``pin_boxes()`` as ``float.hex`` strings.
    The pins were taken while every enclosure still built the mean-value
    form; on these widths (1e-4 and up) it never binds where every axis is
    monotone, so skipping it there leaves every pin as it was.  Below 1e-6
    it can bind by a few ulps, so narrower boxes are checked for soundness,
    not bits (``test_sub_micron_boxes_contain_the_high_precision_values``).
    """

    def test_enclosures_are_pinned(self):
        ends = [
            (enc.lo.hex(), enc.hi.hex())
            for enc in (eval_interval(name, box) for name, box in pin_boxes())
        ]
        digest = hashlib.sha256(repr(ends).encode()).hexdigest()
        assert digest == "ca0260a53a8527b91bc137508854c4536f0385c3a50c36b2343e4c9f83a069c4"

    @pytest.mark.parametrize(
        "name, box, depth, certified, boxes, deepest",
        [
            ("d1_case2", ((0.05, 3.0),) * 3, 12, True, 133, 6),
            ("d_case2", ((0.0, 1.0), (0.5, 1.5), (0.5, 1.5)), 4, False, 467, 4),
        ],
    )
    def test_bisections_are_pinned(self, name, box, depth, certified, boxes, deepest):
        result = certify_negative(name, BoxRegion(*box, case=CATALOG[name].case), depth)
        assert (result.certified, result.boxes_evaluated, result.deepest_level) == (
            certified, boxes, deepest
        )


class TestCertification:
    def test_case2_slab_certifies(self):
        box = BoxRegion(u=(0.1, 1.0), v=(1.0, 3.0), w=(1.0, 1.0), case=CaseRegion.CASE2)
        result = certify_negative("d_case2", box, max_depth=20)
        assert result.certified

    def test_case1_block_certifies(self):
        box = BoxRegion(u=(1.0, 4.0), v=(1.0, 4.0), w=(0.5, 1.0), case=CaseRegion.CASE1)
        result = certify_negative("d_case1", box, max_depth=20)
        assert result.certified

    def test_boundary_box_undetermined_and_localized(self, boundary_witness):
        # d_case2 at depth 8 on u in [0, 1], v, w in [0.5, 2] (see conftest)
        result = boundary_witness
        assert not result.certified
        assert result.undecided
        for b in result.undecided:
            assert b.u[0] <= 0.1  # clustered at u -> 0
            assert b.v[0] <= b.w[1] + 1e-12 and b.w[0] <= b.v[1] + 1e-12  # v ~ w

    def test_case2_slope_form_still_certifies_by_bisection(self):
        # independent of the exact case-2 slope link: bisecting d1_case2 on
        # the default cube at the default depth certifies it
        cube = BoxRegion(u=(0.05, 8.0), v=(0.05, 8.0), w=(0.05, 8.0), case=CaseRegion.CASE2)
        result = certify_negative("d1_case2", cube, max_depth=18)
        assert result.certified and not result.undecided
        assert result.boxes_evaluated <= 169

    def test_certified_boxes_survive_grid_falsifier(self):
        box = BoxRegion(u=(0.1, 1.0), v=(1.0, 3.0), w=(1.0, 1.0), case=CaseRegion.CASE2)
        assert certify_negative("d_case2", box, max_depth=20).certified
        grid = np.linspace(0.1, 1.0, 100)
        vs = np.linspace(1.0, 3.0, 100)
        worst = max(d_expr(u, v, 1.0) for u in grid for v in vs)
        assert worst < 0.0

    def test_dense_grid_falsifier_on_default_regions(self):
        # 10^6 grid points per certified region; the certified claims must
        # never contradict a dense maximum (vectorized mirror of d)
        axis = np.linspace(0.05, 8.0, 100)
        u, v, w = np.meshgrid(axis, axis, axis, indexing="ij")

        def d_grid(u, v, w):
            factor = np.sinh(w) / w
            g0u = 0.5 * (np.exp(np.minimum(u, w)) + np.exp(-u))
            g0v = 0.5 * (np.exp(np.minimum(v, w)) + np.exp(-v))
            g1u = 0.5 * u * (np.exp(np.minimum(u, w)) - np.exp(-u))
            g1v = 0.5 * v * (np.exp(np.minimum(v, w)) - np.exp(-v))
            return 2.0 * (g1u + g1v - factor * (g0u * v**2 + g0v * u**2))

        values = d_grid(u, v, w)
        case1 = (w <= u) & (u <= v)
        case2 = (u <= w) & (w <= v)
        assert values[case1].max() < 0.0
        assert values[case2].max() < 0.0

    def test_vacuous_region_is_certified(self):
        box = BoxRegion(u=(3.0, 4.0), v=(0.1, 0.2), w=(1.0, 2.0), case=CaseRegion.CASE2)
        result = certify_negative("d_case2", box, max_depth=18)
        assert result.certified and result.boxes_evaluated == 0

    def test_box_budget_ends_undecided(self, monkeypatch):
        # d1_case2 certifies on the default cube in 169 boxes; with a budget
        # of 100 the boxes still pending are undecided and nothing certifies
        cube = BoxRegion(u=(0.05, 8.0), v=(0.05, 8.0), w=(0.05, 8.0), case=CaseRegion.CASE2)
        monkeypatch.setattr(regions, "MAX_BOXES", 100)
        result = certify_negative("d1_case2", cube, max_depth=18)
        assert not result.certified and result.undecided
        assert result.boxes_evaluated == 100
        assert result.undecided == tuple(sorted(result.undecided, key=lambda b: b[:3]))
        monkeypatch.setattr(regions, "MAX_BOXES", 169)
        assert certify_negative("d1_case2", cube, max_depth=18).certified

    def test_deterministic_output(self):
        box = BoxRegion(u=(0.0, 1.0), v=(0.5, 1.5), w=(0.5, 1.5), case=CaseRegion.CASE2)
        a = certify_negative("d_case2", box, max_depth=6)
        b = certify_negative("d_case2", box, max_depth=6)
        assert a == b


# the case orders written out here, independent of regions._CASE_ORDER
ORDERS = {
    CaseRegion.CASE1: (("w", "u"), ("u", "v")),  # w <= u <= v
    CaseRegion.CASE2: (("u", "w"), ("w", "v")),  # u <= w <= v
}
AXIS_SUBSETS = [axes for r in range(4) for axes in itertools.combinations("uvw", r)]


def two_sweep_clip(box: BoxRegion, axes: tuple[str, ...]):
    """The reference clip: both sweeps of every pair, twice, over a dict of lists."""
    bounds = {name: list(getattr(box, name)) for name in "uvw"}
    pairs = [(a, b) for a, b in ORDERS[box.case] if a in axes and b in axes]
    for _ in range(2):
        for a, b in pairs:
            bounds[b][0] = max(bounds[b][0], bounds[a][0])
            bounds[a][1] = min(bounds[a][1], bounds[b][1])
    if any(bounds[name][0] > bounds[name][1] for name in axes):
        return None
    if "v" not in axes:
        bounds["v"] = next(bounds[a] for a, b in ORDERS[box.case] if b == "v")
    return BoxRegion(*(tuple(bounds[name]) for name in "uvw"), case=box.case)


def clip_boxes(seed: int, count: int):
    """Seeded (box, axes) pairs over both cases and every axis subset.

    Ends come from a coarse grid half the time, so ties and degenerate
    ranges (lo == hi) are common, and many boxes miss their case order.
    """
    rng = random.Random(seed)
    grid = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)

    def end() -> float:
        return rng.choice(grid) if rng.random() < 0.5 else rng.uniform(0.0, 3.0)

    for index in range(count):
        spans = []
        for _ in range(3):
            lo = end()
            spans.append((lo, lo) if rng.random() < 0.2 else tuple(sorted((lo, end()))))
        case = (CaseRegion.CASE1, CaseRegion.CASE2)[index % 2]
        yield BoxRegion(*spans, case=case), AXIS_SUBSETS[index // 2 % len(AXIS_SUBSETS)]


class TestClipping:
    def test_case1_chain(self):
        box = BoxRegion(u=(0.0, 2.0), v=(0.0, 1.0), w=(0.5, 3.0), case=CaseRegion.CASE1)
        clipped = box.clipped()
        # w <= u <= v forces u, v >= 0.5 and w, u <= 1
        assert clipped.u == (0.5, 1.0)
        assert clipped.v == (0.5, 1.0)
        assert clipped.w == (0.5, 1.0)

    def test_two_variable_clip_keeps_relevant_constraint(self):
        box = BoxRegion(u=(0.0, 5.0), v=(0.0, 5.0), w=(1.0, 2.0), case=CaseRegion.CASE2)
        clipped = box.clipped(("u", "w"))
        assert clipped.u == (0.0, 2.0)  # u <= w
        assert clipped.v == clipped.w == (1.0, 2.0)  # on the face v = w

    def test_matches_the_two_sweep_clip(self):
        seen, empty, degenerate = set(), 0, 0
        for box, axes in clip_boxes(seed=35, count=100_000):
            clipped = box.clipped(axes)
            assert clipped == two_sweep_clip(box, axes), (box, axes)
            seen.add((box.case, axes))
            empty += clipped is None
            degenerate += any(lo == hi for lo, hi in box[:3])
        assert len(seen) == 2 * len(AXIS_SUBSETS)  # both cases, every axis subset
        assert empty > 10_000 and degenerate > 10_000

    @pytest.mark.parametrize(
        "box, axes",
        [
            (BoxRegion((0.5, 1.0), (1.0, 2.0), (0.2, 0.5), CaseRegion.CASE1), ("u", "v", "w")),
            (BoxRegion((1.0, 1.0), (1.0, 1.0), (1.0, 1.0), CaseRegion.CASE1), ("u", "v", "w")),
            (BoxRegion((0.0, 1.0), (1.0, 2.0), (1.0, 2.0), CaseRegion.CASE2), ("u", "w")),
            (BoxRegion((0.0, 4.0), (5.0, 6.0), (1.0, 2.0), CaseRegion.CASE2), ("v", "w")),
        ],
    )
    def test_an_ordered_box_comes_back_as_itself(self, box, axes):
        assert box.clipped(axes) is box

    @pytest.mark.parametrize(
        "name, box",
        [
            ("d_case1", ((1.0, 2.0), (0.1, 0.2), (3.0, 4.0))),  # needs w <= u <= v
            ("d_case2", ((3.0, 4.0), (0.1, 0.2), (1.0, 2.0))),  # needs u <= w <= v
            ("d_at_v_eq_w_case2", ((3.0, 4.0), (0.0, 9.0), (1.0, 2.0))),  # needs u <= w
        ],
    )
    def test_certify_negative_on_a_box_missing_its_order(self, name, box):
        result = certify_negative(name, BoxRegion(*box, case=CATALOG[name].case), 18)
        assert result == (True, (), 0, 0)

    @pytest.mark.parametrize("name, plane", [("d_at_v_eq_w_case2", "w")])
    def test_restricted_forms_report_boxes_on_their_plane(self, name, plane):
        # the face vanishes at the origin, so [0, 1]^3 leaves undecided boxes
        cube = BoxRegion(u=(0.0, 1.0), v=(0.0, 1.0), w=(0.0, 1.0), case=CATALOG[name].case)
        result = certify_negative(name, cube, 5)
        assert result.undecided
        assert all(b.v == getattr(b, plane) for b in result.undecided)


def row(name):
    return next(link for link in LINKS if link.name == name)


def with_identities(name, mutated):
    # LINKS with the named row's identity builder swapped for ``mutated``
    return tuple(
        link._replace(identities=mutated) if link.name == name else link
        for link in LINKS
    )


# battery entry -> the case-structure links that read it
LEMMA_READERS = {
    "d1_case1_concavity_majorant": {"case1_slope_at_v_eq_u"},
    "d1_case1_at_corner": {"case1_slope_at_v_eq_u"},
    "d1_case1_slope_at_corner": {"case1_slope_at_v_eq_u"},
    "d1_case2_concavity_majorant": {"case2_decreasing_in_v"},
    "d1_case2_slope_at_u_zero": {"case2_decreasing_in_v"},
    "d111_negativity": {"case2_decreasing_in_v"},
    "sinh_dominates_identity": {
        "case1_concavity_in_v", "case1_slope_at_v_eq_u", "case2_decreasing_in_v"
    },
    "sinh_over_increasing": {"case1_diagonal", "case3_decreasing_in_w", "boundary_v_eq_w"},
}


class TestCaseStructure:
    def test_full_report_passes(self, battery):
        report = verify_case_structure(0.05, 8.0, battery)
        assert report.all_passed
        names = {c.name for c in report.checks}
        assert names == {
            "case1_concavity_in_v",
            "case1_slope_at_v_eq_u",
            "case1_diagonal",
            "case2_decreasing_in_v",
            "case3_decreasing_in_w",
            "boundary_v_eq_w",
        }
        # every link rests on battery lemmas and exact steps; the three
        # identity links say how many identities expanded to 0
        for name, count in (
            ("case1_concavity_in_v", 2), ("case1_slope_at_v_eq_u", 3), ("case2_decreasing_in_v", 6)
        ):
            assert f"{count} of {count} identities expand to 0" in report.check(name).detail

    @pytest.mark.parametrize("spoiled", [False, True], ids=["full", "spoiled"])
    @pytest.mark.parametrize("cube", [(0.3, 2.0), (0.0, 1.0)], ids=["0.3:2", "0:1"])
    def test_every_detail_fills_its_slots(self, battery, spoiled, cube):
        # each template slot is filled, whether the link passes or not
        if spoiled:
            battery = battery._replace(
                entries=tuple(
                    e._replace(replay_matches=False)
                    if e.name == "sinh_over_increasing"
                    else e
                    for e in battery.entries
                ),
            )
        report = verify_case_structure(*cube, battery)
        assert [c.name for c in report.checks] == [link.name for link in LINKS]
        for check in report.checks:
            assert "{" not in check.detail and "}" not in check.detail, check.name

    def test_case3_step_is_a_replayed_certificate(self, battery):
        lemma = next(e for e in battery.entries if e.name == "sinh_over_increasing")
        assert lemma.expression == "w*cosh(w) - sinh(w)"
        assert lemma.certified and lemma.decision.outcome is Outcome.POSITIVE
        assert replay(lemma.decision.certificate) is Outcome.POSITIVE
        detail = verify_case_structure(0.3, 2.0, battery).check(
            "case3_decreasing_in_w"
        ).detail
        assert detail.startswith(
            f"{lemma.expression} = sinh_over_increasing positive (prover certificate, replayed)"
            " on w > 0"
        )
        assert "u^2 cosh(v) + v^2 cosh(u) nonnegative by its form" in detail

    def test_case3_passes_on_a_cube_reaching_the_origin(self, battery):
        # the multiplier u^2 cosh(v) + v^2 cosh(u) is nonnegative everywhere,
        # so case 3 needs no lo > 0, unlike the diagonal and the face
        report = verify_case_structure(0.0, 1.0, battery)
        assert report.check("case3_decreasing_in_w").passed

    def test_case3_formula_is_d_with_neither_side_capped(self, battery):
        # the case-3 detail states d = 2 (u sinh(u) + v sinh(v) - so(w) m);
        # tilted's one definition of d expands to it term for term
        m = U * U * vcosh(V) + V * V * vcosh(U)
        stated = 2 * (U * vsinh(U) + V * vsinh(V) - vsinh_over(W) * m)
        assert d(U, V, W, u_capped=False, v_capped=False) == stated
        detail = verify_case_structure(0.3, 2.0, battery).check("case3_decreasing_in_w").detail
        assert "d = 2 (u sinh(u) + v sinh(v) - so(w) m)" in detail
        assert "m = u^2 cosh(v) + v^2 cosh(u)" in detail

    def test_face_fails_on_a_cube_reaching_u_zero(self, battery):
        # d(0, w, w) = 0: the face is negative only for u > 0, and it is
        # exact, so it fails on lo = 0 with no bisection behind it
        report = verify_case_structure(0.0, 1.0, battery)
        face = report.check("boundary_v_eq_w")
        assert not face.passed and not report.all_passed
        assert face.detail.endswith("the cube starts at u = 0.0")
        assert verify_case_structure(0.01, 1.0, battery).check("boundary_v_eq_w").passed

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda e: e._replace(replay_matches=False),
            lambda e: e._replace(
                decision=SignDecision(Outcome.UNDETERMINED, None, reason="spoiled")
            ),
            lambda e: e._replace(expected=Outcome.NEGATIVE),
        ],
        ids=["no-replay", "undetermined", "wrong-sign"],
    )
    def test_exact_links_need_the_battery_lemma(self, battery, spoil):
        # a battery whose sinh_over_increasing entry is not certified fails
        # the diagonal, the face and case 3, and only those
        entries = tuple(
            spoil(e) if e.name == "sinh_over_increasing" else e for e in battery.entries
        )
        spoiled = battery._replace(entries=entries)
        assert not spoiled.all_certified
        report = verify_case_structure(0.3, 2.0, spoiled)
        failed = {c.name for c in report.checks if not c.passed}
        assert failed == {"case1_diagonal", "case3_decreasing_in_w", "boundary_v_eq_w"}
        # a failing detail never claims the lemma was replayed
        for name in failed:
            detail = report.check(name).detail
            assert "replayed" not in detail and "the battery did not certify" in detail

    def test_case2_slope_link_reads_its_lemmas_and_identities(self, battery):
        link = verify_case_structure(0.05, 8.0, battery).check("case2_decreasing_in_v")
        assert link.passed
        assert "6 of 6 identities expand to 0" in link.detail
        for symbol, name in row("case2_decreasing_in_v").lemmas:
            entry = next(e for e in battery.entries if e.name == name)
            assert entry.certified
            outcome = entry.decision.outcome.value
            assert f"{symbol} = {name} {outcome} (prover certificate, replayed)" in link.detail
        assert link.detail.endswith("the cube starts at w = 0.05")

    @pytest.mark.parametrize("index", range(6))
    def test_case2_slope_link_fails_on_a_flipped_sign(self, battery, monkeypatch, index):
        # every summand of every right-hand side is needed: negating any one
        # of them leaves a nonzero expansion and fails the link
        exact = row("case2_decreasing_in_v").identities
        lemmas = {
            symbol: Laurent.in_w(parse_expression(e.expression))
            for symbol, name in row("case2_decreasing_in_v").lemmas
            for e in battery.entries
            if e.name == name
        }
        summands = len(exact(lemmas)[index][1])
        assert summands >= 1
        for flipped in range(summands):

            def mutated(lemmas):
                identities = list(exact(lemmas))
                lhs, rhs = identities[index]
                rhs = tuple(-t if k == flipped else t for k, t in enumerate(rhs))
                identities[index] = (lhs, rhs)
                return tuple(identities)

            monkeypatch.setattr(regions, "LINKS", with_identities("case2_decreasing_in_v", mutated))
            report = verify_case_structure(0.3, 2.0, battery)
            link = report.check("case2_decreasing_in_v")
            assert not link.passed and not report.all_passed
            assert "5 of 6 identities expand to 0" in link.detail
            assert {c.name for c in report.checks if not c.passed} == {"case2_decreasing_in_v"}

    @pytest.mark.parametrize("name", [name for _, name in row("case2_decreasing_in_v").lemmas])
    @pytest.mark.parametrize(
        "spoil",
        [
            lambda e: e._replace(replay_matches=False),
            lambda e: e._replace(
                decision=SignDecision(Outcome.UNDETERMINED, None, reason="spoiled")
            ),
        ],
        ids=["no-replay", "undetermined"],
    )
    def test_case2_slope_link_needs_each_lemma(self, battery, name, spoil):
        # each lemma fails exactly the links that read it: sinh(w) > w is
        # read by both case-1 identity links too
        entries = tuple(spoil(e) if e.name == name else e for e in battery.entries)
        spoiled = battery._replace(entries=entries)
        report = verify_case_structure(0.3, 2.0, spoiled)
        link = report.check("case2_decreasing_in_v")
        assert not link.passed
        assert {c.name for c in report.checks if not c.passed} == LEMMA_READERS[name]
        outcome = next(e for e in entries if e.name == name).decision.outcome.value
        assert f"{name} {outcome} (the battery did not certify it)" in link.detail

    def test_case2_slope_link_fails_on_a_cube_reaching_w_zero(self, battery):
        # d1 = 0 at w = 0, so the exact link needs lo > 0 and fails without
        # a bisection behind it
        link = verify_case_structure(0.0, 1.0, battery).check("case2_decreasing_in_v")
        assert not link.passed
        assert "6 of 6 identities expand to 0" in link.detail
        assert link.detail.endswith("the cube starts at w = 0.0")
        assert verify_case_structure(0.01, 1.0, battery).check("case2_decreasing_in_v").passed

    @pytest.mark.parametrize("name", ["d_case2", "d1_case2"])
    def test_case2_slope_link_reads_the_catalog_forms(self, battery, monkeypatch, name):
        # the identities expand the catalog's own functions: a transcription
        # slip in either form fails the link
        form = CATALOG[name]
        slipped = form._replace(
            fn=lambda u, v, w: form.fn(u, v, w) + 0.001 * u * vexp(-v)
        )
        monkeypatch.setitem(CATALOG, name, slipped)
        link = verify_case_structure(0.3, 2.0, battery).check("case2_decreasing_in_v")
        assert not link.passed

    def test_derived_regions_name_the_cube_of_their_checks(self, battery):
        # no link bisects, so an entry names no depth and evaluates no box
        report = verify_case_structure(0.3, 2.0, battery)
        entries = report.derived_regions()
        assert [e["expression"] for e in entries] == ["d_case1", "d_case2"]
        for entry in entries:
            assert entry["links"] == [
                link.name for link in LINKS if link.derives == entry["expression"]
            ]
            assert "depth" not in entry
            assert entry["boxes_evaluated"] == 0 and entry["undecided_boxes"] == []
            region = entry["region"]
            assert region["u"] == region["v"] == region["w"] == list(report.cube) == [0.3, 2.0]
            assert region["case"] == CATALOG[entry["expression"]].case.value

    def test_case1_slope_fails_on_a_cube_reaching_the_origin(self, battery):
        # D1 = w e^u d_v(u, u, w) = 0 at w = 0, so the exact slope link
        # needs lo > 0; at u = w = 0 the slope itself is 0, and d(0, 0, 0) = 0
        report = verify_case_structure(0.0, 1.0, battery)
        slope = report.check("case1_slope_at_v_eq_u")
        assert not slope.passed and not report.all_passed
        assert "3 of 3 identities expand to 0" in slope.detail
        assert slope.detail.endswith("the cube starts at w = 0.0")
        assert not report.check("case1_diagonal").passed
        assert verify_case_structure(0.01, 1.0, battery).check("case1_slope_at_v_eq_u").passed

    def test_every_battery_lemma_is_read_by_a_link(self, battery):
        # a lemma that no link reads is certified for nothing: spoiling any
        # battery entry must fail some link, and exactly the links that
        # read it
        assert [e.name for e in battery.entries] == [name for name, *_ in BATTERY]
        assert set(LEMMA_READERS) == {name for name, *_ in BATTERY}
        for name in LEMMA_READERS:
            entries = tuple(
                e._replace(replay_matches=False) if e.name == name else e
                for e in battery.entries
            )
            report = verify_case_structure(0.3, 2.0, battery._replace(entries=entries))
            failed = {c.name for c in report.checks if not c.passed}
            assert failed, f"no link reads {name}"
            assert failed == LEMMA_READERS[name], name
            # a failing detail never claims the lemma was replayed
            for link in failed:
                assert "did not certify" in report.check(link).detail, (name, link)

    @pytest.mark.parametrize(
        "link, identities, count",
        [
            ("case1_concavity_in_v", "_case1_concavity_identities", 2),
            ("case1_slope_at_v_eq_u", "_case1_slope_identities", 3),
        ],
    )
    def test_case1_link_fails_on_a_flipped_sign(
        self, battery, monkeypatch, link, identities, count
    ):
        # every summand of every right-hand side is needed: negating any one
        # of them fails that link and no other
        exact = row(link).identities
        assert exact is getattr(regions, identities)
        entries = {e.name: e for e in battery.entries}
        lemmas = {symbol: Laurent.in_w(entries[name].poly) for symbol, name in row(link).lemmas}
        assert len(exact(lemmas)) == count
        for index in range(count):
            for flipped in range(len(exact(lemmas)[index][1])):

                def mutated(lemmas, index=index, flipped=flipped):
                    table = list(exact(lemmas))
                    lhs, rhs = table[index]
                    rhs = tuple(-t if k == flipped else t for k, t in enumerate(rhs))
                    table[index] = (lhs, rhs)
                    return tuple(table)

                monkeypatch.setattr(regions, "LINKS", with_identities(link, mutated))
                report = verify_case_structure(0.3, 2.0, battery)
                assert f"{count - 1} of {count} identities expand to 0" in report.check(link).detail
                assert {c.name for c in report.checks if not c.passed} == {link}
                monkeypatch.undo()

    @pytest.mark.parametrize(
        "name, failed",
        [
            # the slope expands d_case1's v-derivative too
            ("d_case1", {"case1_concavity_in_v", "case1_slope_at_v_eq_u"}),
            ("dv2_case1", {"case1_concavity_in_v"}),
        ],
    )
    def test_case1_links_read_the_catalog_forms(self, battery, monkeypatch, name, failed):
        # a transcription slip in a form fails exactly the links expanding it
        form = CATALOG[name]
        slipped = form._replace(
            fn=lambda u, v, w: form.fn(u, v, w) + 0.001 * u * v * vexp(-v)
        )
        monkeypatch.setitem(CATALOG, name, slipped)
        report = verify_case_structure(0.3, 2.0, battery)
        assert {c.name for c in report.checks if not c.passed} == failed
