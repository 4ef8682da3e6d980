"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Every tolerance below is fixed here, not
calibrated at runtime.
"""

import io
import json
import math
import time
from contextlib import contextmanager, redirect_stdout

import mpmath
import numpy as np
import pytest

from tiltbound import (
    BoxRegion,
    CaseRegion,
    TiltParams,
    certify_negative,
    check_bound,
    d_expr,
    parse_expression,
    ratio_limit_scan,
    replay,
    symmetric_factor,
    tilted_mean,
    verify_battery,
)
from tiltbound import cli
from tiltbound.regions import CATALOG

from conftest import random_symmetric_distribution, zero_mean_factor

STRICT_SLACK = 1e-12


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    started = time.time()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    elapsed = time.time() - started
    if elapsed > budget_seconds:
        print(f"[acceptance] criterion {number} ({label}): FAIL (over budget: {elapsed:.1f}s)")
        raise AssertionError(
            f"criterion {number} exceeded its {budget_seconds:.0f}s budget ({elapsed:.1f}s)"
        )
    print(f"[acceptance] criterion {number} ({label}): PASS ({elapsed:.1f}s)")


def test_criterion_1_bound_property_suite():
    rng = np.random.default_rng(1)
    with criterion(1, "bound property suite", 10.0):
        for _ in range(10_000):
            dist = random_symmetric_distribution(rng, max_pairs=10, x_high=10.0)
            p = TiltParams(float(rng.uniform(1e-3, 5.0)), float(rng.uniform(1e-3, 5.0)))
            report = check_bound(dist, p)
            assert report.mean > -STRICT_SLACK
            assert report.mean > 0.0 or dist.second_moment() == 0.0
            assert report.margin > -STRICT_SLACK


def test_criterion_2_sharpness_reproduction():
    with criterion(2, "sharpness reproduction", 30.0):
        rows = ratio_limit_scan(TiltParams(1.0, 1.0), [0.5, 0.1, 0.01, 0.001])
        ratios = [row.ratio for row in rows]
        assert all(a < b for a, b in zip(ratios, ratios[1:])), "ratios must increase"
        target = math.sinh(1.0)
        assert abs(ratios[-1] - target) < 1e-3
        assert all(r < target for r in ratios), "bound is strict for every sigma"


def test_criterion_3_factor_comparison():
    with criterion(3, "factor comparison", 1.0):
        ratios = {}
        for hw in (1.0, 5.0, 10.0, 20.0):
            p = TiltParams(hw, 1.0)
            sym = symmetric_factor(p)
            gen = zero_mean_factor(p)
            ratios[hw] = sym / gen
        ordered = [ratios[hw] for hw in (1.0, 5.0, 10.0, 20.0)]
        assert all(a > b for a, b in zip(ordered, ordered[1:]))
        assert all(r > 0.5 for r in ordered)
        assert abs(ratios[10.0] - 0.5) < 1e-4


def test_criterion_4_prover_battery():
    with criterion(4, "prover battery", 60.0):
        report = verify_battery()
        assert report.all_certified, report.to_dict()
        for entry in report.entries:
            assert entry.decision.outcome is entry.expected
            assert entry.decision.certificate is not None
            assert replay(entry.decision.certificate) is entry.expected
            assert entry.replay_matches


def test_criterion_5_prover_soundness_falsifier():
    with criterion(5, "prover soundness falsifier", 120.0):
        report = verify_battery()
        for entry in report.entries:
            terms = list(parse_expression(entry.expression).terms())
            want_positive = entry.decision.outcome.value == "positive"
            for i in range(1, 10_001):
                w = 50.0 * i / 10_000
                t = math.exp(w)
                value = math.fsum(float(c) * w**iw * t**kt for iw, kt, c in terms)
                assert (value > 0.0) == want_positive, (entry.name, w, value)


def test_criterion_6_region_certification(boundary_witness):
    with criterion(6, "region certification", 300.0):
        # one default `tiltbound verify-proof`: battery, case structure, and
        # d_case1 and d_case2 derived from their case-structure links on
        # [0.05, 8]^3, with no box evaluated
        stdout = io.StringIO()
        with redirect_stdout(stdout):
            code = cli.main(["verify-proof"])
        payload = json.loads(stdout.getvalue())
        assert code == 0
        assert payload["all_passed"] is True
        assert payload["battery"]["all_certified"] is True
        assert payload["case_structure"]["all_passed"] is True
        cube = [0.05, 8.0]
        by_name = {region["expression"]: region for region in payload["regions"]}
        assert set(by_name) == {"d_case1", "d_case2"}
        for name, case in (("d_case1", "case1"), ("d_case2", "case2")):
            region = by_name[name]
            assert region["region"] == {"u": cube, "v": cube, "w": cube, "case": case}
            assert region["status"] == "certified", (
                f"{len(region['undecided_boxes'])} undecided boxes in {case}"
            )
            assert region["undecided_boxes"] == []
            assert region["boxes_evaluated"] == 0
        assert by_name["d_case1"]["method"] == "derived"
        assert by_name["d_case1"]["links"] == [
            "case1_concavity_in_v", "case1_slope_at_v_eq_u", "case1_diagonal"
        ]
        assert by_name["d_case2"]["method"] == "derived"
        assert by_name["d_case2"]["links"] == ["case2_decreasing_in_v", "boundary_v_eq_w"]

        # independent cross-checks of the derived claims: bisect d_case1 and
        # d_case2 themselves on the same cube at depth 18, within the box
        # counts they take today
        for name, case, most in (
            ("d_case1", CaseRegion.CASE1, 2083), ("d_case2", CaseRegion.CASE2, 51537)
        ):
            direct = certify_negative(
                name, BoxRegion(u=(0.05, 8.0), v=(0.05, 8.0), w=(0.05, 8.0), case=case),
                max_depth=18,
            )
            assert direct.certified, f"{len(direct.undecided)} undecided boxes in {case.value}"
            assert direct.undecided == ()
            assert direct.boxes_evaluated <= most, (name, direct.boxes_evaluated)

        # a box including the u = 0 edge cannot certify: the expression
        # reaches zero at u = 0, v = w, and the undecided leftovers must
        # cluster exactly there (d_case2 at depth 8 on u in [0, 1] and
        # v, w in [0.5, 2], shared with test_regions through conftest)
        boundary = boundary_witness
        assert not boundary.certified
        assert boundary.undecided
        for box in boundary.undecided:
            assert box.u[0] <= 0.1, "witness not clustered at u -> 0"
            assert box.v[0] <= box.w[1] + 1e-9 and box.w[0] <= box.v[1] + 1e-9, (
                "witness not clustered at v -> w"
            )


def test_criterion_7_monotone_in_h():
    rng = np.random.default_rng(7)
    grid = [0.1 * k for k in range(1, 51)]
    with criterion(7, "tilt-rate monotonicity", 5.0):
        for _ in range(100):
            dist = random_symmetric_distribution(rng, max_pairs=10, x_high=10.0)
            w = float(rng.uniform(0.05, 5.0))
            values = [tilted_mean(dist, TiltParams(h, w)) for h in grid]
            # strictly increasing, asserted with the float-mode slack; the
            # sequence saturates at the top atom only to the last ulp
            assert all(b > a - STRICT_SLACK for a, b in zip(values, values[1:]))
            assert values[-1] > values[0]


# -- criterion 8: catalog fidelity -------------------------------------------
#
# Finite differences are taken on a high-precision mirror of d (identical
# folded-g definition, mpmath arithmetic) so that second differences carry
# no float noise; the mirror is pinned against d_expr.

mpmath.mp.dps = 40
_H = mpmath.mpf(1) / 10**8


def _mp_d(u, v, w):
    u, v, w = mpmath.mpf(u), mpmath.mpf(v), mpmath.mpf(w)

    def g(j, x):
        plus = mpmath.e ** min(x, w)
        minus = mpmath.e ** (-x)
        return (x**j * plus + (x**j if j == 0 else -x) * minus) / 2

    factor = mpmath.sinh(w) / w
    return 2 * (g(1, u) + g(1, v) - factor * (g(0, u) * v**2 + g(0, v) * u**2))


def _dv1(u, v, w):
    return float((_mp_d(u, v + _H, w) - _mp_d(u, v - _H, w)) / (2 * _H))


def _dv2(u, v, w):
    return float((_mp_d(u, v + _H, w) - 2 * _mp_d(u, v, w) + _mp_d(u, v - _H, w)) / (_H * _H))


def _case1_point(rng):
    w = float(rng.uniform(0.2, 2.0))
    u = float(rng.uniform(w + 0.1, 4.0))
    v = float(rng.uniform(u + 0.1, 5.0))
    return u, v, w


def _case2_point(rng):
    u = float(rng.uniform(0.1, 1.5))
    w = float(rng.uniform(u + 0.1, 3.0))
    v = float(rng.uniform(w + 0.1, 5.0))
    return u, v, w


# name -> (point sampler, oracle built from finite differences of d)
_FIDELITY_ORACLES = {
    "d_case1": (_case1_point, lambda u, v, w: d_expr(u, v, w)),
    "dv2_case1": (_case1_point, _dv2),
    "d_case2": (_case2_point, lambda u, v, w: d_expr(u, v, w)),
    "d1_case2": (_case2_point, lambda u, v, w: w * math.exp(-w) * _dv1(u, v, w)),
    "d_at_v_eq_w_case2": (_case2_point, lambda u, v, w: d_expr(u, w, w)),
}


def test_criterion_8_catalog_fidelity():
    rng = np.random.default_rng(8)
    with criterion(8, "catalog fidelity", 120.0):
        assert set(_FIDELITY_ORACLES) == set(CATALOG)
        for name, (sample, oracle) in _FIDELITY_ORACLES.items():
            for _ in range(100):
                u, v, w = sample(rng)
                want = oracle(u, v, w)
                expr = CATALOG[name]
                values = {"u": u, "v": v, "w": w}
                got = expr.point(**{axis: values[axis] for axis in expr.variables})
                assert got == pytest.approx(want, rel=1e-5, abs=1e-7), name
