"""Extremal families, the deterministic optimizer, and the sharpness scan."""

import math

import mpmath
import numpy as np
import pytest

from tiltbound import (
    TiltParams,
    ratio_limit_scan,
    scan_to_csv,
    sup_symmetric,
    symmetric_factor,
    three_point_extremal,
    tilted_mean,
    tilted_mean_signed,
    zero_mean_factor,
)
from tiltbound import extremal
from tiltbound.extremal import _pair_objective, pair_atoms

P11 = TiltParams(1.0, 1.0)


def three_point_value(sigma: float, h: float, w: float) -> float:
    """Closed-form tilted mean of the three-point family (the scan's oracle)."""
    s2 = sigma * sigma
    hw = h * w
    return s2 * math.sinh(hw) / w / (1.0 + s2 * (math.cosh(hw) - 1.0) / (w * w))


class TestThreePoint:
    def test_masses(self):
        dist = three_point_extremal(0.1, 1.0)
        assert dist.atoms == ((0.0, 0.99), (1.0, pytest.approx(0.01, abs=1e-15)))
        signed = dict(dist.signed_atoms())
        assert signed[1.0] == pytest.approx(0.005, abs=1e-15)
        assert signed[-1.0] == pytest.approx(0.005, abs=1e-15)

    def test_second_moment_exact(self):
        dist = three_point_extremal(0.5, 1.0)
        assert dist.second_moment() == 0.25

    def test_sigma_at_cap_rejected(self):
        with pytest.raises(ValueError):
            three_point_extremal(1.0, 1.0)
        three_point_extremal(1.0 - 1e-9, 1.0)  # just inside is fine

    def test_closed_form(self):
        dist = three_point_extremal(0.1, 1.0)
        assert tilted_mean(dist, P11) == pytest.approx(three_point_value(0.1, 1, 1), rel=1e-14)


def second_moment(atoms) -> float:
    return math.fsum(x * x * p for x, p in atoms)


WITNESS_PARAMS = [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0), (1.5, 1.5)]


def zero_mean_two_point(sigma2: float, w: float) -> list[tuple[float, float]]:
    """The zero-mean law on {-a, w} with E[X^2] = sigma2, a = sigma2 / w.

    Mass q = a / (w + a) at w balances the mean; E X^2 = a^2 (1 - q) + w^2 q
    = a w = sigma2.  A float search over zero-mean three-atom laws converged
    to this law at small sigma2.
    """
    a = sigma2 / w
    q = a / (w + a)
    return [(-a, 1.0 - q), (w, q)]


class TestCandidateConstructors:
    def test_single_pair_moment(self, rng):
        for _ in range(100):
            sigma2 = float(rng.uniform(0.01, 4.0))
            x = float(rng.uniform(math.sqrt(sigma2), 6.0))
            atoms = pair_atoms(0.0, x, sigma2)
            assert second_moment(atoms) == pytest.approx(sigma2, abs=1e-10)

    def test_two_pair_moment(self, rng):
        for _ in range(100):
            sigma2 = float(rng.uniform(0.05, 4.0))
            sigma = math.sqrt(sigma2)
            x_low = float(rng.uniform(0.01, sigma))
            x_high = float(rng.uniform(sigma, 8.0))
            if x_high <= x_low:
                continue
            atoms = pair_atoms(x_low, x_high, sigma2)
            assert second_moment(atoms) == pytest.approx(sigma2, abs=1e-10)

    @pytest.mark.parametrize("sigma, w", [(0.1, 1.0), (0.5, 1.0), (0.2, 2.0), (1e-5, 0.7)])
    def test_zero_low_pair_is_the_three_point_law(self, sigma, w):
        assert pair_atoms(0.0, w, sigma**2) == three_point_extremal(sigma, w).signed_atoms()

    def test_signed_atoms_order_and_weights(self):
        # a pair of weight 0 is dropped, as SymmetricDiscreteDistribution does
        assert pair_atoms(0.0, 2.0, 4.0) == [(-2.0, 0.5), (2.0, 0.5)]
        assert pair_atoms(1.0, 2.0, 1.0) == [(-1.0, 0.5), (1.0, 0.5)]
        assert pair_atoms(1.0, 3.0, 5.0) == [(-1.0, 0.25), (1.0, 0.25), (-3.0, 0.25), (3.0, 0.25)]

    def test_infeasible_configurations_rejected(self):
        with pytest.raises(ValueError):
            pair_atoms(0.0, 0.5, 1.0)  # x^2 < sigma2
        with pytest.raises(ValueError):
            pair_atoms(2.0, 3.0, 1.0)  # sigma2 below both atoms
        with pytest.raises(ValueError):
            pair_atoms(-1.0, 3.0, 1.0)  # a negative low pair

    @pytest.mark.parametrize("sigma2", [0.0, -0.0])
    def test_points_whose_squares_round_together_are_infeasible(self, sigma2):
        # 1e-170 < 2e-170, but both squares underflow to 0.0, so the weight
        # solve would divide by zero (it raised ZeroDivisionError)
        with pytest.raises(ValueError):
            pair_atoms(1e-170, 2e-170, sigma2)
        assert _pair_objective(sigma2, P11)(1e-170, 2e-170) == -math.inf


class TestPairObjective:
    def test_equals_the_reference_mean_bit_for_bit(self, rng):
        # every ordered pair of a seeded point set, including 0, -0.25, nan,
        # points on both sides of w and w itself, under sigma2 = s * s for
        # each admissible point s, so sigma2 == x_low**2 (q_high = 0) and
        # sigma2 == x_high**2 (q_low = 0) occur exactly
        seen = set()
        for h, w in [(1.0, 1.0), (0.5, 2.0), *(tuple(rng.uniform(0.05, 3.0, 2)) for _ in range(3))]:
            h, w = float(h), float(w)
            free = [float(x) for x in rng.uniform(0.0, 4.0 * w, 6)]
            points = [0.0, 0.1 * w, w, 1.7 * w, 4.0 * w, *free]
            for s in points:
                sigma2 = s * s
                value = _pair_objective(sigma2, TiltParams(h, w))
                for x_low in [-0.25, math.nan, *points]:
                    for x_high in [math.nan, *points]:
                        try:
                            reference = tilted_mean_signed(pair_atoms(x_low, x_high, sigma2), h, w)
                        except ValueError:
                            reference = -math.inf
                            seen.add("infeasible")
                        else:
                            seen.update(
                                name
                                for name, hit in [
                                    ("x_low = 0", x_low == 0.0),
                                    ("q_high = 0", sigma2 == x_low * x_low),
                                    ("q_low = 0", sigma2 == x_high * x_high),
                                    ("x_low < w < x_high", 0 < x_low < w < x_high),
                                    ("both beyond w", w < x_low),
                                    ("both below w", x_high < w),
                                ]
                                if hit
                            )
                        assert value(x_low, x_high) == reference, (h, w, sigma2, x_low, x_high)
        assert seen == {
            "infeasible", "x_low = 0", "q_high = 0", "q_low = 0",
            "x_low < w < x_high", "both beyond w", "both below w",
        }

    def test_each_exponential_is_computed_once(self, monkeypatch):
        # deterministic cost guard: the pair family's exponentials depend on
        # the support point alone, and every point at or beyond w shares the
        # cap's, so no expm1 argument repeats within one search
        calls = []
        expm1 = math.expm1

        def recording(x):
            calls.append(x)
            return expm1(x)

        monkeypatch.setattr(math, "expm1", recording)
        sup_symmetric(0.01, P11)
        assert calls
        assert len(set(calls)) == len(calls)


class TestSupSearch:
    def test_dominates_three_point_candidate(self):
        for sigma in (0.5, 0.1, 0.01):
            found = sup_symmetric(sigma * sigma, P11)
            assert found.value >= tilted_mean(three_point_extremal(sigma, 1.0), P11) - 1e-15

    def test_beats_the_three_point_law_with_a_pair_beyond_the_cap(self):
        # at (h, w, sigma) = (2, 2, 1) the best law puts a pair at +-5.13 > w,
        # so the three-point closed form is not the supremum there and the
        # search is still needed
        p = TiltParams(2.0, 2.0)
        found = sup_symmetric(1.0, p)
        three_point = tilted_mean(three_point_extremal(1.0, 2.0), p)
        assert three_point == pytest.approx(three_point_value(1.0, 2.0, 2.0), rel=1e-12)
        assert three_point == pytest.approx(1.8008, abs=1e-4)
        assert found.value == pytest.approx(2.6616, abs=1e-4)
        outer = max(x for x, _ in found.atoms)
        assert outer == pytest.approx(5.13, abs=5e-3) and outer > p.w
        assert found.value < symmetric_factor(p)

    def test_stays_below_symmetric_bound(self):
        factor = symmetric_factor(P11)
        for sigma in (0.5, 0.2, 0.05):
            found = sup_symmetric(sigma * sigma, P11)
            assert found.value / (sigma * sigma) < factor

    def test_argmax_satisfies_constraints(self):
        found = sup_symmetric(0.01, P11)
        assert sum(x * x * p for x, p in found.atoms) == pytest.approx(0.01, abs=1e-10)
        assert found.value == pytest.approx(
            tilted_mean_signed(list(found.atoms), 1.0, 1.0), rel=1e-12
        )

    def test_zero_mean_ratio_approaches_sharp_factor(self):
        # the symmetric bound needs symmetry: a zero-mean law beats
        # sinh(hw)/w, and its ratio climbs to (e^{hw} - 1)/w as sigma2 -> 0
        for h, w in WITNESS_PARAMS:
            p = TiltParams(h, w)
            ratios = {
                sigma2: tilted_mean_signed(zero_mean_two_point(sigma2, w), h, w) / sigma2
                for sigma2 in (1e-2, 1e-4, 1e-6)
            }
            for sigma2, ratio in ratios.items():
                assert symmetric_factor(p) < ratio < zero_mean_factor(p), (h, w, sigma2)
            assert ratios[1e-6] == pytest.approx(zero_mean_factor(p), rel=1e-4)

    def test_zero_mean_atoms_satisfy_constraints(self):
        for _, w in WITNESS_PARAMS:
            for sigma2 in (1e-2, 1e-4, 1e-6):
                atoms = zero_mean_two_point(sigma2, w)
                assert math.fsum(p for _, p in atoms) == pytest.approx(1.0, abs=1e-15)
                assert math.fsum(x * p for x, p in atoms) == pytest.approx(0.0, abs=1e-15 * w)
                assert second_moment(atoms) == pytest.approx(sigma2, rel=1e-14)

    @pytest.mark.parametrize(
        "search, sigma2, reached",
        # the two-pair search runs once above the cut-off sigma > 1e-9 and
        # never below it (sigma = 1e-10)
        [(sup_symmetric, 0.01, 1), (sup_symmetric, 1e-20, 0)],
    )
    def test_both_families_share_one_search(self, monkeypatch, search, sigma2, reached):
        calls = []
        coordinate_search = extremal._coordinate_search

        def counting_search(*args):
            calls.append(args)
            return coordinate_search(*args)

        monkeypatch.setattr(extremal, "_coordinate_search", counting_search)
        search(sigma2, P11)
        assert len(calls) == reached

    def test_infeasible_sigma_rejected(self):
        # atoms stay in [-4w, 4w], so sigma2 = 100 > (4w)^2 = 16 is infeasible
        with pytest.raises(ValueError):
            sup_symmetric(100.0, P11)

    def test_sigma2_validation(self):
        for sigma2 in (-1.0, 0.0, 1e-320, math.inf, math.nan):  # 1e-320 is subnormal
            with pytest.raises(ValueError):
                sup_symmetric(sigma2, P11)

    def test_refinement_stops_at_its_fixed_point(self, monkeypatch):
        # deterministic cost guard: a coordinate-refinement round that ends
        # on the point it started from would be repeated call for call by
        # the next, so the search stops there; at P11 it stops after round 2
        # of 3 (running all three rounds took 2,909 objective evaluations)
        calls, found = [], []
        objective, refine = extremal._pair_objective, extremal._refine_scalar

        def counting_objective(sigma2, p):
            value = objective(sigma2, p)

            def counted(x_low, x_high):
                calls.append((x_low, x_high))
                return value(x_low, x_high)

            return counted

        def recording_refine(*args, **kwargs):
            best = refine(*args, **kwargs)
            found.append(best[0])
            return best

        monkeypatch.setattr(extremal, "_pair_objective", counting_objective)
        monkeypatch.setattr(extremal, "_refine_scalar", recording_refine)
        sup_symmetric(0.01, P11)
        # 129 + 2 extra + 4 * 129 points with x_low = 0, then a 33 x 33 grid
        # (so far 1,736 calls), then rounds of 3 * 65 points for x_low and
        # 3 * 65 + 1 extra for x_high
        grid_end, per_round = 647 + 33 * 33, 2 * (3 * 65) + 1
        assert len(calls) == grid_end + 2 * per_round
        _, _, high_1, _, high_2 = found
        assert high_1 != calls[grid_end][1]  # round 1 moved x_high off the grid's best
        assert high_2 == high_1  # round 2 did not, so round 3 would repeat it


    def test_subnormal_bound_scale_rejected(self):
        # sinh(hw)/w * sigma2 is the scale of the mean found; below the
        # smallest normal float the search printed ratios off the factor
        for params, sigma2 in [(TiltParams(1e-320, 1.0), 0.01), (TiltParams(1e-300, 1.0), 1e-9)]:
            with pytest.raises(ValueError, match="sinh"):
                sup_symmetric(sigma2, params)
        assert sup_symmetric(0.25, TiltParams(1e-300, 1.0)).value > 0


SCAN_PIN = [  # (h, w, sigma, sup.hex(), atoms) of ratio_limit_scan rows
    (1.0, 1.0, 0.4, "0x1.624db03ed28acp-3",
     ((0.0, 0.84), (-1.0, 0.08000000000000002), (1.0, 0.08000000000000002))),
    (1.0, 1.0, 0.1, "0x1.7f0287258baacp-7",
     ((0.0, 0.99), (-1.0, 0.005000000000000001), (1.0, 0.005000000000000001))),
    (1.0, 1.0, 0.01, "0x1.ece36a2dee25dp-14", ((0.0, 0.9999), (-1.0, 5e-05), (1.0, 5e-05))),
    (1.0, 1.0, 0.001, "0x1.3b772acf7405ep-20", ((0.0, 0.999999), (-1.0, 5e-07), (1.0, 5e-07))),
    (1.0, 1.0, 1e-06, "0x1.4aca2ba77d26cp-40",
     ((0.0, 0.999999999999), (-1.0, 5e-13), (1.0, 5e-13))),
    (1.0, 1.0, 1e-10, "0x1.bbfa7c3c8eb73p-67",
     ((0.0, 1.0), (-1.0, 5.0000000000000005e-21), (1.0, 5.0000000000000005e-21))),
    (2.0, 0.5, 0.4, "0x1.1dc40dda254fbp-2",
     ((0.0, 0.3599999999999999), (-0.5, 0.32000000000000006), (0.5, 0.32000000000000006))),
    (2.0, 0.5, 0.1, "0x1.78e70321a1a97p-6",
     ((0.0, 0.96), (-0.5, 0.020000000000000004), (0.5, 0.020000000000000004))),
    (2.0, 0.5, 0.01, "0x1.eccedc8e7c5adp-13", ((0.0, 0.9996), (-0.5, 0.0002), (0.5, 0.0002))),
    (2.0, 0.5, 0.001, "0x1.3b7709207e2a2p-19", ((0.0, 0.999996), (-0.5, 2e-06), (0.5, 2e-06))),
    (2.0, 0.5, 1e-06, "0x1.4aca2ba77ad64p-39",
     ((0.0, 0.999999999996), (-0.5, 2e-12), (0.5, 2e-12))),
    (2.0, 0.5, 1e-10, "0x1.bbfa7c3c8eb73p-66",
     ((0.0, 1.0), (-0.5, 2.0000000000000002e-20), (0.5, 2.0000000000000002e-20))),
    (0.5, 2.0, 0.4, "0x1.78e70321a1a97p-4",
     ((0.0, 0.96), (-2.0, 0.020000000000000004), (2.0, 0.020000000000000004))),
    (0.5, 2.0, 0.1, "0x1.80915b437cfbfp-8",
     ((0.0, 0.9975), (-2.0, 0.0012500000000000002), (2.0, 0.0012500000000000002))),
    (0.5, 2.0, 0.01, "0x1.ece88dda5ebfbp-15", ((0.0, 0.999975), (-2.0, 1.25e-05), (2.0, 1.25e-05))),
    (0.5, 2.0, 0.001, "0x1.3b77333b329c8p-21",
     ((0.0, 0.99999975), (-2.0, 1.25e-07), (2.0, 1.25e-07))),
    (0.5, 2.0, 1e-06, "0x1.4aca2ba77dbafp-41",
     ((0.0, 0.99999999999975), (-2.0, 1.25e-13), (2.0, 1.25e-13))),
    (0.5, 2.0, 1e-10, "0x1.bbfa7c3c8eb73p-68",
     ((0.0, 1.0), (-2.0, 1.2500000000000001e-21), (2.0, 1.2500000000000001e-21))),
    (1.5, 1.5, 0.4, "0x1.9378d8034b55fp-2",
     ((0.0, 0.9288888888888889), (-1.5, 0.03555555555555556), (1.5, 0.03555555555555556))),
    (1.5, 1.5, 0.1, "0x1.f7e5e8e9e328fp-6",
     ((0.0, 0.9955555555555555), (-1.5, 0.0022222222222222227), (1.5, 0.0022222222222222227))),
    (1.5, 1.5, 0.01, "0x1.47e19046677ffp-12",
     ((0.0, 0.9999555555555556), (-1.5, 2.2222222222222223e-05), (1.5, 2.2222222222222223e-05))),
    (1.5, 1.5, 0.001, "0x1.a3c2077316df3p-19",
     ((0.0, 0.9999995555555555), (-1.5, 2.2222222222222222e-07), (1.5, 2.2222222222222222e-07))),
    (1.5, 1.5, 1e-06, "0x1.b82619b7143f6p-39",
     ((0.0, 0.9999999999995556), (-1.5, 2.2222222222222222e-13), (1.5, 2.2222222222222222e-13))),
    (1.5, 1.5, 1e-10, "0x1.2760fe419ea61p-65",
     ((0.0, 1.0), (-1.5, 2.2222222222222223e-21), (1.5, 2.2222222222222223e-21))),
    (2.0, 2.0, 0.4, "0x1.106d194732266p+0",
     ((0.0, 0.9621298841490795), (-2.055472517572343, 0.018935057925460245), (2.055472517572343, 0.018935057925460245))),
    (2.0, 2.0, 0.1, "0x1.0634170e47467p-3",
     ((0.0, 0.9975), (-2.0, 0.0012500000000000002), (2.0, 0.0012500000000000002))),
    (2.0, 2.0, 0.01, "0x1.657594a9008dcp-10", ((0.0, 0.999975), (-2.0, 1.25e-05), (2.0, 1.25e-05))),
    (2.0, 2.0, 0.001, "0x1.c9d887eea009bp-17",
     ((0.0, 0.99999975), (-2.0, 1.25e-07), (2.0, 1.25e-07))),
    (2.0, 2.0, 1e-06, "0x1.e016dc653280bp-37",
     ((0.0, 0.99999999999975), (-2.0, 1.25e-13), (2.0, 1.25e-13))),
    (2.0, 2.0, 1e-10, "0x1.422eb6babcb50p-63",
     ((0.0, 1.0), (-2.0, 1.2500000000000001e-21), (2.0, 1.2500000000000001e-21))),
]


class TestRatioScan:
    def test_matches_closed_form_oracle(self):
        rows = ratio_limit_scan(P11, [0.5, 0.1, 0.01])
        for row in rows:
            oracle = three_point_value(row.sigma, 1.0, 1.0) / (row.sigma**2)
            assert row.ratio >= oracle - 1e-12
            assert row.ratio == pytest.approx(oracle, rel=1e-6)

    def test_ratios_increase_and_stay_below_factor(self):
        rows = ratio_limit_scan(P11, [0.5, 0.1, 0.01, 0.001])
        ratios = [r.ratio for r in rows]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        factor = symmetric_factor(P11)
        assert all(r.ratio < factor for r in rows)
        assert all(r.gap > 0 for r in rows)

    @pytest.mark.parametrize("hw, sigma", [(0.1, 1.01e-9), (0.05, 1e-11)])
    def test_tiny_sigma_ratio_is_the_mean_found(self, hw, sigma):
        # the +-x atoms of these laws cancelled in the mean's numerator, which
        # printed ratios above the factor with a wrong mean behind them
        (row,) = ratio_limit_scan(TiltParams(hw, hw), [sigma])
        assert row.gap >= 0
        with mpmath.workdps(60):
            h = w = mpmath.mpf(hw)
            atoms = [(mpmath.mpf(x), p) for x, p in row.atoms]
            tilts = [(x, p * mpmath.exp(h * min(x, w))) for x, p in atoms]
            exact = mpmath.fsum(x * e for x, e in tilts) / mpmath.fsum(e for _, e in tilts)
            assert abs(row.sup - exact) <= 1e-14 * exact

    def test_requires_sigma_below_cap(self):
        with pytest.raises(ValueError):
            ratio_limit_scan(P11, [1.5])

    def test_other_tilt_parameters(self):
        p = TiltParams(2.0, 0.5)
        rows = ratio_limit_scan(p, [0.1, 0.01])
        factor = symmetric_factor(p)
        assert rows[-1].ratio == pytest.approx(factor, rel=1e-2)
        assert rows[-1].ratio < factor

    def test_csv_shape_and_determinism(self):
        rows = ratio_limit_scan(P11, [0.5, 0.1])
        text = scan_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "sigma,sup,ratio,bound_factor,gap"
        assert len(lines) == 3
        assert text == scan_to_csv(ratio_limit_scan(P11, [0.5, 0.1]))

    @pytest.mark.parametrize("h, w, sigma, sup, atoms", SCAN_PIN)
    def test_rows_are_pinned_bit_for_bit(self, h, w, sigma, sup, atoms):
        # the scan is deterministic: a change to the search's grids, windows
        # or evaluation order shows here as a different float or argmax
        (row,) = ratio_limit_scan(TiltParams(h, w), [sigma])
        assert (row.sup.hex(), row.atoms) == (sup, atoms)

    def test_two_pair_result_is_pinned_bit_for_bit(self):
        # no SCAN_PIN row takes the two-pair search's point; at sigma2 = 2,
        # P11 it wins, one ulp above the law +-sqrt(2) that the x_low = 0 phase
        # finds, with a low pair whose weight is rounding residue
        found = sup_symmetric(2.0, P11)
        assert found.value.hex() == "0x1.2e9869f0a6e89p+0"
        assert found.atoms == (
            (-0.7928166940576443, 1.6653345369377348e-16), (0.7928166940576443, 1.6653345369377348e-16),
            (-1.4142135623730951, 0.49999999999999983), (1.4142135623730951, 0.49999999999999983),
        )
