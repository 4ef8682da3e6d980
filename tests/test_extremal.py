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
    sup_zero_mean,
    symmetric_factor,
    three_point_extremal,
    tilted_mean,
    tilted_mean_signed,
    zero_mean_factor,
)
from tiltbound import extremal
from tiltbound.extremal import _pair_objective, pair_atoms, zero_mean_three_atom

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

    def test_zero_mean_constraints(self, rng):
        for _ in range(100):
            sigma2 = float(rng.uniform(0.001, 1.0))
            x_pos = float(rng.uniform(0.2, 4.0))
            x_neg = float(rng.uniform(sigma2 / x_pos, 4.0))
            atoms = zero_mean_three_atom(x_pos, x_neg, sigma2)
            mass = sum(p for _, p in atoms)
            mean = sum(x * p for x, p in atoms)
            second = sum(x * x * p for x, p in atoms)
            assert mass == pytest.approx(1.0, abs=1e-10)
            assert mean == pytest.approx(0.0, abs=1e-10)
            assert second == pytest.approx(sigma2, abs=1e-10)

    def test_infeasible_configurations_rejected(self):
        with pytest.raises(ValueError):
            pair_atoms(0.0, 0.5, 1.0)  # x^2 < sigma2
        with pytest.raises(ValueError):
            pair_atoms(2.0, 3.0, 1.0)  # sigma2 below both atoms
        with pytest.raises(ValueError):
            pair_atoms(-1.0, 3.0, 1.0)  # a negative low pair
        with pytest.raises(ValueError):
            zero_mean_three_atom(0.1, 0.1, 1.0)  # zero mass would be negative

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
        factor = zero_mean_factor(P11)
        found = sup_zero_mean(1e-4, P11)
        ratio = found.value / 1e-4
        assert ratio < factor
        assert ratio == pytest.approx(factor, abs=3e-4)

    def test_zero_mean_atoms_satisfy_constraints(self):
        found = sup_zero_mean(1e-4, P11)
        mean = sum(x * p for x, p in found.atoms)
        second = sum(x * x * p for x, p in found.atoms)
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert second == pytest.approx(1e-4, abs=1e-12)

    @pytest.mark.parametrize(
        "sigma2, h, w, value, atoms",
        [
            (1e-4, 1.0, 1.0, "0x1.684f126a9b221p-13",
             ((-0.0001, 0.9999000099990002), (1.0, 9.999000099990002e-05))),
            (1e-2, 2.0, 0.5, "0x1.0d3aff68b862fp-5",
             ((-0.02, 0.9615384615384615), (0.5, 0.038461538461538464),
              (0.0, 1.1102230246251565e-16))),
            (0.25, 0.5, 2.0, "0x1.9a84b69752633p-3",
             ((-0.125, 0.9411764705882353), (2.0, 0.058823529411764705))),
            (1.0, 1.0, 1.0, "0x1.b5892a4c64e0dp-1",
             ((-0.649746192893401, 0.7031507618719764), (1.5390625, 0.29684923812802344),
              (0.0, 1.1102230246251565e-16))),
        ],
    )
    def test_zero_mean_search_is_pinned_bit_for_bit(self, sigma2, h, w, value, atoms):
        # the search is deterministic: a change to its grids, windows or
        # evaluation order shows here as a different float or argmax
        found = sup_zero_mean(sigma2, TiltParams(h, w))
        assert found.value.hex() == value
        assert found.atoms == atoms

    @pytest.mark.parametrize(
        "search, sigma2, reached",
        # sigma = 1e-10 is below the two-pair cut-off sigma > 1e-9
        [(sup_symmetric, 0.01, 1), (sup_zero_mean, 0.01, 1), (sup_symmetric, 1e-20, 0)],
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
        for search in (sup_symmetric, sup_zero_mean):
            with pytest.raises(ValueError):
                search(100.0, P11)

    def test_sigma2_validation(self):
        for search in (sup_symmetric, sup_zero_mean):
            for sigma2 in (-1.0, 0.0, 1e-320, math.inf, math.nan):  # 1e-320 is subnormal
                with pytest.raises(ValueError):
                    search(sigma2, P11)

    def test_refinement_stops_at_its_fixed_point(self, monkeypatch):
        # deterministic cost guard: a coordinate-refinement round that ends
        # on the point it started from would be repeated call for call by
        # the next, so both searches stop there; at P11 sup_symmetric stops
        # after round 2 of 3 and sup_zero_mean after round 1 (running all
        # three rounds took 2,909 and 5,402 objective evaluations)
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

        evaluations = []

        def counting_atoms(*args):
            evaluations.append(args)
            return zero_mean_three_atom(*args)

        monkeypatch.setattr(extremal, "zero_mean_three_atom", counting_atoms)
        sup_zero_mean(0.01, P11)
        # a 65 x 65 grid, one round of 3 * 65 + 1 points per coordinate, and
        # the atoms of the result
        assert len(evaluations) == 65 * 65 + 2 * (3 * 65 + 1) + 1

    def test_subnormal_bound_scale_rejected(self):
        # sinh(hw)/w * sigma2 is the scale of the mean found; below the
        # smallest normal float the search printed ratios off the factor
        for search in (sup_symmetric, sup_zero_mean):
            for params, sigma2 in [(TiltParams(1e-320, 1.0), 0.01), (TiltParams(1e-300, 1.0), 1e-9)]:
                with pytest.raises(ValueError, match="sinh"):
                    search(sigma2, params)
        assert sup_symmetric(0.25, TiltParams(1e-300, 1.0)).value > 0


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
