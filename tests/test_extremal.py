"""Extremal families, the deterministic optimizer, and the sharpness scan."""

import collections
import hashlib
import math
import random
import sys

import mpmath
import numpy as np
import pytest

from tiltbound import (
    TiltParams,
    ratio_limit_scan,
    scan_to_csv,
    sup_symmetric,
    symmetric_factor,
    tilted_mean_signed,
)
from tiltbound import extremal, tilted
from tiltbound.extremal import _three_point_signed

from conftest import zero_mean_factor

P11 = TiltParams(1.0, 1.0)


def three_point_value(sigma: float, h: float, w: float) -> float:
    """Closed-form tilted mean of the three-point family (the scan's oracle)."""
    s2 = sigma * sigma
    hw = h * w
    return s2 * math.sinh(hw) / w / (1.0 + s2 * (math.cosh(hw) - 1.0) / (w * w))


class TestThreePoint:
    # the law on {-w, 0, w} as the search scores it: the signed tuple of
    # _three_point_signed, read by tilted_mean_signed
    def test_masses(self):
        zero, low, high = _three_point_signed(0.1**2, 1.0)
        assert zero == (0.0, 0.99)
        assert low == (-1.0, pytest.approx(0.005, abs=1e-15))
        assert high == (1.0, pytest.approx(0.005, abs=1e-15))

    def test_second_moment_exact(self):
        assert second_moment(_three_point_signed(0.5**2, 1.0)) == 0.25

    def test_closed_form(self):
        mean = tilted_mean_signed(_three_point_signed(0.1**2, 1.0), 1.0, 1.0)
        assert mean == pytest.approx(three_point_value(0.1, 1, 1), rel=1e-14)


def dense_three_point_sup(h: float, w: float, s2: float) -> float:
    """Largest three-point mean in closed form on a dense geometric grid of x past its peak.

    The grid runs from sigma to 100 max(w, sigma e^(hw/2)), far past the
    peak near sigma e^(hw/2) / sqrt(2) of large hw, in 200,001 points; no
    _refine_scalar.
    """
    sigma = math.sqrt(s2)
    x = np.geomspace(sigma, 100.0 * max(w, sigma * math.exp(h * w / 2)), 200_001)
    q, up, down = s2 / (x * x), np.exp(h * np.minimum(x, w)), np.exp(-h * x)
    return float(np.max((s2 / x) * (up - down) / 2 / (1 - q + q * (up + down) / 2)))


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


def two_pair_atoms(x_low: float, x_high: float, sigma2: float) -> list[tuple[float, float]]:
    """Signed atoms of the symmetric law on {+-x_low, +-x_high} with E[X^2] = sigma2.

    The closed-form vertex weights for 0 <= x_low < x_high and x_low^2 <=
    sigma2 <= x_high^2: q_high = (sigma2 - x_low^2) / (x_high^2 - x_low^2) on
    the high pair, the rest on the low pair (one atom at zero when x_low =
    0).  A pair of weight 0 is left out; infeasible points raise ValueError.
    """
    low2, high2 = x_low * x_low, x_high * x_high
    if not (0 <= x_low < x_high and low2 <= sigma2 <= high2 and low2 < high2):
        raise ValueError("infeasible pair configuration")
    q_high = (sigma2 - low2) / (high2 - low2)
    atoms = []
    for x, q in ((x_low, 1.0 - q_high), (x_high, q_high)):
        if q > 0:
            atoms.extend([(0.0, q)] if x == 0.0 else [(-x, q / 2), (x, q / 2)])
    return atoms


SIGNED_PIN = [
    # (sigma2, x, the signed support of the three-point law on {-x, 0, x})
    # as recorded before the search scored one tuple per candidate; None
    # where that law was infeasible
    (4.0, 2.0, ((-2.0, 0.5), (2.0, 0.5))),
    (1.0, 2.0, ((0.0, 0.75), (-2.0, 0.125), (2.0, 0.125))),
    (3.0, math.sqrt(3.0), None),
    (3.0, 1.7320508075688774,
     ((0.0, 1.1102230246251565e-16), (-1.7320508075688774, 0.49999999999999994),
      (1.7320508075688774, 0.49999999999999994))),
    (2.0, math.sqrt(2.0),
     ((0.0, 2.220446049250313e-16), (-1.4142135623730951, 0.4999999999999999),
      (1.4142135623730951, 0.4999999999999999))),
    (1e-300, 1e150, ((0.0, 1.0),)),
    (1e-8, 1e154, ((0.0, 1.0), (-1e154, 4.9999997e-317), (1e154, 4.9999997e-317))),
    (1.0, 0.5, None),
    (0.0, 1.0, None),
    (1.0, math.nan, None),
]


class TestCandidateConstructors:
    def test_single_pair_moment(self, rng):
        for _ in range(100):
            sigma2 = float(rng.uniform(0.01, 4.0))
            x = float(rng.uniform(math.sqrt(sigma2), 6.0))
            atoms = _three_point_signed(sigma2, x)
            assert second_moment(atoms) == pytest.approx(sigma2, abs=1e-10)

    def test_two_pair_moment(self, rng):
        # the falsifier's reference law has the second moment it is built for
        for _ in range(100):
            sigma2 = float(rng.uniform(0.05, 4.0))
            sigma = math.sqrt(sigma2)
            x_low = float(rng.uniform(0.01, sigma))
            x_high = float(rng.uniform(sigma, 8.0))
            if x_high <= x_low:
                continue
            atoms = two_pair_atoms(x_low, x_high, sigma2)
            assert second_moment(atoms) == pytest.approx(sigma2, abs=1e-10)

    @pytest.mark.parametrize("sigma, w", [(0.1, 1.0), (0.5, 1.0), (0.2, 2.0), (1e-5, 0.7)])
    def test_zero_low_pair_is_the_three_point_law(self, sigma, w):
        # the reference at x_low = 0 is the law the search scores
        assert two_pair_atoms(0.0, w, sigma**2) == list(_three_point_signed(sigma**2, w))

    def test_signed_atoms_order_and_weights(self):
        # an atom of weight 0 is left out
        assert _three_point_signed(4.0, 2.0) == ((-2.0, 0.5), (2.0, 0.5))
        assert _three_point_signed(1.0, 2.0) == ((0.0, 0.75), (-2.0, 0.125), (2.0, 0.125))

    def test_infeasible_configurations_rejected(self):
        # x * x < sigma2 would leave a negative mass at zero
        for x in (0.5, 0.0, -0.5, math.nan):
            assert _three_point_signed(1.0, x) is None

    @pytest.mark.parametrize(
        "sigma2, x, signed",
        [pytest.param(sigma2, x, signed, id=f"{sigma2}-{x}") for sigma2, x, signed in SIGNED_PIN],
    )
    def test_the_searched_atoms_are_the_laws_signed_support(self, sigma2, x, signed):
        # the search scores and returns the tuple _three_point_signed lays
        # out, with no law built; it is the law's recorded signed support
        # element for element (the subnormal halves of 1e-8 / 1e154^2
        # included), and None at the infeasible points
        scored = _three_point_signed(sigma2, x)
        if signed is None:
            assert scored is None
            return
        assert type(scored) is tuple and scored == signed
        assert [(a.hex(), b.hex()) for a, b in scored] == [(a.hex(), b.hex()) for a, b in signed]

    @pytest.mark.parametrize("sigma2", [0.0, -0.0])
    def test_points_whose_squares_round_together_are_infeasible(self, sigma2):
        # 0 < 1e-170, but both squares are 0.0, so the pair weight would be
        # 0 / 0 (the two-pair weight solve raised ZeroDivisionError here)
        assert _three_point_signed(sigma2, 1e-170) is None


class TestSupSearch:
    def test_dominates_three_point_candidate(self):
        for sigma in (0.5, 0.1, 0.01):
            found = sup_symmetric(sigma * sigma, P11)
            three_point = tilted_mean_signed(_three_point_signed(sigma**2, 1.0), 1.0, 1.0)
            assert found.value >= three_point - 1e-15

    def test_beats_the_three_point_law_with_a_pair_beyond_the_cap(self):
        # at (h, w, sigma) = (2, 2, 1) the best law puts a pair at +-5.13 > w,
        # so the three-point closed form is not the supremum there and the
        # search is still needed
        p = TiltParams(2.0, 2.0)
        found = sup_symmetric(1.0, p)
        three_point = tilted_mean_signed(_three_point_signed(1.0, 2.0), 2.0, 2.0)
        assert three_point == pytest.approx(three_point_value(1.0, 2.0, 2.0), rel=1e-12)
        assert three_point == pytest.approx(1.8008, abs=1e-4)
        assert found.value == pytest.approx(2.6616, abs=1e-4)
        outer = max(x for x, _ in found.atoms)
        assert outer == pytest.approx(5.13, abs=5e-3) and outer > p.w
        assert found.value < symmetric_factor(p)

    @pytest.mark.parametrize(
        "h, w, sigma, capped",
        # the value each search found when its atoms stopped at 4w
        [(2.0, 5.0, 2.5, 19.886), (2.0, 5.0, 0.5, 17.464), (3.0, 2.0, 1.0, 6.096)],
    )
    def test_reaches_the_three_point_peak_beyond_4w(self, h, w, sigma, capped):
        # the best pair lies past 4w here (near sigma e^(hw/2) / sqrt(2) for
        # large hw); the oracle is the dense closed-form scan
        s2 = sigma * sigma
        dense = dense_three_point_sup(h, w, s2)
        found = sup_symmetric(s2, TiltParams(h, w))
        assert found.value == pytest.approx(dense, rel=1e-8)
        assert found.value > 1.1 * capped
        assert max(x for x, _ in found.atoms) > 4.0 * w

    def test_stays_below_symmetric_bound(self):
        factor = symmetric_factor(P11)
        for sigma in (0.5, 0.2, 0.05):
            found = sup_symmetric(sigma * sigma, P11)
            assert found.value / (sigma * sigma) < factor

    def test_an_infeasible_grid_point_scores_minus_infinity(self, monkeypatch):
        # the first grid point x = sqrt(3) is infeasible by one ulp, so its
        # pair weight 3 / x^2 would pass 1; it scores -inf and the search
        # goes on to a feasible law
        assert math.sqrt(3.0) ** 2 < 3.0
        scores = {}
        refine = extremal._refine_scalar

        def recording(objective, lo, hi, extra=()):
            scores[lo] = objective(lo)
            return refine(objective, lo, hi, extra)

        monkeypatch.setattr(extremal, "_refine_scalar", recording)
        found = sup_symmetric(3.0, TiltParams(1.0, 2.0))
        assert scores == {math.sqrt(3.0): -math.inf}
        assert math.isfinite(found.value) and found.value > 0
        x = max(x for x, _ in found.atoms)
        assert x * x >= 3.0 and x <= 8.0
        assert sorted(z for z, _ in found.atoms) in ([-x, 0.0, x], [-x, x])
        assert all(p > 0 for _, p in found.atoms)
        assert math.fsum(p for _, p in found.atoms) == pytest.approx(1.0, abs=1e-15)
        assert second_moment(found.atoms) == pytest.approx(3.0, rel=1e-15)
        assert found.value == tilted_mean_signed(list(found.atoms), 1.0, 2.0)

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

    def test_scores_each_candidate_once(self, monkeypatch):
        # deterministic cost guard: 129 grid points plus the extras w and
        # sigma in round 0, then 4 rounds of 129, each scored by one call
        calls = []

        def counting(atoms, h, w):
            calls.append(atoms)
            return tilted_mean_signed(atoms, h, w)

        monkeypatch.setattr(extremal, "tilted_mean_signed", counting)
        sup_symmetric(0.01, P11)
        assert len(calls) == 129 + 2 + 4 * 129

    def test_scores_each_candidate_from_one_tuple(self):
        # deterministic cost guard: each candidate costs one value, one
        # _three_point_signed and one tilted_mean_signed call on a tuple; no
        # other function that extremal calls runs once per candidate (none
        # lays out atoms in a list), and no law is expanded (the one more
        # _three_point_signed call lays out the best tuple)
        calls, from_extremal, scored = collections.Counter(), collections.Counter(), []

        def profile(frame, event, arg):
            if event == "call":
                calls[frame.f_code.co_name] += 1
                if frame.f_back.f_code.co_filename == extremal.__file__:
                    from_extremal[frame.f_code.co_name] += 1
                if frame.f_code is tilted_mean_signed.__code__:
                    scored.append(frame.f_locals["atoms"])

        sys.setprofile(profile)
        try:
            sup_symmetric(0.01, P11)
        finally:
            sys.setprofile(None)
        candidates = 129 + 2 + 4 * 129
        assert calls["value"] == calls["tilted_mean_signed"] == len(scored) == candidates
        assert calls["_three_point_signed"] == candidates + 1
        assert calls["signed_atoms"] == 0
        per_candidate = {name for name, count in from_extremal.items() if count >= candidates}
        assert per_candidate == {"value", "_three_point_signed", "tilted_mean_signed"}
        assert all(type(atoms) is tuple for atoms in scored)
        assert all(atoms == _three_point_signed(0.01, atoms[-1][0]) for atoms in scored)

    def test_builds_no_law(self, monkeypatch):
        # deterministic cost guard: candidates are scored from their atoms,
        # and the best one is returned as its tuple, so neither a search nor
        # a scan constructs a SymmetricDiscreteDistribution anywhere
        built = []
        law = tilted.SymmetricDiscreteDistribution
        new = law.__new__

        def counting(cls, atoms):
            built.append(atoms)
            return new(cls, atoms)

        monkeypatch.setattr(law, "__new__", counting)
        assert law([(0.0, 0.99), (1.0, 0.01)]) and len(built) == 1  # the counter sees a law
        built.clear()
        sup_symmetric(0.01, P11)
        assert len(built) == 0
        ratio_limit_scan(P11, [0.5, 0.1, 0.01, 0.001])
        assert len(built) == 0

    def test_integer_tilt_parameters_score_as_floats(self):
        # TiltParams keeps an int w, so the extra grid point x = w is an int
        # until the search lays out the best tuple at float(x); == alone
        # would pass ints too
        found = sup_symmetric(0.01, TiltParams(1, 1))
        assert found == sup_symmetric(0.01, P11)
        assert [type(v) for atom in found.atoms for v in atom] == [float] * 6
        assert sup_symmetric(4.0, TiltParams(1, 2)) == sup_symmetric(4.0, TiltParams(1.0, 2.0))

    @pytest.mark.parametrize(
        "h, w, sigma",
        # sigma >= w and hw >= 10 included
        [(1.0, 1.0, 0.5), (1.0, 1.0, 1.4), (2.0, 2.0, 1.0), (0.5, 2.0, 0.1),
         (2.0, 0.5, 0.3), (1.0, 1.0, 3.0), (2.0, 6.0, 1.0), (5.0, 3.0, 4.0)],
    )
    def test_no_two_pair_law_beats_the_search(self, h, w, sigma):
        # falsifier for the vertices the search leaves out: two-pair laws
        # from their closed-form weights on an (x_low, x_high) grid over
        # (0, sigma] x [sigma, 4w], none above the search's value beyond
        # a few ulps of rounding
        sigma2 = sigma * sigma
        found = sup_symmetric(sigma2, TiltParams(h, w)).value
        n = 24
        lows = [sigma * i / n for i in range(1, n + 1)]
        highs = [sigma + (4.0 * w - sigma) * i / (n - 1) for i in range(n)] + [w]
        best = -math.inf
        for x_low in lows:
            for x_high in highs:
                try:
                    atoms = two_pair_atoms(x_low, x_high, sigma2)
                except ValueError:
                    continue
                best = max(best, tilted_mean_signed(atoms, h, w))
        assert best > -math.inf
        assert best <= found + 4 * math.ulp(found), (best - found) / found

    @pytest.mark.parametrize(
        "h, w, sigma2",
        # sigma = 10 > 4w = 4; at (2, 5, 625) the peak lies near 25 e^5 /
        # sqrt(2), far past 2 sigma; sqrt(s2)**2 rounds below s2 = 48 and
        # 408, so the first point is the next float up, and at 408 a first
        # value of -inf would stop the reach at 2 sigma, short of the peak;
        # the last sigma2 is one ulp above (4w)^2 = 400, and its sigma is
        # exactly 4w = 20 with sigma**2 < sigma2
        [(1.0, 1.0, 100.0), (2.0, 5.0, 625.0), (1.0, 1.0, 48.0), (2.0, 5.0, 408.0),
         (2.0, 5.0, 400.00000000000006)],
    )
    def test_sigma_beyond_4w_matches_a_dense_scan(self, h, w, sigma2):
        # the law on {-sigma, sigma} is feasible, so the search starts at
        # sigma and reaches as far as it derives; the oracle is the dense
        # closed-form scan
        found = sup_symmetric(sigma2, TiltParams(h, w))
        assert found.value == pytest.approx(dense_three_point_sup(h, w, sigma2), rel=1e-8)
        assert found.value < symmetric_factor(TiltParams(h, w)) * sigma2
        assert second_moment(found.atoms) == pytest.approx(sigma2, rel=1e-15)
        assert found.value == tilted_mean_signed(found.atoms, h, w)

    def test_a_one_point_first_segment_is_scored_once(self, monkeypatch):
        # sigma > 4w: the first segment [sigma, sigma] costs one evaluation,
        # the second [sigma, X] its 129 + 4 * 129
        calls = []

        def counting(atoms, h, w):
            calls.append(atoms)
            return tilted_mean_signed(atoms, h, w)

        monkeypatch.setattr(extremal, "tilted_mean_signed", counting)
        sup_symmetric(100.0, P11)
        assert len(calls) == 1 + 129 + 4 * 129
        assert calls[0] == ((-10.0, 0.5), (10.0, 0.5))

    def test_sigma2_validation(self):
        for sigma2 in (-1.0, 0.0, 1e-320, math.inf, math.nan):  # 1e-320 is subnormal
            with pytest.raises(ValueError):
                sup_symmetric(sigma2, P11)

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


def sup_pin_cases() -> list[tuple[float, float, float]]:
    """(h, w, sigma2) for the sup_symmetric pin: 180 seeded draws, then edge cases."""
    rng = random.Random(38)
    cases = []
    for _ in range(180):
        h = math.exp(rng.uniform(math.log(0.05), math.log(5.0)))
        w = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        sigma = w * math.exp(rng.uniform(math.log(1e-8), math.log(3.9)))
        cases.append((h, w, sigma * sigma))
    tiny = sys.float_info.min
    return cases + [
        # the first grid point sqrt(sigma2) is infeasible: sqrt(sigma2)**2 < sigma2
        (1.0, 2.0, 3.0), (0.5, 3.0, 6.0), (2.0, 1.0, 0.3), (1.0, 0.5, 0.05),
        # the best x is sigma, so the atom at zero drops out or keeps a residue
        (1.0, 1.0, 4.0), (3.0, 0.5, 3.0), (1.0, 1.0, 2.0), (0.2, 0.3, 1.0),
        # sigma at and near w
        (1.0, 1.0, (1.0 - 2.0**-52) ** 2), (1.0, 1.0, 1.0), (1.0, 1.0, (1.0 + 2.0**-52) ** 2),
        (2.0, 3.0, 9.0 * (1.0 - 1e-9)), (0.5, 0.7, 0.49 * (1.0 + 1e-9)),
        # pair weights near the smallest normal float; (4w)^2 overflows at w = 1e154
        (1e-150, 1e150, 2.2e-8), (1e-150, 1e150, 3.5e-8), (1e-154, 1e154, tiny * 1e308),
        (1e-153, 1e153, tiny * 4e306), (1e-100, 1e100, tiny * 16e200),
        (1e-100, 1e100, tiny * 1e200), (1e-120, 1e120, tiny * 3e240),
    ]


SUP_PIN_SHA256 = "3b53750b136d9b21cb398a5cf6d5c52ff0caae1df5acf706a749f6c6a50b9af7"


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

    def test_sup_symmetric_is_pinned_bit_for_bit(self):
        # value and atoms of 200 searches, as float.hex, against their sha256
        digest = hashlib.sha256()
        for h, w, sigma2 in sup_pin_cases():
            found = sup_symmetric(sigma2, TiltParams(h, w))
            atoms = " ".join(f"{x.hex()}:{p.hex()}" for x, p in found.atoms)
            digest.update(f"{found.value.hex()} {atoms}\n".encode())
        assert digest.hexdigest() == SUP_PIN_SHA256

    def test_result_beyond_the_cap_is_pinned_bit_for_bit(self):
        # sigma = sqrt(2) > w: the best law is +-sqrt(2), and sqrt(2)**2
        # rounds to 2.0000000000000004, so the atom at zero keeps the
        # rounding residue of 1 - 2 / 2.0000000000000004
        found = sup_symmetric(2.0, P11)
        assert found.value.hex() == "0x1.2e9869f0a6e88p+0"
        assert found.atoms == (
            (0.0, 2.220446049250313e-16),
            (-1.4142135623730951, 0.4999999999999999), (1.4142135623730951, 0.4999999999999999),
        )
