"""Tilted-capped means: evaluator contracts and the bound's structure."""

import hashlib
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from tiltbound import (
    DegenerateDistributionError,
    InvalidDistributionError,
    SymmetricDiscreteDistribution,
    TiltParams,
    check_bound,
    d_expr,
    g_expr,
    symmetric_factor,
    tilted_mean,
)
from tiltbound.tilted import tilted_mean_signed

from conftest import random_symmetric_distribution, zero_mean_factor

# ---------------------------------------------------------------------------
# Oracles: the symmetrization identities, by direct and by exact summation.
# The library evaluates the mean only over the signed support; these
# independent routes check it and the reduction of the bound to d.
# ---------------------------------------------------------------------------


def symmetrized_moment(dist: SymmetricDiscreteDistribution, j: int, p: TiltParams) -> float:
    """E[X^j e^{h (X ^ w)}] computed atom-wise through the folded integrands.

    For x >= 0 the folded integrand is (x^j e^{h(x^w)} + (-x)^j e^{-hx}) / 2,
    with 0^0 = 1.  Agreement with the moment over the signed support is the
    symmetrization identity used to reduce the bound to the sign of d.
    """
    total = 0.0
    for x, mass in dist.atoms:
        plus = math.exp(p.h * min(x, p.w))
        minus = math.exp(-p.h * x)
        if j == 0:
            total += mass * 0.5 * (plus + minus)
        else:
            total += mass * 0.5 * (x * plus - x * minus)
    return total


def expected_d(dist: SymmetricDiscreteDistribution, w: float) -> float:
    """E d(U, V, w) for U, V independent copies of |X|, by double summation."""
    total = 0.0
    for xi, pi in dist.atoms:
        for xj, pj in dist.atoms:
            total += pi * pj * d_expr(xi, xj, w)
    return total


class ExpSum:
    """Finite sum of c * e^q terms with exact rational c and q.

    Supports just enough arithmetic to state expectation identities exactly:
    addition, scalar multiplication, and equality of normal forms.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        cleaned: dict[Fraction, Fraction] = {}
        for q, c in dict(terms or {}).items():
            q = Fraction(q)
            cleaned[q] = cleaned.get(q, Fraction(0)) + Fraction(c)
        self._terms = {q: c for q, c in cleaned.items() if c}

    @classmethod
    def term(cls, coeff, exponent) -> "ExpSum":
        return cls({Fraction(exponent): Fraction(coeff)})

    def __add__(self, other: "ExpSum") -> "ExpSum":
        merged = dict(self._terms)
        for q, c in other._terms.items():
            merged[q] = merged.get(q, Fraction(0)) + c
        return ExpSum(merged)

    def scaled(self, factor) -> "ExpSum":
        factor = Fraction(factor)
        return ExpSum({q: c * factor for q, c in self._terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExpSum):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self) -> str:
        parts = [f"{c}*e^({q})" for q, c in sorted(self._terms.items())]
        return "ExpSum(" + (" + ".join(parts) or "0") + ")"

    def to_float(self) -> float:
        return math.fsum(float(c) * math.exp(float(q)) for q, c in self._terms.items())


def winsorized_moment_exact(atoms, j: int, h, w) -> ExpSum:
    """Exact E[X^j e^{h (X ^ w)}] over the signed support of rational atoms."""
    h, w = Fraction(h), Fraction(w)
    total = ExpSum()
    for x, mass in atoms:
        x, mass = Fraction(x), Fraction(mass)
        if x == 0:
            if j == 0:
                total = total + ExpSum.term(mass, 0)
            continue
        plus_exponent = h * min(x, w)
        minus_exponent = h * min(-x, w)  # equals -h*x since x > 0
        half = mass / 2
        if j == 0:
            total = total + ExpSum.term(half, plus_exponent) + ExpSum.term(half, minus_exponent)
        else:
            total = total + ExpSum.term(half * x, plus_exponent) + ExpSum.term(
                -half * x, minus_exponent
            )
    return total


def symmetrized_moment_exact(atoms, j: int, h, w) -> ExpSum:
    """Exact atom-wise moment through the folded integrands g_j."""
    h, w = Fraction(h), Fraction(w)
    total = ExpSum()
    for x, mass in atoms:
        x, mass = Fraction(x), Fraction(mass)
        plus_exponent = h * min(x, w)
        minus_exponent = -h * x
        half = mass / 2
        if j == 0:
            total = total + ExpSum.term(half, plus_exponent) + ExpSum.term(half, minus_exponent)
        else:
            total = total + ExpSum.term(half * x, plus_exponent) + ExpSum.term(
                -half * x, minus_exponent
            )
    return total


RADEMACHER = SymmetricDiscreteDistribution([(1.0, 1.0)])
P11 = TiltParams(h=1.0, w=1.0)

# Frozen oracle values, computed by direct summation / reference evaluation
# (see the module docstrings for the formulas).
TANH_1 = 0.7615941559557649
THREE_POINT_MEAN = 0.011688533773022888  # sigma = 0.1, h = w = 1
SINH_1 = 1.1752011936438014
COSH_1 = 1.5430806348152437
D_111 = -2.5529160411188316
D_121 = -10.34472038952272  # matches both the folded-sum and case-1 routes

# sha256 of check_bound's mean and bound, as float.hex, over check_pin_cases()
CHECK_PIN_SHA256 = "f852edf17b06b7592cec8812766219c3e020cfb638ea7d5f163685dd1c9beb19"


def check_pin_cases():
    """500 seeded laws of 1-64 atom pairs (about 33 on average), each with its (h, w)."""
    rng = np.random.default_rng(40)
    for _ in range(500):
        dist = random_symmetric_distribution(rng, max_pairs=64)
        yield dist, TiltParams(rng.uniform(0.05, 4.0), rng.uniform(0.05, 10.0))


# (atoms, h, w, float.hex of the mean or the exception raised): the cap
# X ^ w keeps min(x, w)'s rule, x unless w < x, so ties, signed zeros and
# NaN on either side resolve as min resolves them
CAP_RULE_CASES = {
    "atom-at-w": ([(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)], 1.0, 1.0, "0x1.d9353d7568af3p-2"),
    "atoms-above-w": (
        [(-5.0, 0.3), (-0.5, 0.2), (0.5, 0.2), (5.0, 0.3)], 1.0, 1.0, "0x1.a4eaa90236f12p+1"
    ),
    "signed-zeros": (
        [(-0.0, 0.25), (0.0, 0.25), (-1.5, 0.25), (1.5, 0.25)], 1.0, 1.0, "0x1.83cca3d89cba5p-1"
    ),
    "signed-zeros-at-zero-cap": ([(-0.0, 0.5), (0.0, 0.5)], 1.0, -0.0, "0x0.0p+0"),
    "signed-zero-and-negative-at-zero-cap": (
        [(-0.0, 0.5), (-2.0, 0.5)], 1.0, 0.0, "-0x1.e84152bac31aep-3"
    ),
    "nan-atom": (
        [(math.nan, 0.5), (1.0, 0.5)], 1.0, 1.0, (OverflowError, "result out of float range")
    ),
    "nan-cap": ([(-1.0, 0.5), (1.0, 0.5)], 1.0, math.nan, "0x1.85efab514f394p-1"),
    "inf-cap": ([(-3.0, 0.5), (3.0, 0.5)], 1.0, math.inf, "0x1.7e19dccd38840p+1"),
    "inf-atoms": (
        [(-math.inf, 0.5), (math.inf, 0.5)], 1.0, 1.0, (ValueError, "-inf + inf in fsum")
    ),
    "below-zero-above-cap": ([(-1.0, 0.5), (-3.0, 0.5)], 1.0, -2.0, "-0x1.89b2b0a2a5d43p+0"),
}


class TestTiltParams:
    @pytest.mark.parametrize("h,w", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_strict_positivity(self, h, w):
        with pytest.raises(ValueError):
            TiltParams(h, w)


class TestDistributionValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvalidDistributionError):
            SymmetricDiscreteDistribution([(1.0, 0.5), (2.0, 0.6)])

    def test_weights_nonnegative(self):
        with pytest.raises(InvalidDistributionError):
            SymmetricDiscreteDistribution([(1.0, 1.5), (2.0, -0.5)])

    def test_positions_strictly_increasing(self):
        with pytest.raises(InvalidDistributionError):
            SymmetricDiscreteDistribution([(2.0, 0.5), (1.0, 0.5)])

    def test_at_least_one_atom(self):
        with pytest.raises(InvalidDistributionError, match="^at least one atom is required$"):
            SymmetricDiscreteDistribution([])

    def test_positions_nonnegative(self):
        with pytest.raises(InvalidDistributionError):
            SymmetricDiscreteDistribution([(-1.0, 1.0)])

    def test_json_round_trip(self):
        dist = SymmetricDiscreteDistribution([(0.0, 0.4), (1.5, 0.6)])
        again = SymmetricDiscreteDistribution.from_dict(dist.to_dict())
        assert again == dist

    @pytest.mark.parametrize(
        "data",
        [[], {}, {"atoms": 5}, {"atoms": [1.0]}, {"atoms": [[None, 1.0]]},
         {"atoms": [[1.0, 0.5, 0.5]]}, {"atoms": [["1.0", 1.0]]}, {"atoms": [[True, 1.0]]}],
    )
    def test_malformed_atom_list_rejected(self, data):
        with pytest.raises(InvalidDistributionError):
            SymmetricDiscreteDistribution.from_dict(data)

    def test_second_moment(self):
        dist = SymmetricDiscreteDistribution([(0.0, 0.75), (0.5, 0.25)])
        assert dist.second_moment() == pytest.approx(0.0625, abs=1e-15)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_scale_factor_must_be_positive_and_finite(self, c):
        dist = SymmetricDiscreteDistribution([(0.0, 0.5), (1.0, 0.5)])
        with pytest.raises(ValueError, match="^scale factor must be positive and finite$"):
            dist.scaled(c)


class TestTiltedMean:
    def test_rademacher(self):
        assert tilted_mean(RADEMACHER, P11) == pytest.approx(TANH_1, abs=1e-15)

    def test_three_point(self):
        dist = SymmetricDiscreteDistribution([(0.0, 0.99), (1.0, 0.01)])
        assert tilted_mean(dist, P11) == pytest.approx(THREE_POINT_MEAN, abs=1e-15)

    def test_vanishes_as_h_drops(self):
        mean = tilted_mean(RADEMACHER, TiltParams(h=1e-9, w=1.0))
        assert abs(mean) < 1e-8

    def test_matches_signed_evaluator(self, rng):
        for _ in range(50):
            dist = random_symmetric_distribution(rng)
            h, w = rng.uniform(0.1, 4.0), rng.uniform(0.1, 4.0)
            p = TiltParams(h, w)
            direct = tilted_mean_signed(dist.signed_atoms(), h, w)
            assert tilted_mean(dist, p) == pytest.approx(direct, rel=1e-14)

    @pytest.mark.parametrize(
        "atoms",
        [[], [(1.0, 0.0)], [(0.0, 0.0), (-2.0, 0.0), (2.0, 0.0)], [(-1.0, 0.0), (-800.0, 0.0)]],
    )
    def test_a_support_with_no_weight_raises_value_error(self, atoms):
        # the denominator is 0, which raised a bare ZeroDivisionError
        with pytest.raises(ValueError, match="no weight"):
            tilted_mean_signed(atoms, 1.0, 1.0)

    @pytest.mark.parametrize(
        "atoms",
        [
            [(-800.0, -0.1), (1.0, 1.1)],
            [(-1.0, 0.5), (1.0, -0.5), (0.0, 1.0)],
            [(-1.0, -0.1), (-800.0, 1.1)],
            [(-1.0, 0.5), (1.0, math.nan)],
            [(-1.0, math.nan), (1.0, 0.5)],
            [(-1.0, 0.5), (1.0, math.inf)],
        ],
        ids=["underflows-to-minus-zero", "cancels", "below-zero", "nan-last", "nan-first", "inf"],
    )
    def test_a_negative_or_non_finite_weight_raises_value_error(self, atoms):
        # e^-800 times -0.1 is -0.0, so no tilted weight of the first is below
        # 0; the second's weights cancel to a positive total
        with pytest.raises(ValueError, match="weights must be finite and >= 0"):
            tilted_mean_signed(atoms, 1.0, 1.0)

    @pytest.mark.parametrize(
        "atoms", [[(-800.0, 1.0), (1.0, 0.0)], [(-800.0, 0.5), (-900.0, 0.5), (1.0, 0.0)]]
    )
    def test_a_denominator_that_underflows_raises_overflow_error(self, atoms):
        # e^-800 is 0.0 in floats, and the atom at 1 has no weight, so the
        # tilted weights sum to 0; without that atom the support lies below
        # 0 and keeps its mean (next test)
        assert math.exp(-800.0) == 0.0
        with pytest.raises(OverflowError, match="out of float range"):
            tilted_mean_signed(atoms, 1.0, 1.0)

    @pytest.mark.parametrize(
        "atoms, mean",
        [
            ([(-40.0, 1.0)], -40.0),
            ([(-37.0, 1.0)], -37.0),
            ([(-40.0, 0.5), (-39.0, 0.5)], -39.0 - 1.0 / (1.0 + math.e)),
            ([(-800.0, 1.0)], -800.0),
            ([(-800.0, 0.5), (-900.0, 0.5)], -800.0),
            ([(-1.0, 0.0), (-800.0, 1.0)], -800.0),
        ],
        ids=["at-40", "at-37", "at-40-and-39", "at-800", "at-800-and-900", "weightless-top"],
    )
    def test_a_support_below_zero_keeps_its_mean(self, atoms, mean):
        # expm1 rounds to -1 far below 0, so x p expm1(a) and x p cancelled:
        # the first three read 0.0, -83.27 and 0.0, and e^-800 underflowed;
        # an atom of weight 0 sets no shift, or e^(-800 + 1) underflows too
        assert tilted_mean_signed(atoms, 1.0, 1.0) == pytest.approx(mean, rel=1e-15)

    @pytest.mark.parametrize("atoms, h, w, expected", CAP_RULE_CASES.values(), ids=CAP_RULE_CASES)
    def test_the_cap_follows_the_rule_of_min(self, atoms, h, w, expected):
        if isinstance(expected, str):
            assert tilted_mean_signed(atoms, h, w).hex() == expected
        else:
            error, message = expected
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                tilted_mean_signed(atoms, h, w)


class TestBoundFactor:
    def test_symmetric_unit(self):
        assert symmetric_factor(P11) == pytest.approx(SINH_1, abs=1e-15)

    def test_zero_mean_unit(self):
        expected = 1.718281828459045
        assert zero_mean_factor(P11) == pytest.approx(expected, abs=1e-15)

    def test_scale_relation(self):
        factor = symmetric_factor(TiltParams(h=2.0, w=0.5))
        assert factor == pytest.approx(2.3504023872876028, abs=1e-15)

    def test_symmetric_strictly_smaller(self, rng):
        for _ in range(200):
            p = TiltParams(rng.uniform(0.05, 5.0), rng.uniform(0.05, 5.0))
            sym = symmetric_factor(p)
            gen = zero_mean_factor(p)
            assert sym < gen

    def test_ratio_approaches_one_half(self):
        ratios = [math.sinh(hw) / math.expm1(hw) for hw in (1.0, 5.0, 10.0, 20.0)]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[2] == pytest.approx(0.5, abs=1e-4)


class TestCheckBound:
    def test_rademacher_margin(self):
        report = check_bound(RADEMACHER, P11)
        assert report.margin == pytest.approx(0.4136070376880365, abs=1e-12)
        assert report.holds

    def test_three_point_margin(self):
        dist = SymmetricDiscreteDistribution([(0.0, 0.99), (1.0, 0.01)])
        report = check_bound(dist, P11)
        assert report.margin == pytest.approx(6.347816341512567e-05, abs=1e-12)
        assert report.holds

    def test_point_mass_at_zero_rejected(self):
        with pytest.raises(DegenerateDistributionError):
            check_bound(SymmetricDiscreteDistribution([(0.0, 1.0)]), P11)

    def test_non_finite_mean_or_bound_raises(self):
        # the mean is inf / inf = NaN; the bound sinh(1) / 1e-300 * 5e19 is inf
        wide = SymmetricDiscreteDistribution([(0.0, 0.5), (1e10, 0.5)])
        with pytest.raises(OverflowError):
            tilted_mean_signed(wide.signed_atoms(), 1e300, 1e300)
        with pytest.raises(OverflowError):
            check_bound(wide, TiltParams(1e300, 1e-300))

    def test_many_atom_checks_are_pinned_bit_for_bit(self):
        # a change to the mean's summation order or its cap shows here as a
        # different float in some of the 500 laws
        digest = hashlib.sha256()
        for dist, p in check_pin_cases():
            result = check_bound(dist, p)
            digest.update(f"{result.mean.hex()} {result.bound.hex()}\n".encode())
        assert digest.hexdigest() == CHECK_PIN_SHA256


class TestGExpr:
    def test_zero_uses_power_convention(self):
        assert g_expr(0, 0.0, 1.0) == 1.0
        assert g_expr(1, 0.0, 1.0) == 0.0

    def test_cosh_value(self):
        assert g_expr(0, 1.0, 1.0) == pytest.approx(COSH_1, abs=1e-15)

    def test_capped_value(self):
        assert g_expr(1, 2.0, 1.0) == pytest.approx(2.5829465452224323, abs=1e-15)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            g_expr(0, -1.0, 1.0)

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            g_expr(2, 1.0, 1.0)


class TestDExpr:
    def test_degenerate_zero(self):
        # d vanishes in the u -> 0 limit when v = w
        assert d_expr(0.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal_value(self):
        assert d_expr(1.0, 1.0, 1.0) == pytest.approx(D_111, abs=1e-13)

    def test_case1_value(self):
        assert d_expr(1.0, 2.0, 1.0) == pytest.approx(D_121, abs=1e-12)

    def test_negative_everywhere_sampled(self, rng):
        for _ in range(500):
            u, v, w = rng.uniform(0.01, 6.0, size=3)
            assert d_expr(u, v, w) < 0.0

    @pytest.mark.parametrize(
        "args, message",
        [
            ((-1.0, 1.0, 1.0), "u and v must be >= 0"),
            ((1.0, -1e-300, 1.0), "u and v must be >= 0"),
            ((1.0, 1.0, 0.0), "cap level w must be positive"),
            ((1.0, 1.0, -1.0), "cap level w must be positive"),
        ],
    )
    def test_domain_is_checked(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            d_expr(*args)

    @pytest.mark.parametrize(
        "f, args",
        [
            (d_expr, (700, 705, 709)),  # inf - inf
            (d_expr, (709, 709.5, 710)),  # inf - inf
            (d_expr, (1, 2, 711)),  # e^w
            (d_expr, (709.9, 709.95, 710.3)),  # cosh and sinh stay finite, products do not
            (g_expr, (1, 710, 711)),  # 2 x sinh(x)
        ],
    )
    def test_overflow_raises(self, f, args):
        with pytest.raises(OverflowError):
            f(*args)


class TestTheoremInvariants:
    def test_bound_holds_on_random_distributions(self, rng):
        for _ in range(500):
            dist = random_symmetric_distribution(rng)
            p = TiltParams(rng.uniform(0.05, 5.0), rng.uniform(0.05, 5.0))
            report = check_bound(dist, p)
            assert report.mean > 0.0
            assert report.margin > -1e-12

    def test_monotone_in_h(self, rng):
        # Strict increase, asserted with the float-mode slack: once h(x+w) is
        # large the mean saturates at the top atom to the last ulp.
        grid = [0.1 * k for k in range(1, 51)]
        for _ in range(20):
            dist = random_symmetric_distribution(rng)
            w = rng.uniform(0.1, 5.0)
            values = [tilted_mean(dist, TiltParams(h, w)) for h in grid]
            assert all(b > a - 1e-12 for a, b in zip(values, values[1:]))
            assert values[-1] > values[0]

    def test_scale_covariance(self, rng):
        for _ in range(50):
            dist = random_symmetric_distribution(rng)
            h, w = rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)
            c = rng.uniform(0.3, 3.0)
            base = tilted_mean(dist, TiltParams(h, w))
            scaled = tilted_mean(dist.scaled(c), TiltParams(h / c, c * w))
            assert scaled == pytest.approx(c * base, rel=1e-12)

    def test_expected_d_sign_matches_bound_comparison(self, rng):
        # E d(U, V, w) < 0 iff mean < (sinh w / w) E X^2, by double summation
        for _ in range(100):
            dist = random_symmetric_distribution(rng, max_pairs=5)
            w = rng.uniform(0.2, 4.0)
            p = TiltParams(1.0, w)
            lhs = expected_d(dist, w)
            bound = symmetric_factor(p) * dist.second_moment()
            assert (lhs < 0.0) == (tilted_mean(dist, p) < bound)
            assert lhs < 0.0  # and both sides do hold


class TestSymmetrizationIdentity:
    def test_float_agreement(self, rng):
        # the folded moments give the same mean as the signed support
        for _ in range(100):
            dist = random_symmetric_distribution(rng)
            p = TiltParams(rng.uniform(0.1, 4.0), rng.uniform(0.1, 4.0))
            folded = symmetrized_moment(dist, 1, p) / symmetrized_moment(dist, 0, p)
            assert folded == pytest.approx(tilted_mean(dist, p), rel=1e-14, abs=1e-14)

    def test_exact_agreement(self, rng):
        # exact rational atoms, exponentials deferred symbolically
        for _ in range(50):
            n = int(rng.integers(1, 5))
            xs = sorted(set(Fraction(int(k), 8) for k in rng.integers(0, 40, size=n)))
            raw = [Fraction(int(k)) for k in rng.integers(1, 9, size=len(xs))]
            total = sum(raw)
            atoms = [(x, q / total) for x, q in zip(xs, raw)]
            h = Fraction(int(rng.integers(1, 5)), 2)
            w = Fraction(int(rng.integers(1, 9)), 4)
            for j in (0, 1):
                assert winsorized_moment_exact(atoms, j, h, w) == symmetrized_moment_exact(
                    atoms, j, h, w
                )

    def test_exact_sum_arithmetic(self):
        a = ExpSum.term(Fraction(1, 2), Fraction(1)) + ExpSum.term(Fraction(1, 2), Fraction(1))
        assert a == ExpSum.term(1, 1)
        assert (a + a.scaled(-1)) == ExpSum()
        assert a.to_float() == pytest.approx(math.e, rel=1e-15)
