"""The exact identity kernel: formal operations against 50-digit mpmath."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from tiltbound.exppoly import ExpPoly, derivative, parse_expression
from tiltbound.identities import U, V, W, Laurent
from tiltbound.intervals import Interval, vcosh, vexp, vsinh, vsinh_over
from tiltbound.regions import CATALOG

DIGITS = 50


def mp_value(p: Laurent, u, v, w):
    """p at (u, v, w), summed in mpmath at the working precision."""
    u, v, w = mpmath.mpf(u), mpmath.mpf(v), mpmath.mpf(w)
    return mpmath.fsum(
        mpmath.mpf(c.numerator) / c.denominator
        * u**a * v**b * w**e
        * mpmath.exp(p_ * u + q * v + r * w)
        for (a, b, e, p_, q, r), c in p.terms()
    )


def close(x, y, scale=1):
    return abs(x - y) <= mpmath.mpf(10) ** (10 - DIGITS) * (1 + abs(scale))


@pytest.fixture
def points():
    rng = np.random.default_rng(20261020)
    return [tuple(float(x) for x in rng.uniform(0.1, 3.0, size=3)) for _ in range(20)]


# a mixed expression with negative powers and every elementary method
SAMPLE = (
    CATALOG["d_case2"].fn(U, V, W)
    + 3 * U * V * vsinh_over(2 * W) * vcosh(U - V)
    - Fraction(5, 7) * vexp(-(U + 2 * W)) * vsinh(V)
    + 0.25 * vsinh_over(-V) * W * W
)


class TestFormalOperations:
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_partial_derivative_matches_mpmath(self, points, axis):
        derivative = SAMPLE.diff("uvw"[axis])
        with mpmath.workdps(DIGITS):
            for point in points:
                def along(t):
                    shifted = list(point)
                    shifted[axis] = t
                    return mp_value(SAMPLE, *shifted)

                numeric = mpmath.diff(along, mpmath.mpf(point[axis]))
                assert close(mp_value(derivative, *point), numeric, numeric)

    def test_v_eq_w_substitution_matches_mpmath(self, points):
        restricted = SAMPLE.at("v", "w")
        assert all(key[1] == 0 and key[4] == 0 for key, _ in restricted.terms())
        with mpmath.workdps(DIGITS):
            for u, _, w in points:
                assert close(mp_value(restricted, u, 0, w), mp_value(SAMPLE, u, w, w))

    @pytest.mark.parametrize("name, by", [("v", "u"), ("u", "w"), ("w", "v")])
    def test_substitution_matches_mpmath(self, points, name, by):
        i, j = "uvw".index(name), "uvw".index(by)
        restricted = SAMPLE.at(name, by)
        assert all(key[i] == 0 and key[3 + i] == 0 for key, _ in restricted.terms())
        with mpmath.workdps(DIGITS):
            for point in points:
                moved = list(point)
                moved[i] = point[j]
                assert close(mp_value(restricted, *point), mp_value(SAMPLE, *moved))

    def test_substitution_needs_two_axes(self):
        with pytest.raises(ValueError):
            SAMPLE.at("v", "v")

    @pytest.mark.parametrize(
        "method, reference",
        [
            ("exp", mpmath.exp),
            ("sinh", mpmath.sinh),
            ("cosh", mpmath.cosh),
        ],
    )
    def test_elementary_methods_match_mpmath(self, points, method, reference):
        for argument in (2 * U - V + 3 * W, -(V + W), -2 * W, U, Laurent.constant(0)):
            result = getattr(argument, method)()
            with mpmath.workdps(DIGITS):
                for point in points:
                    exact = reference(mp_value(argument, *point))
                    assert close(mp_value(result, *point), exact, exact)

    def test_sinh_over_matches_mpmath(self, points):
        for argument in (W, 3 * W, -2 * U, V):
            result = vsinh_over(argument)
            with mpmath.workdps(DIGITS):
                for point in points:
                    x = mp_value(argument, *point)
                    assert close(mp_value(result, *point), mpmath.sinh(x) / x)

    def test_prover_polynomial_reads_t_as_exp_w(self):
        p = parse_expression("exp(w)*w*(cosh(w) - 2*sinh(w)) + (w-1)*w")
        kernel = Laurent.in_w(p)
        with mpmath.workdps(DIGITS):
            for w in (0.1, 1.0, 2.5):
                value = float(mp_value(kernel, 0, 0, w))
                assert math.isclose(value, p.evaluate(w), rel_tol=1e-12)

    def test_identities_expand_to_zero(self):
        assert (vcosh(U) * vcosh(U) - vsinh(U) * vsinh(U) - 1).is_zero
        assert (vsinh(2 * W) - 2 * vsinh(W) * vcosh(W)).is_zero
        assert (W * vsinh_over(W) - vsinh(W)).is_zero
        assert not (vcosh(U) - 1).is_zero

    def test_coefficients_are_canonical(self):
        # an int unless the coefficient is not integral, never Fraction(n, 1)
        prover_form = Laurent.in_w(parse_expression("1/2*w*cosh(w) - sinh(w)/3"))
        for p in (
            SAMPLE, SAMPLE.diff("u"), SAMPLE.diff("v"), SAMPLE.diff("w"), SAMPLE.at("v", "w"),
            SAMPLE.at("v", "u"), SAMPLE.at("u", "w"),
            prover_form, 3 * W * vsinh_over(3 * W), vsinh_over(-W), 0.5 * U + 0.5 * U,
            Fraction(2, 3) * U * 3,
        ):
            for _, c in p.terms():
                assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(p)
        assert dict((0.5 * U + 0.5 * U).terms()) == {(1, 0, 0, 0, 0, 0): 1}
        # sinh_over(k y) divides by k exactly, not by the float 1 / k
        assert (3 * W * vsinh_over(3 * W) - vsinh(3 * W)).is_zero

    def test_float_operands_convert_exactly(self):
        terms = dict((0.1 * U).terms())
        assert terms == {(1, 0, 0, 0, 0, 0): Fraction(0.1)}
        assert Fraction(0.1) != Fraction(1, 10)


class TestCatalogInTheKernel:
    @pytest.mark.parametrize("name", ["d_case1", "dv2_case1", "d_case2", "d1_case2"])
    def test_kernel_value_equals_the_float_form(self, points, name):
        expr = CATALOG[name]
        kernel = expr.fn(U, V, W)
        with mpmath.workdps(DIGITS):
            for u, v, w in points:
                exact = mp_value(kernel, u, v, w)
                # the float form's rounding is relative to its largest terms
                scale = mpmath.fsum(
                    abs(mp_value(Laurent({key: c}), u, v, w)) for key, c in kernel.terms()
                )
                assert abs(expr.point(u=u, v=v, w=w) - exact) <= 1e-13 * scale


class TestRejection:
    def test_non_integer_argument_raises(self):
        with pytest.raises(ValueError):
            vsinh_over(0.5 * U)
        with pytest.raises(ValueError):
            vexp(Fraction(1, 3) * W)

    def test_nonlinear_argument_raises(self):
        for bad in (U * U, U + 1, vexp(U), W * vexp(W)):
            with pytest.raises(ValueError):
                vexp(bad)
        with pytest.raises(ValueError):
            vsinh_over(U + W)  # its quotient is not a monomial

    def test_other_operands_and_branches_raise(self):
        with pytest.raises(TypeError):
            U * Interval(1.0, 2.0)
        with pytest.raises(TypeError):
            Interval(1.0, 2.0) + U
        with pytest.raises(TypeError):
            1 / W
        with pytest.raises(TypeError):
            bool(U)
        with pytest.raises(ValueError):
            U + math.nan


def random_exppoly(rng) -> ExpPoly:
    """A seeded ExpPoly with up to five terms, negative t-degrees and Fractions."""
    return ExpPoly({
        (int(rng.integers(0, 4)), int(rng.integers(-3, 4))):
            Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
        for _ in range(int(rng.integers(0, 6)))
    })


class TestOneArithmetic:
    """ExpPoly and Laurent share one arithmetic and one derivative rule."""

    def test_in_w_commutes_with_the_operations(self, rng):
        for _ in range(200):
            p, q = random_exppoly(rng), random_exppoly(rng)
            lp, lq = Laurent.in_w(p), Laurent.in_w(q)
            n = int(rng.integers(0, 4))
            assert Laurent.in_w(p + q) == lp + lq
            assert Laurent.in_w(p - q) == lp - lq
            assert Laurent.in_w(p * q) == lp * lq
            assert Laurent.in_w(-p) == -lp
            assert Laurent.in_w(p**n) == lp**n
            assert Laurent.in_w(derivative(p)) == lp.diff("w")

    def test_mixing_the_kernels_raises(self):
        p = parse_expression("w*exp(w) - 1")
        for combine in (
            lambda: p + W, lambda: W + p, lambda: p - W, lambda: W - p,
            lambda: p * W, lambda: W * p,
        ):
            with pytest.raises(TypeError):
                combine()
        assert p != Laurent.in_w(p) and Laurent.in_w(p) != p
        assert ExpPoly.zero() != Laurent.constant(0)  # the same empty term dict

    def test_scalar_rules(self):
        # ExpPoly refuses floats (test_exppoly.py); Laurent takes them exactly
        assert dict(Laurent.constant(0.1).terms()) == {(0,) * 6: Fraction(0.1)}
        for bad in (math.nan, math.inf):  # no rational equals them
            with pytest.raises((ValueError, OverflowError)):
                Laurent.constant(bad)
        with pytest.raises(TypeError):
            Laurent.constant("1")
