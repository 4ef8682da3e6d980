"""Soundness of the outward-rounded interval arithmetic and the gradients."""

import copy
import math
import pickle
import struct
import sys

import mpmath
import numpy as np
import pytest

from tiltbound.intervals import (
    LIBM_ULPS,
    ZERO,
    Dual,
    Interval,
    _libm_down,
    _libm_up,
    _so_slope,
    vcosh,
    vexp,
    vsinh,
    vsinh_over,
)


ONE = Interval(1.0, 1.0)
INF = Interval(math.inf, math.inf)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _ordinal(x: float) -> int:
    """Position of a finite x on the float line; neighbouring floats differ by 1."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def sample_in(rng, iv: Interval) -> float:
    return float(rng.uniform(iv.lo, iv.hi))


def random_interval(rng, lo=-4.0, hi=4.0) -> Interval:
    a, b = sorted(rng.uniform(lo, hi, size=2))
    return Interval(float(a), float(b))


class TestContainment:
    def test_binary_operations(self, rng):
        for _ in range(500):
            a = random_interval(rng)
            b = random_interval(rng)
            x, y = sample_in(rng, a), sample_in(rng, b)
            assert (a + b).contains(x + y)
            assert (a - b).contains(x - y)
            assert (a * b).contains(x * y)

    def test_scalar_mixing(self, rng):
        for _ in range(100):
            a = random_interval(rng)
            x = sample_in(rng, a)
            assert (2.5 * a).contains(2.5 * x)
            assert (a - 1).contains(x - 1)
            assert (1 - a).contains(1 - x)

    def test_elementary_functions(self, rng):
        for _ in range(300):
            a = random_interval(rng)
            x = sample_in(rng, a)
            assert a.exp().contains(math.exp(x))
            assert a.sinh().contains(math.sinh(x))
            assert a.cosh().contains(math.cosh(x))
            if a.lo >= 0:
                value = math.sinh(x) / x if x > 0 else 1.0
                assert a.sinh_over().contains(value)

    def test_libm_error_stays_below_the_widening(self):
        # glibc is not correctly rounded (math.sinh(0.809034359644837) is off
        # by 1.45 ulp); each point enclosure must still hold the true value.
        seeded = np.random.default_rng(20261018).uniform(-10.0, 10.0, size=5000)
        adversarial = [0.809034359644837, 0.06065109309681205, 0.05, 8.0, 1e-8, 700.0, -700.0]
        with mpmath.workprec(200):
            for x in [*map(float, seeded), *adversarial]:
                iv, mx = Interval.point(x), mpmath.mpf(x)
                cases = [
                    (iv.exp(), mpmath.exp(mx)),
                    (iv.sinh(), mpmath.sinh(mx)),
                    (iv.cosh(), mpmath.cosh(mx)),
                ]
                if x > 0:
                    cases.append((iv.sinh_over(), mpmath.sinh(mx) / mx))
                for enclosure, exact in cases:
                    assert enclosure.lo <= exact <= enclosure.hi, (x, enclosure)

    @pytest.mark.parametrize(
        "x", [1.0, -0.1, 5e-324, -2.5e-310, sys.float_info.max, -sys.float_info.max]
    )
    def test_libm_widening_steps_libm_ulps(self, x):
        # the widening the libm test above relies on is the documented
        # LIBM_ULPS ulps, also across zero and up to overflow past +-max
        top = _ordinal(sys.float_info.max)
        for widen, sign in ((_libm_down, -1), (_libm_up, 1)):
            got = widen(x)
            if math.isinf(got):
                assert got == sign * math.inf and abs(_ordinal(x)) + LIBM_ULPS > top
            else:
                assert _ordinal(got) - _ordinal(x) == sign * LIBM_ULPS

    def test_product_with_exact_zero_factor_is_not_widened(self):
        scaled = 0.5 * Interval(0.0, 1.0)
        assert scaled.lo == 0.0
        assert (Interval(0.0, 1.0) * Interval(-2.0, -1.0)).hi == 0.0
        enc = scaled.sinh_over()
        assert enc.contains(1.0) and enc.contains(math.sinh(0.5) / 0.5)

    def test_sum_that_rounds_to_zero_is_not_widened(self):
        zero = Interval(0.0, 0.0)
        assert zero + zero == zero
        assert Interval(1.0, 2.0) + Interval(-1.0, 1.0) == Interval(0.0, _up(3.0))
        assert zero + 0.0 == zero and 0.0 + zero == zero

    def test_difference_that_rounds_to_zero_is_not_widened(self):
        zero = Interval(0.0, 0.0)
        assert zero - zero == zero
        assert Interval(1.0, 2.0) - Interval(1.0, 1.0) == Interval(0.0, _up(1.0))
        assert Interval(1.0, 1.0) - 1.0 == zero
        assert 1.0 - Interval(1.0, 1.0) == zero
        # a nonzero result is still widened outward
        assert (Interval(1.0, 2.0) - 0.5).lo < 0.5

    def test_int_sum_operand_that_no_float_equals_is_rejected(self):
        # 2**53 + 3 would round to 2**53 + 4 before the one-ulp widening,
        # giving [3.9999999999999996, 4.000000000000001], which misses 3
        with pytest.raises(ValueError):
            Interval(-(2.0**53), -(2.0**53)) + (2**53 + 3)

    def test_int_factor_that_no_float_equals_is_rejected(self):
        with pytest.raises(ValueError):
            Interval.point(1.7622800824579419) * 9007199254745411

    @pytest.mark.parametrize(
        "op",
        [
            lambda a, o: a + o,
            lambda a, o: o + a,
            lambda a, o: a - o,
            lambda a, o: o - a,
            lambda a, o: a * o,
            lambda a, o: o * a,
        ],
        ids=["add", "radd", "sub", "rsub", "mul", "rmul"],
    )
    @pytest.mark.parametrize(
        "operand",
        [2**53 + 1, -(2**60) - 1, 10**400, math.nan],
        ids=["2**53+1", "-2**60-1", "10**400", "nan"],
    )
    def test_every_scalar_branch_rejects_an_inexact_operand(self, op, operand):
        with pytest.raises(ValueError):
            op(Interval(1.0, 2.0), operand)

    def test_int_that_a_float_equals_is_accepted(self):
        big = 2**60
        assert (Interval(1.0, 1.0) * big).contains(big)
        assert (Interval(0.0, 0.0) + big).contains(big)

    def test_point_intervals_stay_tight(self):
        v = Interval.point(1.5)
        result = (v * v + v.exp() - v.sinh()).width
        assert result < 1e-12


class TestStructure:
    def test_cosh_minimum_at_zero(self):
        enc = Interval(-2.0, 3.0).cosh()
        assert enc.lo == 1.0
        assert enc.contains(math.cosh(0.0)) and enc.contains(math.cosh(3.0))

    def test_sinh_over_is_tight(self):
        # the dedicated primitive must not blow up on narrow intervals
        enc = Interval(0.05, 0.0500001).sinh_over()
        assert enc.width < 1e-6
        assert enc.lo >= 1.0

    def test_sinh_over_rejects_a_negative_end(self):
        with pytest.raises(ValueError, match="^sinh_over is defined for nonnegative intervals$"):
            Interval(-1.0, 1.0).sinh_over()

    def test_intersect_detects_disjoint(self):
        with pytest.raises(ValueError):
            Interval(0.0, 1.0).intersect(Interval(2.0, 3.0))

    def test_invalid_bounds_rejected(self):
        for lo, hi in [(2.0, 1.0), (math.nan, 1.0), (0.0, math.nan)]:
            with pytest.raises(ValueError):
                Interval(lo, hi)

    @pytest.mark.parametrize(
        "op",
        [
            lambda: Interval(-math.inf, 1.0) + INF,
            lambda: INF - INF,
            lambda: Interval(-math.inf, 1.0) + math.inf,
            lambda: math.inf + Interval(-math.inf, 1.0),
            lambda: Interval(1.0, math.inf) - math.inf,
            lambda: math.inf - Interval(1.0, math.inf),
            lambda: Dual(ONE, (Interval(-math.inf, 0.0),)) + Dual(ONE, (INF,)),
            lambda: Dual(ONE, (Interval(1.0, math.inf),)) - Dual(ONE, (INF,)),
        ],
        ids=["add", "sub", "add-scalar", "radd-scalar", "sub-scalar", "rsub-scalar",
             "dual-add", "dual-sub"],
    )
    def test_every_operation_rejects_a_nan_bound(self, op):
        # inf - inf is NaN: each operation builds its result through the one
        # check lo <= hi, which a NaN end fails
        with pytest.raises(ValueError, match="invalid interval"):
            op()

    def test_product_meeting_zero_times_inf_is_zero(self):
        # the convention 0 * inf = 0, on the sign-mixed and the nonnegative path
        assert Interval(-1.0, 0.0) * INF == Interval(-math.inf, 0.0)
        assert Interval(0.0, 1.0) * INF == Interval(0.0, math.inf)
        assert Interval(-2.0, 3.0) * Interval(0.0, 0.0) == Interval(0.0, 0.0)

    def test_bounds_are_read_only(self):
        iv = Interval(0.0, 1.0)
        with pytest.raises(AttributeError):
            iv.lo = -1.0
        assert iv == Interval(0.0, 1.0)

    @pytest.mark.parametrize(
        "iv", [Interval(-0.0, 1.5), Interval(-math.inf, 5e-324), Interval(2.0, 2.0), INF]
    )
    def test_pickle_and_deepcopy_round_trip(self, iv):
        # __reduce__ rebuilds through Interval(lo, hi), ends kept to the bit
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        copies = [pickle.loads(pickle.dumps(iv, protocol)) for protocol in protocols]
        copies.append(copy.deepcopy(iv))
        for again in copies:
            assert type(again) is Interval and again == iv
            assert (again.lo.hex(), again.hi.hex()) == (iv.lo.hex(), iv.hi.hex())
            with pytest.raises(AttributeError):
                again.lo = 0.0


class TestDual:
    def test_gradients_match_finite_differences(self, rng):
        def f(u, v, w):
            return vexp(u) * v - vsinh(w) * vsinh_over(u + 2) + vcosh(v) * (w * w)

        for _ in range(50):
            point = rng.uniform(0.2, 2.0, size=3)
            spans = [Interval(float(p - 0.01), float(p + 0.01)) for p in point]
            duals = [Dual.variable(spans[i], i, 3) for i in range(3)]
            result = f(*duals)
            eps = 1e-6
            for axis in range(3):
                shifted_up = point.copy()
                shifted_dn = point.copy()
                shifted_up[axis] += eps
                shifted_dn[axis] -= eps
                numeric = (f(*shifted_up) - f(*shifted_dn)) / (2 * eps)
                assert result.grad[axis].lo - 1e-6 <= numeric <= result.grad[axis].hi + 1e-6

    def test_value_component_is_plain_enclosure(self, rng):
        def f(u, w):
            return u * vsinh_over(w) - vexp(-u) * w

        for _ in range(100):
            spans = [random_interval(rng, 0.1, 3.0) for _ in range(2)]
            duals = [Dual.variable(spans[i], i, 2) for i in range(2)]
            enclosure = f(*duals).val
            x = [sample_in(rng, s) for s in spans]
            assert enclosure.contains(f(*x))

    def test_sinh_over_slope_contains_the_true_slope(self):
        # so'(x) = (x cosh(x) - sinh(x)) / x^2 at the ends and inside each
        # box; the boxes reach 0, subnormal and tiny ends, and past 710,
        # where cosh overflows
        def exact(x):
            if x == 0.0:
                return 0
            # the difference cancels 2 log2(1/x) bits for small x
            with mpmath.workprec(200 + 2 * max(0, -math.frexp(x)[1])):
                mx = mpmath.mpf(x)
                return (mx * mpmath.cosh(mx) - mpmath.sinh(mx)) / mx**2

        rng = np.random.default_rng(20261018)
        boxes = [tuple(sorted(map(float, rng.uniform(0.0, 20.0, size=2)))) for _ in range(300)]
        boxes += [
            (0.0, 1.0), (0.0, 5e-324), (5e-324, 5e-324), (5e-324, 1e-300), (0.0, 1e-300),
            (1e-300, 2.0), (1e-8, 1e-7), (3.0, 3.0), (700.0, 720.0), (0.0, 800.0),
            (709.0, 711.0), (715.0, 715.0),
        ]
        for lo, hi in boxes:
            slope = Dual.variable(Interval(lo, hi), 0, 1).sinh_over().grad[0]
            for x in (lo, hi, *map(float, rng.uniform(lo, hi, size=3))):
                assert slope.lo <= exact(x) <= slope.hi, (lo, hi, x, slope)

    def test_sinh_over_slope_from_zero_is_finite(self):
        slope = Dual.variable(Interval(0.0, 1.0), 0, 1).sinh_over().grad[0]
        assert slope.lo == 0.0
        assert math.isfinite(slope.hi) and slope.hi < 0.5  # so'(1) = 1/e ~ 0.368

    def test_so_slope_matches_the_point_interval_construction(self):
        # _so_slope reads cosh and sinh once each; its bounds are bit for bit
        # those of the construction from point intervals that it replaced
        def reference(x):
            if x == 0.0:
                return Interval(0.0, 0.0)
            point = Interval.point(x)
            cosh = point.cosh()
            gap = cosh - point.sinh_over()
            return Interval(
                max(math.nextafter(x / 3.0, -math.inf), math.nextafter(gap.lo / x, -math.inf)),
                min(_up((point * cosh).hi / 3.0), _up(gap.hi / x)),
            )

        rng = np.random.default_rng(20261019)
        points = [0.0, 5e-324, 1e-300, 1e-8, 0.5, 1.0, 709.0, 710.5, 715.0, 800.0]
        points += [float(x) for x in rng.uniform(0.0, 20.0, size=500)]
        points += [float(10.0**e) for e in rng.uniform(-300.0, 2.8, size=500)]
        for x in points:
            got, want = _so_slope(x), reference(x)
            assert (got.lo, got.hi) == (want.lo, want.hi), x

    @pytest.mark.parametrize(
        "other", [Interval(0.25, 0.5), 0.75, 3], ids=["interval", "float", "int"]
    )
    def test_subtracting_a_constant_keeps_the_gradient(self, other):
        u = Dual.variable(Interval(1.0, 2.0), 0, 2)
        result = u - other
        want = u.val - other
        assert (result.val.lo, result.val.hi) == (want.lo, want.hi)
        assert [(g.lo, g.hi) for g in result.grad] == [(1.0, 1.0), (0.0, 0.0)]
        assert result.grad[1] is ZERO  # the exact-zero partial passes through

    def test_unread_axis_has_an_exact_zero_partial(self):
        u, v, w = (Dual.variable(Interval(0.5, 1.5), i, 3) for i in range(3))
        result = (
            2 * u * vsinh(u) - vsinh_over(w) * (u * u) * vexp(-u) + 1.5
            + Interval(0.5, 1.0) * w - (Interval(1.0, 2.0) - vcosh(u))
        )
        assert result.grad[1].lo == 0.0 and result.grad[1].hi == 0.0
        assert result.grad[0].lo < result.grad[0].hi
