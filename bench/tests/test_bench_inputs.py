import mpmath
import pytest

from bench import inputs
from tiltbound.exppoly import parse_expression


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: inputs.offstrip_cubes(seed, 16),
        lambda seed: inputs.leaf_boxes(seed, 50),
        lambda seed: inputs.claims(seed, 50),
        lambda seed: inputs.distributions(seed, 20),
        lambda seed: inputs.scans(seed, 8),
    ],
)
def test_same_seed_gives_same_digest(make):
    assert inputs.digest(make(7)) == inputs.digest(make(7))
    assert inputs.digest(make(7)) != inputs.digest(make(8))


def _value(text: str, w) -> mpmath.mpf:
    poly = parse_expression(text)
    return mpmath.fsum(
        mpmath.mpf(c.numerator) / c.denominator * w**i * mpmath.exp(k * w)
        for i, k, c in poly.terms()
    )


def test_claims_have_the_sign_their_closed_form_gives():
    mpmath.mp.dps = 60
    families = set()
    for seed in range(3):
        for family, text, sign in inputs.claims(seed, 100):
            assert family in inputs.CLAIM_FAMILIES and sign in (1, -1)
            families.add(family)
            for w in ("0.01", "0.3", "1", "4"):
                assert mpmath.sign(_value(text, mpmath.mpf(w))) == sign, (text, w)
    assert families == set(inputs.CLAIM_FAMILIES)


def test_leaf_boxes_lie_inside_their_case_order():
    for name, case, u, v, w in inputs.leaf_boxes(3, 200):
        assert min(u[0], v[0], w[0]) >= inputs.OFFSTRIP_LO
        assert max(u[1], v[1], w[1]) <= inputs.AXIS_HI
        if case == "case1":
            assert w[1] <= u[0] and u[1] <= v[0]
        elif name == "d_at_v_eq_w_case2":
            assert u[1] <= w[0] and v == w
        else:
            assert u[1] <= w[0] and w[1] <= v[0]


def test_cubes_stay_off_the_degenerate_strip():
    for lo, hi in inputs.offstrip_cubes(5, 64):
        assert inputs.OFFSTRIP_LO <= lo < hi
