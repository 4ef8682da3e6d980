import math

import mpmath
import numpy as np
import pytest

from tiltbound import SymmetricDiscreteDistribution, TiltParams, verify_battery
from tiltbound.exppoly import ExpPoly
from tiltbound.regions import BoxRegion, CaseRegion, certify_negative


def random_symmetric_distribution(
    rng: np.random.Generator,
    max_pairs: int = 10,
    x_high: float = 10.0,
    allow_zero_atom: bool = True,
) -> SymmetricDiscreteDistribution:
    """Random valid symmetric law: sorted atoms in (0, x_high], Dirichlet-ish weights."""
    n = int(rng.integers(1, max_pairs + 1))
    xs = np.sort(rng.uniform(1e-3, x_high, size=n))
    # enforce strict increase under float comparison
    for i in range(1, n):
        if xs[i] <= xs[i - 1]:
            xs[i] = np.nextafter(xs[i - 1], np.inf)
    weights = rng.uniform(0.05, 1.0, size=n)
    zero_mass = rng.uniform(0.0, 1.0) if (allow_zero_atom and rng.random() < 0.5) else 0.0
    total = weights.sum() + zero_mass
    weights /= total
    zero_mass /= total
    atoms = []
    if zero_mass > 0.0:
        atoms.append((0.0, float(zero_mass)))
    atoms.extend((float(x), float(p)) for x, p in zip(xs, weights))
    return SymmetricDiscreteDistribution(atoms)


def mp_exppoly(p: ExpPoly, w) -> mpmath.mpf:
    """p(w, e^w) in mpmath at the working precision, from the exact coefficients.

    ExpPoly itself computes no float, so the tests evaluate it here.
    """
    w = mpmath.mpf(w)
    t = mpmath.e**w
    total = mpmath.mpf(0)
    for i, k, c in p.terms():
        total += mpmath.mpf(c.numerator) / c.denominator * w**i * t**k
    return total


def zero_mean_factor(p: TiltParams) -> float:
    """(e^{hw} - 1)/w, the factor quoted for zero-mean X; the package proves nothing about it.

    The comparison point of the zero-mean witness on {w, -sigma^2/w}: that
    law's mean / sigma^2 lies above sinh(hw)/w and below this factor, and
    tends to it as sigma^2 -> 0.
    """
    return math.expm1(p.h * p.w) / p.w


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)


@pytest.fixture(scope="session")
def boundary_witness():
    """d_case2 at depth 8 on a box touching the degenerate curve u = 0, v = w.

    Computed once per session: two tests assert on the same leftovers.
    """
    box = BoxRegion(u=(0.0, 1.0), v=(0.5, 2.0), w=(0.5, 2.0), case=CaseRegion.CASE2)
    return certify_negative("d_case2", box, max_depth=8)


@pytest.fixture(scope="session")
def battery():
    """The prover battery that verify_case_structure reads, decided once."""
    return verify_battery()
