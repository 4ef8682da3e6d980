"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and returns plain data (floats,
tuples, strings).  The program under test only ever sees these generated
inputs, and the same seed always produces the same inputs, which
:func:`digest` pins down.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

# The five expressions that back certified claims in `tiltbound verify-proof`,
# with its case order.
CLAIMS = (
    ("d_case1", "case1"),
    ("d_case2", "case2"),
    ("dv2_case1", "case1"),
    ("d1_case2", "case2"),
    ("d_at_v_eq_w_case2", "case2"),
)

OFFSTRIP_LO = 0.5  # every cube and enclosure box stays at or above this
AXIS_HI = 8.0

CLAIM_FAMILIES = (
    "taylor_exp",
    "taylor_exp_neg",
    "sinh_remainder",
    "cosh_remainder",
    "battery_member",
)


def digest(data) -> str:
    """sha256 of the canonical JSON form of generated inputs."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{stream}:{seed}")


# ---------------------------------------------------------------------------
# regions-offstrip
# ---------------------------------------------------------------------------


def offstrip_cubes(seed: int, count: int) -> list[tuple[float, float]]:
    """Cubes [lo, hi]^3 with lo in [0.5, 0.55] and hi in [5, 5.25].

    The ranges are narrow on purpose: over wider ones the box count of one
    cube varies by 40%, so the work of a run would depend on its seed.  Over
    these it varies by 4%.
    """
    rng = _rng(seed, "cubes")
    return [
        (round(rng.uniform(OFFSTRIP_LO, 0.55), 4), round(rng.uniform(5.0, 5.25), 4))
        for _ in range(count)
    ]


def _ordered_triple(rng: random.Random, half: float) -> tuple[float, float, float]:
    """a < b < c in [0.5 + half, 8 - half], consecutive gaps at least 2 * half."""
    while True:
        a, b, c = sorted(rng.uniform(OFFSTRIP_LO + half, AXIS_HI - half) for _ in range(3))
        if b - a >= 2 * half and c - b >= 2 * half:
            return a, b, c


def leaf_boxes(seed: int, count: int) -> list[tuple[str, str, tuple, tuple, tuple]]:
    """Leaf-sized boxes, each wholly inside its expression's case order.

    Returns (expression, case, u, v, w) with each axis a (lo, hi) pair.  Box
    half-widths run from 1e-3 to about 3e-2, the size of bisection leaves.
    The box centre meets the case order with room to spare, so the whole
    box does and eval_interval never clips it.
    """
    rng = _rng(seed, "leaves")
    boxes = []
    for k in range(count):
        name, case = CLAIMS[k % len(CLAIMS)]
        half = 10.0 ** rng.uniform(-3.0, -1.5)
        a, b, c = _ordered_triple(rng, half)
        if case == "case1":  # w <= u <= v
            w, u, v = a, b, c
        else:  # u <= w <= v
            u, w, v = a, b, c
        if name == "d_at_v_eq_w_case2":
            v = w
        boxes.append(
            (name, case, (u - half, u + half), (v - half, v + half), (w - half, w + half))
        )
    return boxes


# ---------------------------------------------------------------------------
# analysis-mix
# ---------------------------------------------------------------------------

# Members of the built-in prover battery with their proven signs; copied
# here so that the generator does not depend on the program under test.
BATTERY_MEMBERS = (
    ("1 + exp(w)^2*(w + 2*w*exp(w) - exp(w)^2*(1+w))", -1),
    ("2*sinh(w) + exp(w)^2*(w - 2*(2+w)*sinh(w))", -1),
    ("w*(exp(w)^2 - 1 + w) - sinh(w)*(2*w*exp(w)^2 - w^2 + 2*w)", -1),
    ("w*cosh(w) + (w - 4*(2+w))*sinh(w)", -1),
    ("3*w - exp(w)^2*(w+2) + 2", -1),
    ("exp(w)*w*(cosh(w) - 2*sinh(w)) + (w-1)*w", -1),
    ("(w-1)*w + exp(w)*w*(cosh(w) - 3*sinh(w))", -1),
    ("w + (w + exp(w))*sinh(w) - exp(w)*(4*sinh(w) - 1)*cosh(w) - 1", -1),
    ("sinh(w) - w", 1),
)


def _series(terms: list[tuple[int, int]]) -> str:
    """Polynomial text sum(num / j! * w^j) from (j, num) pairs."""
    return "(" + " + ".join(f"{num}/{math.factorial(j)}*w^{j}" for j, num in terms) + ")"


def claim(rng: random.Random) -> tuple[str, str, int]:
    """One exp-polynomial claim whose sign on w > 0 is known in closed form.

    Returns (family, text, sign) with sign +1 or -1.  The base expression is
    a Taylor remainder or a battery member; it is then scaled by a positive
    rational, optionally shifted by exp(j*w) > 0 and optionally negated.
    Known signs of the bases, for x = k*w > 0:

    * exp(x) minus its Taylor polynomial of degree n is positive;
    * exp(-x) minus its Taylor polynomial of degree n has sign (-1)^(n+1);
    * sinh(x) and cosh(x) minus their Taylor polynomials are positive;
    * battery members have the signs the prover battery certifies.
    """
    family = rng.choice(CLAIM_FAMILIES)
    k = rng.randint(1, 3)
    if family == "taylor_exp":
        n = rng.randint(0, 5)
        base, sign = f"exp({k}*w) - " + _series([(j, k**j) for j in range(n + 1)]), 1
    elif family == "taylor_exp_neg":
        n = rng.randint(0, 5)
        base = f"exp(-{k}*w) - " + _series([(j, (-k) ** j) for j in range(n + 1)])
        sign = 1 if n % 2 else -1
    elif family == "sinh_remainder":
        m = rng.randint(0, 2)
        base = f"sinh({k}*w) - " + _series([(2 * i + 1, k ** (2 * i + 1)) for i in range(m + 1)])
        sign = 1
    elif family == "cosh_remainder":
        m = rng.randint(0, 2)
        base = f"cosh({k}*w) - " + _series([(2 * i, k ** (2 * i)) for i in range(m + 1)])
        sign = 1
    else:
        base, sign = rng.choice(BATTERY_MEMBERS)
    text = f"{rng.randint(1, 9)}/{rng.randint(1, 9)}*({base})"
    shift = rng.randint(0, 2)
    if shift:
        text = f"exp({shift}*w)*{text}"
    if rng.random() < 0.5:
        text, sign = f"-{text}", -sign
    return family, text, sign


def claims(seed: int, count: int) -> list[tuple[str, str, int]]:
    rng = _rng(seed, "claims")
    return [claim(rng) for _ in range(count)]


def distributions(seed: int, count: int) -> list[tuple[list, float, float]]:
    """Symmetric laws with 1-64 atom pairs, and (h, w) in (0, 5].

    Returns (atoms, h, w) with atoms [[x, p], ...] as the program's
    distribution JSON expects: x >= 0 strictly increasing, p summing to 1.
    """
    rng = _rng(seed, "distributions")
    out = []
    for _ in range(count):
        pairs = rng.randint(1, 64)
        xs = sorted({rng.uniform(0.01, 6.0) for _ in range(pairs)})
        if rng.random() < 0.5:
            xs.insert(0, 0.0)
        weights = [rng.uniform(0.05, 1.0) for _ in xs]
        total = math.fsum(weights)
        atoms = [[x, p / total] for x, p in zip(xs, weights)]
        out.append((atoms, rng.uniform(0.05, 5.0), rng.uniform(0.05, 5.0)))
    return out


def scans(seed: int, count: int) -> list[tuple[float, float, list[float]]]:
    """(h, w, sigmas) with three sigmas falling at least threefold each step."""
    rng = _rng(seed, "scans")
    out = []
    for _ in range(count):
        h, w = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        s1 = w * rng.uniform(0.3, 0.6)
        s2 = s1 * rng.uniform(0.1, 0.3)
        s3 = s2 * rng.uniform(0.05, 0.2)
        out.append((h, w, [s1, s2, s3]))
    return out
