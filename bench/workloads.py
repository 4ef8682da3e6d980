"""The benchmark workloads: seeded inputs, closed-loop rounds and gates.

A workload turns the seed into plain inputs (:mod:`bench.inputs`), builds
the program objects it needs, then runs rounds one after another: each call
starts when the previous one returns, from one thread.  Every output is
checked; a wrong sign, an unsound enclosure or a false PASS raises
:class:`GateFailure`, while UNDETERMINED results and undecided boxes are
counted as failed operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from . import inputs

# Points per certified region at which verify-proof's PASS is falsified
# against tilted.d_expr.
FALSIFIER_POINTS = 64

# A leaf enclosure must contain the float value at the box centre, widened
# by ENCLOSURE_SLACK * (1 + u^2 + v^2) * exp(2 * max(u, v, w)): a bound on
# the size of the terms that cancel in the closed forms, times a multiple of
# the float rounding error.
ENCLOSURE_SLACK = 1e-12

# Input pools, cycled through round by round.  analysis-mix also draws
# MIN_PERCENTILE_SAMPLES claims and as many laws.
CUBES = 64
LEAVES = 1280
SCANS = 64
LEAVES_PER_ROUND = 64
CLAIMS_PER_ROUND = 50
CHECKS_PER_ROUND = 100
MIN_PERCENTILE_SAMPLES = 1000  # enough for a p99 under the percentile rule


class GateFailure(Exception):
    """The program returned a wrong result; the run must not report."""


Window = tuple[float, float]  # (start, end) on the run's clock


@dataclass
class Samples:
    """What the rounds of one run measured, as windows on ``clock``."""

    rounds: list[Window] = field(default_factory=list)  # filled by the run loop
    enclosures: list[Window] = field(default_factory=list)
    proofs: list[Window] = field(default_factory=list)  # parse, decide and replay
    checks: list[Window] = field(default_factory=list)
    scans: list[tuple[float, float, int]] = field(default_factory=list)  # with rows
    counts: Counter = field(default_factory=Counter)
    attempted: int = 0
    failed: int = 0
    clock: Callable[[], float] = perf_counter


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable  # seed -> plain inputs
    prepare: Callable  # (program, inputs) -> program objects for the rounds
    run_round: Callable  # (program, prepared, round index, samples) -> None
    calibration_round: Callable  # (program, prepared, samples) -> None
    enough: Callable  # samples -> bool, the minimum a run must collect


# ---------------------------------------------------------------------------
# verify-proof, shared by both verify workloads
# ---------------------------------------------------------------------------


def _case_point(rng: random.Random, lo: float, hi: float, case: str) -> tuple[float, float, float]:
    a, b, c = sorted(rng.uniform(lo, hi) for _ in range(3))
    return (b, c, a) if case == "case1" else (a, c, b)  # (u, v, w)


def verify_proof(program, argv: list[str], samples: Samples) -> None:
    """One in-process `tiltbound verify-proof` call, with its output checked."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = program.cli.main(argv)
    report = json.loads(out.getvalue())
    if code != 0 or report.get("all_passed") is not True:
        raise GateFailure(f"verify-proof {argv[1:]} exited {code} without all_passed")
    for entry in report["battery"]["entries"]:
        if entry["outcome"] != entry["expected"] or not entry["replay_matches"]:
            raise GateFailure(f"battery member {entry['name']} was not certified")
    boxes = undecided = 0
    for region in report["regions"]:
        left = region["undecided_boxes"]
        if region["status"] == "certified" and left:
            raise GateFailure(f"{region['expression']} certified with undecided boxes")
        if any(not box["boundary_expected"] for box in left):
            raise GateFailure(f"{region['expression']} passed with an unexcused undecided box")
        _falsify(program, region)
        boxes += region["boxes_evaluated"]
        undecided += len(left)
    samples.counts["verify_calls"] += 1
    samples.counts["boxes"] += boxes
    samples.attempted += boxes + len(report["battery"]["entries"])
    samples.failed += undecided


def _falsify(program, region: dict) -> None:
    """A certified region must show d < 0 at every sampled point."""
    if region["status"] != "certified":
        return
    box = region["region"]
    lo, hi = box["u"]
    rng = random.Random(f"falsify:{region['expression']}:{lo}:{hi}")
    for _ in range(FALSIFIER_POINTS):
        u, v, w = _case_point(rng, lo, hi, box["case"])
        if not program.tilted.d_expr(u, v, w) < 0.0:
            raise GateFailure(f"false PASS: d({u}, {v}, {w}) >= 0 in {region['expression']}")


# ---------------------------------------------------------------------------
# verify-default
# ---------------------------------------------------------------------------

DEFAULT_ARGV = ["verify-proof"]
CALIBRATION_ARGV = ["verify-proof", "--box", "0.7:5"]

VERIFY_DEFAULT = Workload(
    name="verify-default",
    generate=lambda seed: {"argv": DEFAULT_ARGV},  # the seed is recorded but unused
    prepare=lambda program, data: list(data["argv"]),
    run_round=lambda program, argv, k, samples: verify_proof(program, argv, samples),
    calibration_round=lambda program, argv, samples: verify_proof(
        program, CALIBRATION_ARGV, samples
    ),
    enough=lambda samples: len(samples.rounds) >= 1,
)


# ---------------------------------------------------------------------------
# regions-offstrip
# ---------------------------------------------------------------------------


def _offstrip_generate(seed: int) -> dict:
    return {
        "cubes": inputs.offstrip_cubes(seed, CUBES),
        "leaves": inputs.leaf_boxes(seed, LEAVES),
    }


def _offstrip_prepare(program, data: dict) -> dict:
    regions = program.regions
    leaves = []
    for name, case, u, v, w in data["leaves"]:
        box = regions.BoxRegion(u=u, v=v, w=w, case=regions.CaseRegion(case))
        leaves.append((name, box))
    argvs = [["verify-proof", "--box", f"{lo!r}:{hi!r}"] for lo, hi in data["cubes"]]
    return {"argvs": argvs, "leaves": leaves}


def enclosure_reference(program, name: str, box) -> tuple[float, float]:
    """(value at the box centre, allowed slack) for the soundness gate.

    d_case1 and d_case2 are checked against tilted.d_expr, an independent
    formula; the other claims against their own float closed form.
    """
    u, v, w = (0.5 * (lo + hi) for lo, hi in (box.u, box.v, box.w))
    if name in ("d_case1", "d_case2"):
        value = program.tilted.d_expr(u, v, w)
    else:
        expr = program.regions.CATALOG[name]
        value = expr.point(u=u, v=v, w=w)
    slack = ENCLOSURE_SLACK * (1.0 + u * u + v * v) * math.exp(2.0 * max(u, v, w))
    return value, slack


def _offstrip_leaves(program, leaves: list, k: int, samples: Samples) -> None:
    eval_interval = program.regions.eval_interval
    first = k * LEAVES_PER_ROUND
    for i in range(first, first + LEAVES_PER_ROUND):
        name, box = leaves[i % len(leaves)]
        start = samples.clock()
        enclosure = eval_interval(name, box)
        samples.enclosures.append((start, samples.clock()))
        value, slack = enclosure_reference(program, name, box)
        if not enclosure.lo - slack <= value <= enclosure.hi + slack:
            raise GateFailure(
                f"unsound enclosure of {name}: [{enclosure.lo}, {enclosure.hi}] "
                f"misses {value} on {box.to_dict()}"
            )
        samples.attempted += 1
        if enclosure.hi >= 0.0:  # the leaf is not proven negative
            samples.failed += 1


def _offstrip_round(program, prepared: dict, k: int, samples: Samples) -> None:
    argvs = prepared["argvs"]
    verify_proof(program, argvs[k % len(argvs)], samples)
    _offstrip_leaves(program, prepared["leaves"], k, samples)


REGIONS_OFFSTRIP = Workload(
    name="regions-offstrip",
    generate=_offstrip_generate,
    prepare=_offstrip_prepare,
    run_round=_offstrip_round,
    calibration_round=lambda program, prepared, samples: _offstrip_round(
        program, prepared, 0, samples
    ),
    enough=lambda samples: len(samples.enclosures) >= MIN_PERCENTILE_SAMPLES,
)


# ---------------------------------------------------------------------------
# analysis-mix
# ---------------------------------------------------------------------------


def _analysis_generate(seed: int) -> dict:
    return {
        "claims": inputs.claims(seed, MIN_PERCENTILE_SAMPLES),
        "distributions": inputs.distributions(seed, MIN_PERCENTILE_SAMPLES),
        "scans": inputs.scans(seed, SCANS),
    }


def _analysis_prepare(program, data: dict) -> dict:
    tilted = program.tilted
    checks = [
        (tilted.SymmetricDiscreteDistribution(atoms), tilted.TiltParams(h, w))
        for atoms, h, w in data["distributions"]
    ]
    scans = [(tilted.TiltParams(h, w), sigmas) for h, w, sigmas in data["scans"]]
    return {"claims": data["claims"], "checks": checks, "scans": scans}


def _battery(program, samples: Samples) -> None:
    prover = program.prover
    report = prover.verify_battery()
    for entry in report.entries:
        samples.attempted += 1
        outcome = entry.decision.outcome
        if outcome is prover.Outcome.UNDETERMINED:
            samples.failed += 1
        elif outcome is not entry.expected or not entry.replay_matches:
            raise GateFailure(f"battery member {entry.name} came back {outcome.value}")


def _prove(program, text: str, sign: int, samples: Samples) -> None:
    prover = program.prover
    start = samples.clock()
    decision = prover.decide_sign(program.exppoly.parse_expression(text))
    try:
        replayed = prover.replay(decision.certificate) if decision.certificate else None
    except prover.CertificateError as exc:
        raise GateFailure(f"certificate of {text!r} does not replay: {exc}") from exc
    samples.proofs.append((start, samples.clock()))
    samples.attempted += 1
    if decision.outcome is prover.Outcome.UNDETERMINED:
        samples.failed += 1
        return
    expected = prover.Outcome.POSITIVE if sign > 0 else prover.Outcome.NEGATIVE
    if decision.outcome is not expected:
        raise GateFailure(f"claim {text!r} came back {decision.outcome.value}")
    if replayed is not expected:
        raise GateFailure(f"certificate of {text!r} replays to {replayed}")


def _check(program, dist, params, samples: Samples) -> None:
    start = samples.clock()
    result = program.tilted.check_bound(dist, params)
    samples.checks.append((start, samples.clock()))
    samples.attempted += 1
    if not 0.0 < result.mean < result.bound:
        raise GateFailure(
            f"check_bound gave mean {result.mean} against bound {result.bound} "
            f"for {dist!r} at {params}"
        )


def _scan(program, params, sigmas: list[float], samples: Samples) -> None:
    start = samples.clock()
    rows = program.extremal.ratio_limit_scan(params, sigmas)
    samples.scans.append((start, samples.clock(), len(rows)))
    samples.attempted += len(rows)
    ratios = [row.ratio for row in rows]
    factor = rows[0].bound_factor
    if not all(a < b for a, b in zip(ratios, ratios[1:])) or not ratios[-1] < factor:
        raise GateFailure(f"scan at {params} gave ratios {ratios} against {factor}")


def _analysis_round(program, prepared: dict, k: int, samples: Samples) -> None:
    _battery(program, samples)
    claims, checks, scans = prepared["claims"], prepared["checks"], prepared["scans"]
    for i in range(k * CLAIMS_PER_ROUND, (k + 1) * CLAIMS_PER_ROUND):
        _, text, sign = claims[i % len(claims)]
        _prove(program, text, sign, samples)
    for i in range(k * CHECKS_PER_ROUND, (k + 1) * CHECKS_PER_ROUND):
        dist, params = checks[i % len(checks)]
        _check(program, dist, params, samples)
    params, sigmas = scans[k % len(scans)]
    _scan(program, params, sigmas, samples)


ANALYSIS_MIX = Workload(
    name="analysis-mix",
    generate=_analysis_generate,
    prepare=_analysis_prepare,
    run_round=_analysis_round,
    calibration_round=lambda program, prepared, samples: _analysis_round(
        program, prepared, 0, samples
    ),
    enough=lambda samples: len(samples.proofs) >= MIN_PERCENTILE_SAMPLES,
)


WORKLOADS = {w.name: w for w in (VERIFY_DEFAULT, REGIONS_OFFSTRIP, ANALYSIS_MIX)}
