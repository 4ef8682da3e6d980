"""Sign decision procedure for exp-polynomial inequalities on w in (0, oo).

The procedure certifies claims of the form ``P(w, e^w) < 0 for all w > 0``
(or ``> 0``) by a degree-reduction induction:

* Base case.  If P has w-degree zero it is a plain polynomial q(t) evaluated
  at t = e^w, and w > 0 is equivalent to t > 1.  Exact Sturm root counting
  (:mod:`tiltbound.rootisolation`) shows q has no root on (1, oo); the sign
  at one sample point is then the sign everywhere.

* Reduction step.  Otherwise the derivative d/dw P is certified recursively
  after sign-preserving normalization.  If the derivative is strictly
  negative on (0, oo) and P(0, 1) <= 0, then P < 0 strictly on (0, oo) by
  integration; symmetrically for positive.  Any other combination, a root in
  the base-case domain, or an exhausted depth cap yields UNDETERMINED, never
  a wrong sign.

Every certified claim carries a :class:`SignCertificate`: the full chain of
normalized expressions with exact boundary values, plus the root-isolation
record for the base case.  :func:`replay` re-derives the whole chain from the
stored expressions and must reproduce the claim exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exppoly import ExpPoly, derivative, normalize, parse_expression
from . import rootisolation as ri

MAX_DEPTH = 32  # decide_sign differentiates at most this many times


class Outcome(enum.Enum):
    NEGATIVE = "negative"
    POSITIVE = "positive"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class BaseCaseRecord:
    """Root-isolation evidence for a pure polynomial in t on (lower, oo)."""

    coefficients: tuple[Fraction, ...]
    lower: Fraction
    root_count: int
    isolating_intervals: tuple[tuple[Fraction, Fraction], ...]
    sample_point: Fraction
    sample_value: Fraction


@dataclass(frozen=True)
class BaseCaseDecision:
    outcome: Outcome
    record: Optional[BaseCaseRecord]
    reason: Optional[str] = None


def base_case_sign(coeffs, lower: Fraction = Fraction(1)) -> BaseCaseDecision:
    """Constant sign of a rational polynomial q(t) on the open ray (lower, oo).

    Returns NEGATIVE or POSITIVE with a replayable record when q provably has
    no root there; UNDETERMINED (with isolating intervals) when it does.  A
    root exactly at ``lower`` is outside the open domain and does not block a
    verdict.
    """
    q = ri.make_poly(coeffs)
    if not q:
        raise ValueError("zero polynomial has no sign")
    lower = Fraction(lower)
    count = ri.count_roots_above(q, lower)
    if count > 0:
        intervals = tuple(ri.isolate_roots_above(q, lower))
        record = BaseCaseRecord(q, lower, count, intervals, lower + 1, ri.evaluate(q, lower + 1))
        return BaseCaseDecision(
            Outcome.UNDETERMINED,
            record,
            reason=f"{count} root(s) inside (" + str(lower) + ", oo)",
        )
    sample = lower + 1
    value = ri.evaluate(q, sample)
    record = BaseCaseRecord(q, lower, 0, (), sample, value)
    outcome = Outcome.POSITIVE if value > 0 else Outcome.NEGATIVE
    return BaseCaseDecision(outcome, record)


@dataclass(frozen=True)
class ReductionStep:
    """One level of the chain: a normalized expression and its value at w = 0."""

    expr: ExpPoly
    boundary_value: Fraction


@dataclass(frozen=True)
class SignCertificate:
    claim: Outcome
    steps: tuple[ReductionStep, ...]
    base: BaseCaseRecord

    def to_dict(self) -> dict:
        return {
            "claim": self.claim.value,
            "steps": [
                {
                    "terms": step.expr.to_term_list(),
                    "boundary_value": _frac_str(step.boundary_value),
                }
                for step in self.steps
            ],
            "base": {
                "coefficients": [_frac_str(c) for c in self.base.coefficients],
                "lower": _frac_str(self.base.lower),
                "root_count": self.base.root_count,
                "sample_point": _frac_str(self.base.sample_point),
                "sample_value": _frac_str(self.base.sample_value),
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SignCertificate":
        steps = tuple(
            ReductionStep(
                expr=ExpPoly.from_term_list(s["terms"]),
                boundary_value=Fraction(s["boundary_value"]),
            )
            for s in data["steps"]
        )
        base = BaseCaseRecord(
            coefficients=tuple(Fraction(c) for c in data["base"]["coefficients"]),
            lower=Fraction(data["base"]["lower"]),
            root_count=int(data["base"]["root_count"]),
            isolating_intervals=(),
            sample_point=Fraction(data["base"]["sample_point"]),
            sample_value=Fraction(data["base"]["sample_value"]),
        )
        return cls(claim=Outcome(data["claim"]), steps=steps, base=base)


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class SignDecision:
    outcome: Outcome
    certificate: Optional[SignCertificate]
    reason: Optional[str] = None


def decide_sign(p: ExpPoly) -> SignDecision:
    """Decide the sign of p(w, e^w) on w in (0, oo), or report UNDETERMINED.

    ``MAX_DEPTH`` caps the derivative chain length.  Exhausting the cap
    returns UNDETERMINED; the procedure never asserts a sign it has not
    proved.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no sign")
    chain = [normalize(p)]
    while chain[-1].w_degree > 0:
        if len(chain) > MAX_DEPTH:
            return SignDecision(
                Outcome.UNDETERMINED,
                None,
                reason=f"derivative chain exceeded max_depth={MAX_DEPTH}",
            )
        chain.append(normalize(derivative(chain[-1])))

    tail = chain[-1]
    base = base_case_sign([tail.coeff(0, k) for k in range(tail.t_degrees[1] + 1)])
    if base.outcome is Outcome.UNDETERMINED:
        return SignDecision(
            Outcome.UNDETERMINED,
            None,
            reason=f"base case has a root on (1, oo): {base.reason}",
        )

    sign = base.outcome
    steps = tuple(ReductionStep(expr, expr.eval_at_zero()) for expr in chain)
    for level in range(len(steps) - 2, -1, -1):
        boundary_value = steps[level].boundary_value
        if sign is Outcome.NEGATIVE and boundary_value <= 0:
            continue
        if sign is Outcome.POSITIVE and boundary_value >= 0:
            continue
        return SignDecision(
            Outcome.UNDETERMINED,
            None,
            reason=(
                f"level {level}: boundary value {boundary_value} is inconsistent "
                f"with derivative sign {sign.value}"
            ),
        )

    certificate = SignCertificate(claim=sign, steps=steps, base=base.record)
    return SignDecision(sign, certificate)


class CertificateError(ValueError):
    """A stored certificate does not replay to its recorded content."""


def replay(certificate: SignCertificate) -> Outcome:
    """Re-derive a certificate from its stored expressions.

    Recomputes every derivative, normalization, boundary value and the base
    case root count, checks them against the stored records, and returns the
    re-derived claim.  The base case must speak about t = e^w on (1, oo),
    the image of w > 0: its lower end must be 1 and its sample point above
    1.  Raises CertificateError on any mismatch.
    """
    steps = certificate.steps
    if not steps:
        raise CertificateError("certificate has no steps")
    for i in range(len(steps) - 1):
        expected = normalize(derivative(steps[i].expr))
        if expected != steps[i + 1].expr:
            raise CertificateError(f"step {i + 1} is not the normalized derivative of step {i}")
    for i, step in enumerate(steps):
        if step.expr.eval_at_zero() != step.boundary_value:
            raise CertificateError(f"step {i} boundary value mismatch")

    tail = steps[-1].expr
    if tail.w_degree != 0:
        raise CertificateError("final step is not a pure polynomial in t")
    coeffs = tuple(tail.coeff(0, k) for k in range(tail.t_degrees[1] + 1))
    if ri.make_poly(coeffs) != ri.make_poly(certificate.base.coefficients):
        raise CertificateError("base polynomial does not match the final step")
    if certificate.base.lower != 1 or not certificate.base.sample_point > 1:
        raise CertificateError("base case does not cover t = e^w > 1")
    count = ri.count_roots_above(ri.make_poly(coeffs), certificate.base.lower)
    if count != certificate.base.root_count or count != 0:
        raise CertificateError("base case root count mismatch")
    sample_value = ri.evaluate(ri.make_poly(coeffs), certificate.base.sample_point)
    if sample_value != certificate.base.sample_value or sample_value == 0:
        raise CertificateError("base case sample value mismatch")

    sign = Outcome.POSITIVE if sample_value > 0 else Outcome.NEGATIVE
    for step in reversed(steps[:-1]):
        if sign is Outcome.NEGATIVE and step.boundary_value <= 0:
            continue
        if sign is Outcome.POSITIVE and step.boundary_value >= 0:
            continue
        raise CertificateError("monotonicity inference fails on replay")
    if sign is not certificate.claim:
        raise CertificateError("replayed claim differs from stored claim")
    return sign


# ---------------------------------------------------------------------------
# Built-in inequality battery
# ---------------------------------------------------------------------------
#
# One-variable inequalities underpinning the negativity of the symmetrized
# comparison expression d(u, v, w) across the three case regions.  Each entry
# is (name, expression text, expected sign, role).  Names follow the
# auxiliary expressions of the case analysis (d1, d111, the rescaled diagonal
# dtilde); apart from d1_case2 these have no closed form in the
# tiltbound.regions catalog, because the one-variable claims are proved here
# on all of w > 0.  Names and roles appear in the verify-proof JSON.

BATTERY = (
    (
        "dtilde_diag_slope_at_corner",
        "1 + exp(w)^2*(w + 2*w*exp(w) - exp(w)^2*(1+w))",
        Outcome.NEGATIVE,
        "slope in u of the rescaled case-1 diagonal restriction, at u = w",
    ),
    (
        "d1_case1_concavity_majorant",
        "2*sinh(w) + exp(w)^2*(w - 2*(2+w)*sinh(w))",
        Outcome.NEGATIVE,
        "upper bound for the second u-derivative of d1 in case 1",
    ),
    (
        "d1_case1_at_corner",
        "w*(exp(w)^2 - 1 + w) - sinh(w)*(2*w*exp(w)^2 - w^2 + 2*w)",
        Outcome.NEGATIVE,
        "d1 of case 1 restricted to u = w",
    ),
    (
        "d1_case2_concavity_majorant",
        "w*cosh(w) + (w - 4*(2+w))*sinh(w)",
        Outcome.NEGATIVE,
        "upper bound for exp(-v) times the second v-derivative of d1 in case 2",
    ),
    (
        "d1_case2_slope_at_u_zero",
        "3*w - exp(w)^2*(w+2) + 2",
        Outcome.NEGATIVE,
        "v-slope of d1 in case 2 at v = w in the u -> 0 limit",
    ),
    (
        "d111_negativity",
        "exp(w)*w*(cosh(w) - 2*sinh(w)) + (w-1)*w",
        Outcome.NEGATIVE,
        "u-independent part of the case-2 split of d1 at v = w",
    ),
    (
        "d1_case2_at_v_eq_w_u_zero",
        "(w-1)*w + exp(w)*w*(cosh(w) - 3*sinh(w))",
        Outcome.NEGATIVE,
        "d1 of case 2 at v = w in the u -> 0 limit",
    ),
    (
        "d1_case2_at_v_eq_w_u_eq_w",
        "w + (w + exp(w))*sinh(w) - exp(w)*(4*sinh(w) - 1)*cosh(w) - 1",
        Outcome.NEGATIVE,
        "d1 of case 2 at u = v = w, divided by w",
    ),
    (
        "sinh_dominates_identity",
        "sinh(w) - w",
        Outcome.POSITIVE,
        "sinh w > w, used twice as a lemma in the case analysis",
    ),
)


@dataclass(frozen=True)
class BatteryEntry:
    name: str
    expression: str
    expected: Outcome
    role: str
    decision: SignDecision
    replay_matches: bool

    @property
    def certified(self) -> bool:
        return (
            self.decision.outcome is self.expected
            and self.decision.certificate is not None
            and self.replay_matches
        )


@dataclass(frozen=True)
class BatteryReport:
    entries: tuple[BatteryEntry, ...]

    @property
    def all_certified(self) -> bool:
        return all(entry.certified for entry in self.entries)

    def to_dict(self) -> dict:
        return {
            "all_certified": self.all_certified,
            "entries": [
                {
                    "name": e.name,
                    "expression": e.expression,
                    "role": e.role,
                    "expected": e.expected.value,
                    "outcome": e.decision.outcome.value,
                    "replay_matches": e.replay_matches,
                    "reason": e.decision.reason,
                    "chain_length": (
                        len(e.decision.certificate.steps) if e.decision.certificate else None
                    ),
                }
                for e in self.entries
            ],
        }


def verify_battery() -> BatteryReport:
    """Certify every built-in inequality and replay each certificate.

    The report fails loudly (``all_certified`` False) if any member comes
    back UNDETERMINED or its certificate fails to replay.
    """
    entries = []
    for name, text, expected, role in BATTERY:
        decision = decide_sign(parse_expression(text))
        replay_ok = False
        if decision.certificate is not None:
            try:
                replay_ok = replay(decision.certificate) is decision.outcome
            except CertificateError:
                replay_ok = False
        entries.append(BatteryEntry(name, text, expected, role, decision, replay_ok))
    return BatteryReport(tuple(entries))
