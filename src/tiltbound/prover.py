"""Sign decision procedure for exp-polynomial inequalities on w in (0, oo).

The procedure certifies claims of the form ``P(w, e^w) < 0 for all w > 0``
(or ``> 0``) by a degree-reduction induction:

* Base case.  If P has w-degree zero it is a plain polynomial q(t) evaluated
  at t = e^w, and w > 0 is equivalent to t > 1.  Descartes' rule of signs
  over exact integer Taylor shifts (:mod:`tiltbound.rootisolation`, which
  takes q's primitive int coefficients and counts on t > 1 alone) shows q
  has no root on (1, oo); the sign at the sample point t = 2 is then the
  sign everywhere.

* Reduction step.  Otherwise the derivative d/dw P is certified recursively
  after sign-preserving normalization to coprime integer coefficients, so
  the whole derivation computes with ints.  If the derivative is strictly
  negative on (0, oo) and P(0, 1) <= 0, then P < 0 strictly on (0, oo) by
  integration; symmetrically for positive.  Any other combination, a root in
  the base-case domain, a base case the root count cannot resolve, an
  exhausted depth cap or a ValueError while the chain is built (a kernel
  fault, such as a derivative that vanished) yields UNDETERMINED with that
  reason, never a wrong sign.

Every certified claim carries a :class:`SignCertificate`: the claimed sign
and the full chain of normalized expressions.  A step is its normalized
polynomial, and its boundary value P(0, 1) is read from that polynomial, so
nothing beside it is stored; the JSON form writes the value next to the
terms, and :meth:`SignCertificate.from_dict` accepts a step only in the form
``_step_dict`` writes.  The last expression of the chain determines the base
case, so the certificate records nothing else.  :func:`replay` re-derives
the certificate from its first expression with the same routine
:func:`decide_sign` uses and requires the stored certificate to equal the
derivation, step for step.
"""

from __future__ import annotations

import enum
import functools
from typing import NamedTuple, Optional

from .exppoly import MAX_DEGREE, ExpPoly, derivative, normalize, parse_expression, rational_str
from . import rootisolation as ri

MAX_DEPTH = 32  # decide_sign differentiates at most this many times


class Outcome(enum.Enum):
    NEGATIVE = "negative"
    POSITIVE = "positive"
    UNDETERMINED = "undetermined"


class CertificateError(ValueError):
    """A stored certificate is malformed or does not replay to its content."""


def _step_dict(step: ExpPoly) -> dict:
    """A step's JSON: its canonical terms and its value at w = 0, read from them."""
    return {"terms": step.to_term_list(), "boundary_value": rational_str(step.eval_at_zero())}


class SignCertificate(NamedTuple):
    """A claimed sign and its derivative chain, each step a normalized polynomial.

    A step's boundary value is ``step.eval_at_zero()``; it is written, not
    stored.
    """

    claim: Outcome
    steps: tuple[ExpPoly, ...]

    def to_dict(self) -> dict:
        return {"claim": self.claim.value, "steps": [_step_dict(step) for step in self.steps]}

    @classmethod
    def from_dict(cls, data: dict) -> "SignCertificate":
        """Inverse of :meth:`to_dict`; raises CertificateError on malformed data.

        The keys are exactly ``claim`` and ``steps``.  A step is read as the
        polynomial of its ``terms``: rationals are strings and degrees ints
        (not bools), w-degrees in ``[0, MAX_DEGREE]`` and t-degrees in
        ``[0, 2 * MAX_DEGREE]``.  Every chain of a parsed text fits, and the
        cap bounds replay time, which grows with the degree.  Coefficient size
        is not capped.  The step is then accepted only if it equals what
        ``_step_dict`` writes for that polynomial: exactly the keys ``terms``
        and ``boundary_value``, the terms as ``to_term_list()`` re-emits them
        (no repeated degree pair, no zero, in canonical order, each rational
        reduced), and the boundary value the ``rational_str`` text of the
        polynomial's own value at w = 0, so a wrong value is rejected here.
        A step that differs is rejected with the keys whose values differ
        named, such as ``boundary_value`` or ``terms``, then any extra key.
        """
        try:
            if set(data) != {"claim", "steps"}:
                raise KeyError(f"keys {sorted(data)} are not claim and steps")
            steps = []
            for step in data["steps"]:
                expr = ExpPoly.from_term_list(step["terms"])
                for i, k, _ in step["terms"]:
                    if not (0 <= i <= MAX_DEGREE and 0 <= k <= 2 * MAX_DEGREE):
                        raise ValueError(f"term degrees ({i}, {k}) out of range")
                if step != (written := _step_dict(expr)):  # name what differs
                    wrong = [key for key in written if step.get(key) != written[key]]
                    wrong += sorted(map(str, step.keys() - written.keys()))
                    raise ValueError(f"step differs from to_dict's form in {wrong}")
                steps.append(expr)
            return cls(claim=Outcome(data["claim"]), steps=tuple(steps))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise CertificateError(f"malformed certificate: {exc!r}") from exc


class SignDecision(NamedTuple):
    outcome: Outcome
    certificate: Optional[SignCertificate]
    reason: Optional[str] = None


def _derive(p: ExpPoly) -> SignCertificate | str:
    """The certificate the derivative chain of nonzero ``p`` proves, or why none.

    The one derivation of the prover: :func:`decide_sign` reports its result
    and :func:`replay` compares a stored certificate against it.
    """
    try:
        chain = [normalize(p)]
        while chain[-1].w_degree > 0:
            if len(chain) > MAX_DEPTH:
                return f"derivative chain exceeded max_depth={MAX_DEPTH}"
            chain.append(normalize(derivative(chain[-1])))
    except ValueError as exc:  # a kernel fault, such as a derivative that vanished
        return f"derivative chain failed: {exc}"

    # w > 0 is t = e^w > 1; with no root there, q has its sign at t = 2
    tail = chain[-1]
    # normalize leaves the tail's coefficients canonical ints, its top one nonzero
    q = tuple(tail.coeff(0, k) for k in range(tail.t_degrees[1] + 1))
    try:
        count = ri.count_roots_above(q)
    except ArithmeticError as exc:
        return f"unresolved base case: {exc}"
    if count:
        return f"base case has a root on (1, oo): {count} root(s) inside (1, oo)"
    sign = Outcome.POSITIVE if ri.evaluate(q, 2) > 0 else Outcome.NEGATIVE

    for level in range(len(chain) - 2, -1, -1):
        boundary_value = chain[level].eval_at_zero()
        wrong_side = boundary_value > 0 if sign is Outcome.NEGATIVE else boundary_value < 0
        if wrong_side:
            return (
                f"level {level}: boundary value {boundary_value} is inconsistent "
                f"with derivative sign {sign.value}"
            )
    return SignCertificate(claim=sign, steps=tuple(chain))


def decide_sign(p: ExpPoly) -> SignDecision:
    """Decide the sign of p(w, e^w) on w in (0, oo), or report UNDETERMINED.

    ``MAX_DEPTH`` caps the derivative chain length.  Exhausting the cap
    returns UNDETERMINED; the procedure never asserts a sign it has not
    proved.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no sign")
    derived = _derive(p)
    if isinstance(derived, str):
        return SignDecision(Outcome.UNDETERMINED, None, reason=derived)
    return SignDecision(derived.claim, derived)


def replay(certificate: SignCertificate) -> Outcome:
    """Re-derive a certificate from its first expression and return its claim.

    The derivation is the one :func:`decide_sign` runs: every derivative,
    normalization and boundary value, and the base case on t = e^w > 1 that
    the last step determines.  Raises CertificateError unless the stored
    steps and claim equal it.
    """
    steps = certificate.steps
    if not steps or steps[0].is_zero:
        raise CertificateError("certificate has no nonzero first step")
    derived = _derive(steps[0])
    if isinstance(derived, str):
        raise CertificateError(f"certificate proves nothing: {derived}")
    if certificate != derived:
        raise CertificateError("stored steps or claim and re-derivation differ")
    return derived.claim


# ---------------------------------------------------------------------------
# Built-in inequality battery
# ---------------------------------------------------------------------------
#
# One-variable inequalities underpinning the negativity of the symmetrized
# comparison expression d(u, v, w) across the three case regions.  Each entry
# is (name, expression text, expected sign, role).  Names follow the
# auxiliary expressions of the case analysis (d1, d111).  The diagonal v = u
# is an exact link, and d111_negativity bounds the whole face v = w of case
# 2's d1, so neither needs a lemma at single points.  The catalog form
# d1_case2 of tiltbound.regions is the positive multiple e^-(v+w) d1 of case
# 2's d1, and case 1's d1 is w e^u times the v-slope of d at v = u; the
# other names have no closed form in the catalog, because the one-variable
# claims are proved here on all of w > 0.  Names and roles appear in the
# verify-proof JSON.
# tiltbound.regions.LINKS names the lemmas each link of the case analysis reads.

BATTERY = (
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
        "d1_case1_slope_at_corner",
        "1 - w + w*exp(w) + 2*w*exp(w)^2 + w*exp(w)^3 - exp(w)^4*(1 + w)",
        Outcome.NEGATIVE,
        "exp(w) times the u-slope of d1 in case 1 at u = w",
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
        "sinh_dominates_identity",
        "sinh(w) - w",
        Outcome.POSITIVE,
        "sinh w > w; read by three case links",
    ),
    (
        "sinh_over_increasing",
        "w*cosh(w) - sinh(w)",
        Outcome.POSITIVE,
        "sinh(w)/w increases (this is w^2 times its slope); read by three case links",
    ),
)


class BatteryEntry(NamedTuple):
    name: str
    expression: str
    poly: ExpPoly  # the parsed expression, the one decide_sign decided
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


class BatteryReport(NamedTuple):
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


@functools.cache
def _lemma(text: str) -> ExpPoly:
    """A battery text's polynomial: parsed on its first use, then shared."""
    return parse_expression(text)


def verify_battery() -> BatteryReport:
    """Certify every built-in inequality and replay each certificate.

    The report fails loudly (``all_certified`` False) if any member comes
    back UNDETERMINED, or its certificate is not about the member (its first
    step is not ``normalize`` of the member's polynomial) or fails to
    replay: ``replay`` alone reads no claim, so the battery binds each
    certificate to its lemma.  Each text is parsed once per process; every
    call decides and replays every lemma.
    """
    entries = []
    for name, text, expected, role in BATTERY:
        poly = _lemma(text)
        decision = decide_sign(poly)
        certificate = decision.certificate
        try:
            replay_ok = (
                certificate is not None
                and certificate.steps[0] == normalize(poly)
                and replay(certificate) is decision.outcome
            )
        except CertificateError:
            replay_ok = False
        entries.append(BatteryEntry(name, text, poly, expected, role, decision, replay_ok))
    return BatteryReport(tuple(entries))
