"""Sign decisions, certificates, replay, and the inequality battery."""

import hashlib
import json
import math
import random
import re
from pathlib import Path

import mpmath
import pytest

from tiltbound import prover, rootisolation
from tiltbound.exppoly import ExpPoly, normalize, parse_expression
from tiltbound.prover import (
    BATTERY,
    CertificateError,
    Outcome,
    SignCertificate,
    decide_sign,
    replay,
    verify_battery,
)

from conftest import mp_exppoly


GOLDEN = Path(__file__).parent / "golden"

# the base-case block of the older certificate format, which from_dict rejects
_STALE_BASE = {
    "coefficients": ["-1/1", "1/1"],
    "lower": "1/1",
    "root_count": 0,
    "sample_point": "2/1",
    "sample_value": "1/1",
}


def _printed_certificates():
    """(expression, certificate dict, outcome) of every prove golden and battery certificate."""
    for path in sorted(GOLDEN.glob("prove_*.json")):
        golden = json.loads(path.read_text())
        if golden["certificate"]:
            yield pytest.param(
                golden["expression"], golden["certificate"], golden["outcome"], id=path.stem
            )
    for entry in verify_battery().entries:
        certificate = entry.decision.certificate.to_dict()
        yield pytest.param(entry.expression, certificate, entry.expected.value, id=entry.name)


class TestBaseCase:
    # a chain of one step: the expression is already a polynomial in t = e^w
    def test_linear_positive(self):
        decision = decide_sign(parse_expression("exp(w) - 1"))  # t - 1, root at t = 1 excluded
        assert decision.outcome is Outcome.POSITIVE
        assert decision.certificate.to_dict() == {
            "claim": "positive",
            "steps": [{"terms": [[0, 0, "-1/1"], [0, 1, "1/1"]], "boundary_value": "0/1"}],
        }

    def test_golden_ratio_blocks(self):
        decision = decide_sign(parse_expression("-exp(w)^2 + exp(w) + 1"))  # root (1 + 5^.5)/2
        assert decision.outcome is Outcome.UNDETERMINED
        assert decision.reason == "base case has a root on (1, oo): 1 root(s) inside (1, oo)"

    def test_cubic_domain_dependence(self):
        # only roots on t > 1 block: t^3 - 3t has one at sqrt 3, 2t^2 - 1 none
        assert decide_sign(parse_expression("exp(w)^3 - 3*exp(w)")).outcome is Outcome.UNDETERMINED
        assert decide_sign(parse_expression("2*exp(w)^3 - exp(w)")).outcome is Outcome.POSITIVE
        # t^2 - 3t + 3 has none, but q(1 + s) = s^2 - s + 1 has two sign
        # variations, so the count must split (1, oo)
        assert decide_sign(parse_expression("exp(2*w) - 3*exp(w) + 3")).outcome is Outcome.POSITIVE

    def test_unresolved_base_case_is_undetermined(self):
        # (t^2 - 2t - 1)^2: the double root 1 + sqrt 2 keeps two sign
        # variations in every interval around it, up to the work cap
        p = parse_expression("(exp(2*w) - 2*exp(w) - 1)^2")
        decision = decide_sign(p)
        assert decision.outcome is Outcome.UNDETERMINED
        assert decision.certificate is None
        assert decision.reason.startswith("unresolved base case")
        with pytest.raises(CertificateError, match="unresolved base case"):
            replay(SignCertificate(Outcome.POSITIVE, (normalize(p),)))

    def test_base_case_work_is_capped(self, monkeypatch):
        # degree 80: (t^2 - 2t - 1)^2 times 38 seeded quadratics with 20-bit
        # coefficients; the double root 1 + sqrt 2 never settles, and the
        # Taylor shifts of growing integers stop at the work cap after a few
        # splits, not after 256 levels of them
        shifts = []
        shift = rootisolation._shift
        monkeypatch.setattr(rootisolation, "_shift", lambda p, a: shifts.append(a) or shift(p, a))
        rng = random.Random(60)
        q = [1, 4, 2, -4, 1]
        for _ in range(38):
            factor = [rng.randint(-(2**20), 2**20) for _ in range(3)]
            q = [
                sum(q[i] * factor[k - i] for i in range(len(q)) if 0 <= k - i < 3)
                for k in range(len(q) + 2)
            ]
        decision = decide_sign(ExpPoly({(0, k): c for k, c in enumerate(q)}))
        assert decision.outcome is Outcome.UNDETERMINED and decision.certificate is None
        assert decision.reason.startswith("unresolved base case: the root count took over")
        assert (len(shifts) - 1) // 2 <= 8  # splits: 5

    def test_zero_rejected(self):
        with pytest.raises(CertificateError):
            replay(SignCertificate(Outcome.POSITIVE, (ExpPoly(),)))

    def test_a_kernel_fault_is_the_reason(self, monkeypatch):
        # a derivative that vanishes makes normalize raise inside the chain:
        # the claim is UNDETERMINED with that reason, and replay rejects it
        monkeypatch.setattr(prover, "derivative", lambda p: ExpPoly())
        p = parse_expression("sinh(w) - w")
        decision = decide_sign(p)
        reason = "derivative chain failed: cannot normalize the zero polynomial"
        assert decision == (Outcome.UNDETERMINED, None, reason)
        with pytest.raises(CertificateError, match=reason):
            replay(SignCertificate(Outcome.POSITIVE, (normalize(p),)))


class TestDecideSign:
    def test_exp_dominates_linear(self):
        decision = decide_sign(parse_expression("exp(w) - 1 - w"))
        assert decision.outcome is Outcome.POSITIVE
        assert decision.certificate is not None

    def test_sinh_dominates_identity(self):
        decision = decide_sign(parse_expression("sinh(w) - w"))
        assert decision.outcome is Outcome.POSITIVE

    def test_battery_head_negative(self):
        decision = decide_sign(parse_expression("1 + exp(w)^2*(w + 2*w*exp(w) - exp(w)^2*(1+w))"))
        assert decision.outcome is Outcome.NEGATIVE

    def test_sign_change_detected_at_base(self):
        decision = decide_sign(parse_expression("exp(w) - 2"))  # root at w = ln 2
        assert decision.outcome is Outcome.UNDETERMINED
        assert "root" in decision.reason

    def test_sign_change_detected_by_boundary(self):
        decision = decide_sign(parse_expression("w - 1"))  # negative then positive
        assert decision.outcome is Outcome.UNDETERMINED
        assert "inconsistent" in decision.reason

    def test_large_coefficients(self):
        # 81 terms R^8 e^(kw), k = -40..40, with 31-bit R, plus 1: a degree-80
        # base case with 248-bit coefficients, all positive after the shift
        rng = random.Random(2026)
        text = "+".join(f"{rng.getrandbits(31) | 1 << 30}^8*exp({k}*w)" for k in range(-40, 41))
        assert decide_sign(parse_expression(text + " + 1")).outcome is Outcome.POSITIVE

    def test_depth_cap(self):
        # e^w minus its degree-n Taylor polynomial needs n derivatives: 32 is
        # the cap, so degree 32 still certifies and degree 33 does not
        def taylor_remainder(n):
            terms = " + ".join(f"1/{math.factorial(k)}*w^{k}" for k in range(n + 1))
            return parse_expression(f"exp(w) - ({terms})")

        within = decide_sign(taylor_remainder(32))
        assert within.outcome is Outcome.POSITIVE
        assert len(within.certificate.steps) == 33
        beyond = decide_sign(taylor_remainder(33))
        assert beyond.outcome is Outcome.UNDETERMINED
        assert beyond.reason == "derivative chain exceeded max_depth=32"

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            decide_sign(ExpPoly())

    def test_certified_signs_match_sampling(self):
        # falsifier, not prover: certified claims must survive point sampling
        for text in ("exp(w) - 1 - w", "sinh(w) - w", "3*w - exp(w)^2*(w+2) + 2"):
            decision = decide_sign(parse_expression(text))
            assert decision.outcome is not Outcome.UNDETERMINED
            want_positive = decision.outcome is Outcome.POSITIVE
            p = parse_expression(text)
            for i in range(1, 200):
                value = mp_exppoly(p, mpmath.mpf(i) / 10)
                assert (value > 0) == want_positive


class TestCertificates:
    def test_replay_reproduces_claim(self):
        decision = decide_sign(parse_expression("sinh(w) - w"))
        assert replay(decision.certificate) is decision.outcome

    def test_json_round_trip_then_replay(self):
        decision = decide_sign(
            parse_expression("w*cosh(w) + (w - 4*(2+w))*sinh(w)")
        )
        blob = json.dumps(decision.certificate.to_dict())
        restored = SignCertificate.from_dict(json.loads(blob))
        assert replay(restored) is Outcome.NEGATIVE
        assert restored.to_dict() == decision.certificate.to_dict()

    def test_tampered_chain_rejected(self):
        decision = decide_sign(parse_expression("sinh(w) - w"))
        data = decision.certificate.to_dict()
        data["steps"][1]["terms"][0][2] = "7/1"
        with pytest.raises(CertificateError):
            replay(SignCertificate.from_dict(data))

    def test_tampered_claim_rejected(self):
        decision = decide_sign(parse_expression("sinh(w) - w"))
        data = decision.certificate.to_dict()
        data["claim"] = "negative"
        with pytest.raises(CertificateError):
            replay(SignCertificate.from_dict(data))

    @staticmethod
    def _forged(text, claim):
        """A one-step certificate for a polynomial in t = e^w, with the claim as given."""
        steps = (normalize(parse_expression(text)),)
        data = SignCertificate(Outcome(claim), steps).to_dict()
        return SignCertificate.from_dict(json.loads(json.dumps(data)))

    def test_sample_point_outside_the_domain_rejected(self):
        # 2e^w - 1 > 0 on w > 0, but 2t - 1 is negative at t = 0; the
        # certificate names no sample point, and replay samples t = 2
        forged = self._forged("2*exp(w) - 1", "negative")
        with pytest.raises(CertificateError):
            replay(forged)

    def test_base_case_on_a_shifted_ray_rejected(self):
        # e^w - 3 changes sign at w = ln 3, yet t - 3 has no root on t > 100;
        # the certificate names no ray, and replay counts roots on t > 1
        assert decide_sign(parse_expression("exp(w) - 3")).outcome is Outcome.UNDETERMINED
        forged = self._forged("exp(w) - 3", "positive")
        with pytest.raises(CertificateError):
            replay(forged)

    @pytest.mark.parametrize(
        "path, value",  # value ... deletes the key
        [
            ((), {}),
            ((), []),
            (("foo",), "bar"),  # a key that is not read
            (("steps",), 5),
            (("steps", 0, "boundary_value"), "1/0"),
            (("steps", 0, "terms", 0), [0, 0]),
            (("steps", 0, "foo"), "bar"),
            (("claim",), "sideways"),
            # degrees are JSON ints, rationals are strings:
            # int() and Fraction() would read these as valid
            (("steps", 0, "terms", 0, 0), 0.9),
            (("steps", 0, "terms", 0, 1), False),
            (("steps", 0, "terms", 0, 2), -1),
            (("steps", 0, "boundary_value"), 0),
            # a stale base-case block: the last step determines the base case
            (("base",), _STALE_BASE),
            # degrees outside [0, 40] x [0, 80], the range of any parsed text
            (("steps", 0, "terms", 0, 1), -1),
            (("steps", 0, "terms", 0, 0), 41),
            (("steps", 0, "terms", 0, 1), 81),
            (("steps", 0, "terms", 0, 0), -1),
            (("claim",), ...),
            # terms and values that to_dict never writes; read as data, the
            # repeated degree pair keeps its last coefficient and replays POSITIVE
            (("steps", 0, "terms"), [[0, 0, "5/1"], [0, 0, "-1/1"], [0, 2, "1/1"], [1, 1, "-2/1"]]),
            (("steps", 0, "terms"), [[0, 0, "-1/1"], [0, 1, "0/1"], [0, 2, "1/1"], [1, 1, "-2/1"]]),
            (("steps", 0, "terms"), [[1, 1, "-2/1"], [0, 2, "1/1"], [0, 0, "-1/1"]]),
            (("steps", 0, "terms", 1, 2), "2/4"),
            (("steps", 0, "boundary_value"), "0/7"),
        ],
    )
    def test_malformed_json_is_a_certificate_error(self, path, value):
        data = decide_sign(parse_expression("sinh(w) - w")).certificate.to_dict()
        if not path:
            data = value
        else:
            *parents, last = path
            owner = data
            for key in parents:
                owner = owner[key]
            if value is ...:
                del owner[last]
            else:
                owner[last] = value
        with pytest.raises(CertificateError):
            SignCertificate.from_dict(data)

    def test_integral_values_read_back_as_ints(self):
        data = decide_sign(parse_expression("sinh(w) - w")).certificate.to_dict()
        restored = SignCertificate.from_dict(json.loads(json.dumps(data)))
        values = [step.eval_at_zero() for step in restored.steps]
        values += [c for step in restored.steps for _, _, c in step.terms()]
        assert all(type(v) is int for v in values)

    def test_degree_past_the_cap_is_a_prompt_error(self):
        # a 10^6-degree base case would take its root count far longer to replay
        step = {"terms": [[0, 0, "1/1"], [0, 10**6, "1/1"]], "boundary_value": "2/1"}
        data = {"claim": "positive", "steps": [step]}
        with pytest.raises(CertificateError, match="degree"):
            SignCertificate.from_dict(data)

    def test_degree_at_the_cap_round_trips(self):
        # the largest t-degree a parsed text reaches: exp(40w) shifted by normalize
        certificate = decide_sign(parse_expression("exp(40*w) - exp(-40*w)")).certificate
        assert certificate.steps[0].t_degrees == (0, 80)
        restored = SignCertificate.from_dict(json.loads(json.dumps(certificate.to_dict())))
        assert restored == certificate
        assert replay(restored) is Outcome.POSITIVE

    @pytest.mark.parametrize("text, certificate, outcome", list(_printed_certificates()))
    def test_printed_certificates_read_back(self, text, certificate, outcome):
        restored = SignCertificate.from_dict(json.loads(json.dumps(certificate)))
        assert restored.steps[0] == normalize(parse_expression(text))
        assert replay(restored).value == outcome

    def test_tampered_boundary_rejected(self):
        # "-3/1" is canonical text, but not the step's value at w = 0: the
        # certificate is rejected when it is read, before any replay
        decision = decide_sign(parse_expression("exp(w) - 1 - w"))
        data = decision.certificate.to_dict()
        data["steps"][0]["boundary_value"] = "-3/1"
        with pytest.raises(CertificateError):
            SignCertificate.from_dict(data)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("boundary_value", "-3/1"),  # canonical, but not the value at w = 0
            ("boundary_value", "0/7"),  # the value, but not its canonical text
            ("terms", "reversed"),  # the same polynomial, out of canonical order
            ("extra", None),  # a key to_dict never writes
        ],
    )
    def test_a_rejected_step_names_the_keys_that_differ(self, key, value):
        data = decide_sign(parse_expression("sinh(w) - w")).certificate.to_dict()
        step = data["steps"][0]
        step[key] = step["terms"][::-1] if value == "reversed" else value
        with pytest.raises(CertificateError) as raised:
            SignCertificate.from_dict(data)
        named = re.search(r"to_dict's form in \[([^]]*)\]", str(raised.value))[1]
        assert named == repr(key)


class TestBattery:
    def test_every_member_certifies_with_expected_sign(self):
        report = verify_battery()
        assert report.all_certified
        for entry in report.entries:
            assert entry.decision.outcome is entry.expected
            assert entry.replay_matches

    def test_members_survive_numeric_sampling(self):
        for name, text, expected, _ in BATTERY:
            p = parse_expression(text)
            want_positive = expected is Outcome.POSITIVE
            for i in range(1, 401):
                value = mp_exppoly(p, mpmath.mpf(i) / 8)  # w up to 50
                assert (value > 0) == want_positive, f"{name} fails at w={i / 8}"

    def test_a_certificate_for_another_lemma_is_not_certified(self, monkeypatch):
        # d111_negativity decided as d1_case2_slope_at_u_zero: a valid
        # NEGATIVE certificate that replays, but for another polynomial
        texts = {name: text for name, text, _, _ in BATTERY}
        swap = {
            parse_expression(texts["d111_negativity"]):
                parse_expression(texts["d1_case2_slope_at_u_zero"]),
        }
        decide = prover.decide_sign
        monkeypatch.setattr(prover, "decide_sign", lambda p: decide(swap.get(p, p)))
        report = verify_battery()
        assert [e.name for e in report.entries if not e.certified] == ["d111_negativity"]
        swapped = next(e for e in report.entries if e.name == "d111_negativity")
        assert swapped.decision.outcome is Outcome.NEGATIVE
        assert not swapped.replay_matches
        # replay alone binds no claim: the certificate replays to its own sign
        assert replay(swapped.decision.certificate) is Outcome.NEGATIVE

    def test_report_shape(self):
        report = verify_battery()
        data = report.to_dict()
        assert data["all_certified"] is True
        assert len(data["entries"]) == len(BATTERY)
        assert all(e["outcome"] == e["expected"] for e in data["entries"])


# Claims pinned beside the battery: Fraction and decimal coefficients, sinh and
# cosh of w, 2w and 3w, negated and exp-shifted claims, and the longest chain
# (12 steps, the remainder of exp(w) after its Taylor polynomial of degree 11).
PINNED_CLAIMS = (
    "exp(w) - 1 - w - w^2/2 - w^3/6 - w^4/24 - w^5/120 - w^6/720 - w^7/5040"
    " - w^8/40320 - w^9/362880 - w^10/3628800 - w^11/39916800",
    "3/7*(exp(-2*w) - 1 + 2*w - 2*w^2)",
    "-5/9*exp(2*w)*(cosh(3*w) - 1 - 9/2*w^2 - 27/8*w^4)",
    "sinh(2*w) - 2*w - 4/3*w^3",
    "1/3*w*cosh(w) - 1/3*sinh(w)",
    "0.25*(w*cosh(2*w) - 1/2*sinh(2*w))",
    "exp(w)^2 - 4*exp(w) + 5",
    "w/7 + 2/9*(cosh(w) - 1) + 1/11*w^3*exp(w)",
    "cosh(w) - 1",
    "-(2/3)*(exp(3*w) - 1 - 3*w - 9/2*w^2)",
)
# sha256 of the JSON list of their to_dict() certificates, battery first
PINNED_DIGEST = "e3f4fa0aa5a7d88553430d29b6a9c31cc5f661300914cffcdeec5063e0c7ed67"


def test_certificates_are_pinned():
    # a change to the derivative chain that moves any step, boundary value or
    # claim of these certificates changes the digest
    texts = [text for _, text, _, _ in BATTERY] + list(PINNED_CLAIMS)
    certificates = []
    for text in texts:
        certificate = decide_sign(parse_expression(text)).certificate
        assert certificate is not None, text
        certificates.append(certificate.to_dict())
    assert max(len(c["steps"]) for c in certificates) == 12
    blob = json.dumps(certificates, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PINNED_DIGEST
