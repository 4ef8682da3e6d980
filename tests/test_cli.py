"""CLI behavior: subcommands, exit codes, formats, determinism."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tiltbound import cli, prover, regions
from tiltbound.cli import build_parser, main
from tiltbound.exppoly import U, V, W, parse_expression
from tiltbound.intervals import vexp
from tiltbound.prover import BATTERY
from tiltbound.regions import CATALOG
from tiltbound.tilted import d_expr

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def dist_file(tmp_path):
    path = tmp_path / "dist.json"
    path.write_text('{"atoms": [[1.0, 1.0]]}\n')
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_rademacher_mean(self, capsys, dist_file):
        code, out, _ = run_cli(capsys, "eval", "--dist", dist_file, "--h", "1", "--w", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["mean"] == pytest.approx(0.7615941559557649, abs=1e-15)

    def test_missing_file_is_a_clean_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "eval", "--dist", str(tmp_path / "nope.json"))
        assert code == 2
        assert "error:" in err

    def test_bad_weights_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"atoms": [[1.0, 0.7]]}\n')
        code, _, err = run_cli(capsys, "eval", "--dist", str(path))
        assert code == 2
        assert "error:" in err


MALFORMED_DISTRIBUTIONS = ('{"atoms": 5}', '{"atoms": [1.0]}', '{"atoms": [[null, 1.0]]}')


@pytest.mark.parametrize("command", ["eval", "bound-check"])
@pytest.mark.parametrize("text", MALFORMED_DISTRIBUTIONS)
def test_malformed_distribution_is_a_clean_error(capsys, tmp_path, command, text):
    # exit 2, not bound-check's "bound fails" status 1 and no traceback
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, command, "--dist", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


class TestBoundCheck:
    def test_margin_and_exit_zero(self, capsys, dist_file):
        code, out, _ = run_cli(capsys, "bound-check", "--dist", dist_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["margin"] == pytest.approx(0.4136070376880365, abs=1e-12)
        assert payload["holds"] is True

    def test_text_format(self, capsys, dist_file):
        code, out, _ = run_cli(capsys, "bound-check", "--dist", dist_file, "--format", "text")
        assert code == 0
        assert "margin:" in out


@pytest.mark.parametrize("command", ["eval", "bound-check"])
@pytest.mark.parametrize("suffix, argv", [("default", ()), ("h0.5_w2", ("--h", "0.5", "--w", "2"))])
def test_law_file_matches_golden(capsys, command, suffix, argv):
    # the committed law has an atom at 0, and atoms below, at and above each cap
    law = str(GOLDEN / "law_eight_atoms.json")
    code, out, _ = run_cli(capsys, command, "--dist", law, *argv)
    assert code == 0
    assert out == (GOLDEN / f"{command.replace('-', '_')}_{suffix}.json").read_text()


class TestProve:
    def test_positive_certificate(self, capsys):
        code, out, _ = run_cli(capsys, "prove", "--expr", "exp(w) - 1 - w")
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"] == "positive"
        assert payload["certificate"]["claim"] == "positive"

    def test_undetermined_exits_nonzero(self, capsys):
        code, out, _ = run_cli(capsys, "prove", "--expr", "exp(w) - 2")
        assert code == 1
        assert json.loads(out)["outcome"] == "undetermined"

    def test_long_chain_uses_the_prover_default_cap(self, capsys):
        # e^w minus its degree-19 Taylor polynomial needs a 20-step chain,
        # within the prover's fixed cap of 32
        taylor = " + ".join(f"1/{math.factorial(k)}*w^{k}" for k in range(20))
        code, out, _ = run_cli(capsys, "prove", "--expr", f"exp(w) - ({taylor})")
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"] == "positive"
        assert len(payload["certificate"]["steps"]) == 20

    @pytest.mark.parametrize(
        "name, text, exit_code",
        [(name, text, 0) for name, text, _, _ in BATTERY]
        + [
            # lemmas that left the battery, still certified by prove
            (
                "dtilde_diag_slope_at_corner",
                "1 + exp(w)^2*(w + 2*w*exp(w) - exp(w)^2*(1+w))",
                0,
            ),
            ("d1_case2_at_v_eq_w_u_zero", "(w-1)*w + exp(w)*w*(cosh(w) - 3*sinh(w))", 0),
            (
                "d1_case2_at_v_eq_w_u_eq_w",
                "w + (w + exp(w))*sinh(w) - exp(w)*(4*sinh(w) - 1)*cosh(w) - 1",
                0,
            ),
            ("exp_w_minus_3", "exp(w) - 3", 1),
            ("golden_ratio_base_case", "-exp(w)^2 + exp(w) + 1", 1),
            # t^2 - 4t + 5 has no real root, but q(1 + s) = s^2 - 2s + 2 has two
            # sign variations: the base case splits (1, oo) once
            ("split_base_case", "exp(w)^2 - 4*exp(w) + 5", 0),
        ],
    )
    def test_stdout_matches_golden(self, capsys, name, text, exit_code):
        code, out, _ = run_cli(capsys, "prove", "--expr", text)
        assert code == exit_code
        assert out == (GOLDEN / f"prove_{name}.json").read_text()

    def test_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "prove", "--expr", "exp(w^2)")
        assert code == 2
        assert "error:" in err

    def test_trailing_input_is_a_parse_error(self, capsys):
        code, out, err = run_cli(capsys, "prove", "--expr", "w)")
        assert code == 2 and out == ""
        assert err == "error: trailing input at ')'\n"

    @pytest.mark.parametrize("text", ["\u00b2", "\u0663*w"])
    def test_numbers_are_ascii_digits(self, capsys, text):
        # the superscript two leaked int()'s error, and the Arabic-Indic
        # three was proven as 3*w
        code, out, err = run_cli(capsys, "prove", "--expr", text)
        assert code == 2 and out == ""
        assert err == f"error: unexpected character {text[0]!r} at position 0\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("(1+w+exp(w))^200", "error: ^200: exponent over 64 or over 256 bits\n"),
            ("exp(w)^100000 - 2", "error: ^100000: exponent over 64 or over 256 bits\n"),
            ("exp(41*w) - 2", "error: a monomial w^i exp(w)^k with i + |k| above 40\n"),
            ("(1+w+exp(w))^32", "error: a product of 153 by 153 terms: over 4096 pairs\n"),
            # int() reads at most 4,300 digits, and its error named an
            # interpreter setting
            pytest.param(
                "w^" + "9" * 5000,
                "error: ^" + "9" * 5000 + ": exponent over 64 or over 256 bits\n",
                id="exponent-of-5000-digits",
            ),
            pytest.param(
                "9" * 5000 + "*w",
                "error: a number of 5000 digits: too long\n",
                id="number-of-5000-digits",
            ),
        ],
    )
    def test_capped_input_is_a_parse_error(self, capsys, text, message):
        # these took 15 s to parse, or the prover over 100 s to decide
        code, out, err = run_cli(capsys, "prove", "--expr", text)
        assert code == 2 and out == ""
        assert err == message

    @pytest.mark.parametrize(
        "argv",
        [("--expr", "(" * 400 + "w" + ")" * 400), ("--expr=" + "-" * 1200 + "w",)],
        ids=["400-parentheses", "1200-unary-minus"],
    )
    def test_deep_nesting_is_a_parse_error(self, capsys, argv):
        # too deep for the recursive descent: bad input (exit 2), not the
        # status 1 that means UNDETERMINED, and no traceback
        code, out, err = run_cli(capsys, "prove", *argv)
        assert code == 2 and out == ""
        assert err == "error: expression nests too deeply\n"


class TestExtremal:
    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "extremal", "--sigma", "0.5", "--sigma", "0.1", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "sigma,sup,ratio,bound_factor,gap"
        assert len(lines) == 3

    def test_subnormal_sigma_squared_is_a_clean_error(self, capsys):
        code, _, err = run_cli(capsys, "extremal", "--sigma", "1e-160")
        assert code == 2
        assert "error:" in err

    def test_subnormal_bound_scale_is_a_clean_error(self, capsys):
        # sinh(hw)/w = 1e-320 is subnormal: exit 2 with one error line, not a
        # scan of ratios 8.7% above the factor and 0.0
        code, out, err = run_cli(capsys, "extremal", "--h", "1e-320")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command, w", [("extremal", "0.3"), ("report", "0.5")])
    def test_default_sigmas_are_fractions_of_w(self, capsys, command, w):
        # the default scan is w times 0.5, 0.1, 0.01 and 0.001, so it meets
        # 0 < sigma < w at every w; fixed sigmas made both commands exit 2
        code, out, err = run_cli(capsys, command, "--w", w)
        assert code == 0 and err == ""
        payload = json.loads(out)
        scan = payload["extremal"] if command == "report" else payload
        sigmas = [float(w) * s for s in (0.5, 0.1, 0.01, 0.001)]
        assert [row["sigma"] for row in scan["rows"]] == sigmas

    def test_json_includes_argmax(self, capsys):
        code, out, _ = run_cli(capsys, "extremal", "--sigma", "0.1")
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0]["argmax_atoms"]

    @pytest.mark.parametrize(
        "golden, argv",
        [
            ("extremal_default.json", []),
            (
                "extremal_h0.5_w2_csv.csv",
                # from near the cap w = 2 down to a pair weight of 2.5e-21
                ["--h", "0.5", "--w", "2", "--sigma", "1.5", "--sigma", "0.2"]
                + ["--sigma", "1e-5", "--sigma", "1e-10", "--format", "csv"],
            ),
            # the best pair of the first two rows lies past 4w = 20
            ("extremal_h2_w5.json", ["--h", "2", "--w", "5"]),
        ],
    )
    def test_stdout_matches_golden(self, capsys, golden, argv):
        code, out, _ = run_cli(capsys, "extremal", *argv)
        assert code == 0
        assert out == (GOLDEN / golden).read_text()


class TestVerifyProof:
    def test_small_run_passes_and_is_deterministic(self, capsys):
        argv = ("verify-proof", "--box", "0.3:2.0")
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2  # byte-identical reports
        payload = json.loads(out1)
        assert payload["all_passed"] is True
        assert payload["battery"]["all_certified"] is True
        assert {r["status"] for r in payload["regions"]} == {"certified"}

    @pytest.mark.parametrize(
        "golden, argv, exit_code",
        [
            ("verify_proof_default.json", (), 0),
            ("verify_proof_box_0.3_2.0.json", ("--box", "0.3:2.0"), 0),
            # a failing run: the links that need lo > 0 fail, with no box
            ("verify_proof_box_0_1.json", ("--box", "0:1"), 1),
        ],
    )
    def test_stdout_matches_golden(self, capsys, golden, argv, exit_code):
        code, out, _ = run_cli(capsys, "verify-proof", *argv)
        assert code == exit_code
        assert out == (GOLDEN / golden).read_text()

    def test_origin_cube_fails_honestly(self, capsys):
        # d(0, 0, 0) = 0, so a cube touching the origin cannot be certified;
        # the run must say so, name no box and exit nonzero
        code, out, _ = run_cli(capsys, "verify-proof", "--box", "0:1.0")
        assert code == 1
        payload = json.loads(out)
        assert payload["all_passed"] is False
        assert {r["status"] for r in payload["regions"]} == {"undetermined"}
        assert all(r["undecided_boxes"] == [] for r in payload["regions"])

    def test_derived_case2_fails_with_its_link(self, capsys):
        # on a cube reaching u = w = 0 both case-2 links are exact and fail
        # without a box (d1 = 0 at w = 0 and d(0, w, w) = 0), so the case-2
        # entry derived from them cannot certify and has no leftovers
        code, out, _ = run_cli(capsys, "verify-proof", "--box", "0:1")
        assert code == 1
        payload = json.loads(out)
        assert payload["all_passed"] is False
        checks = {c["name"]: c for c in payload["case_structure"]["checks"]}
        region = {r["expression"]: r for r in payload["regions"]}["d_case2"]
        assert region["method"] == "derived"
        assert region["links"] == ["case2_decreasing_in_v", "boundary_v_eq_w"]
        assert not checks["case2_decreasing_in_v"]["passed"]
        assert checks["case2_decreasing_in_v"]["detail"].endswith("the cube starts at w = 0.0")
        assert not checks["boundary_v_eq_w"]["passed"]
        assert checks["boundary_v_eq_w"]["detail"].endswith("the cube starts at u = 0.0")
        assert region["status"] == "undetermined"
        assert region["boxes_evaluated"] == 0 and region["undecided_boxes"] == []

    def test_derived_case1_fails_with_its_links(self, capsys):
        # at the origin the slope at v = u vanishes and d(0, 0, 0) = 0, so
        # the case-1 entry derived from those links cannot certify; the
        # links are exact, so it fails with no box
        code, out, _ = run_cli(capsys, "verify-proof", "--box", "0:1")
        assert code == 1
        payload = json.loads(out)
        checks = {c["name"]: c for c in payload["case_structure"]["checks"]}
        region = {r["expression"]: r for r in payload["regions"]}["d_case1"]
        assert region["method"] == "derived"
        assert region["links"] == [
            "case1_concavity_in_v", "case1_slope_at_v_eq_u", "case1_diagonal"
        ]
        # so(w) >= 1 holds at w = 0 as a limit, so concavity needs no lo > 0
        assert checks["case1_concavity_in_v"]["passed"]
        assert "the cube starts" not in checks["case1_concavity_in_v"]["detail"]
        assert not checks["case1_slope_at_v_eq_u"]["passed"]
        assert checks["case1_slope_at_v_eq_u"]["detail"].endswith("the cube starts at w = 0.0")
        assert not checks["case1_diagonal"]["passed"]
        assert region["status"] == "undetermined"
        assert region["boxes_evaluated"] == 0 and region["undecided_boxes"] == []

    def test_derived_case2_counts_its_links(self, capsys):
        # both case-2 links are exact, so the derived entry evaluates no box
        code, out, _ = run_cli(capsys, "verify-proof", "--box", "0.3:2.0")
        assert code == 0
        payload = json.loads(out)
        region = {r["expression"]: r for r in payload["regions"]}["d_case2"]
        assert region["boxes_evaluated"] == 0
        assert region["status"] == "certified" and region["undecided_boxes"] == []


@pytest.mark.parametrize(
    "box, exit_code", [("0.3:2.0", 0), ("0:1", 1), ("0.01:0.1", 0)]
)
def test_exit_status_is_every_link_certified(capsys, box, exit_code):
    # one pass rule: the battery certified, every structure check passed and
    # every region certified with no undecided box; nothing is excused
    code, out, _ = run_cli(capsys, "verify-proof", "--box", box)
    payload = json.loads(out)
    regions_certified = all(
        r["status"] == "certified" and not r["undecided_boxes"] for r in payload["regions"]
    )
    passed = (
        payload["battery"]["all_certified"]
        and payload["case_structure"]["all_passed"]
        and regions_certified
    )
    assert code == exit_code == (0 if passed else 1)
    assert payload["all_passed"] is passed
    undecided = [b for r in payload["regions"] for b in r["undecided_boxes"]]
    assert all(set(b) == {"u", "v", "w", "case"} for b in undecided)


def _masked_cube(payload: dict) -> dict:
    """The report with the cube's bounds and each detail's "starts at" value masked."""
    for region in payload["regions"]:
        region["region"].update(u=None, v=None, w=None)
    for check in payload["case_structure"]["checks"]:
        check["detail"] = re.sub(r"(the cube starts at [uw] = )\S+", r"\1LO", check["detail"])
    return payload


def test_wide_cube_gives_the_default_verdict(capsys):
    # each identity is exact and each lemma holds on all of w > 0, so the
    # cube names the region and gates lo > 0, and checks nothing else
    code, out, _ = run_cli(capsys, "verify-proof", "--box", "1e-300:1e300")
    assert code == 0
    wide, default = json.loads(out), json.loads((GOLDEN / "verify_proof_default.json").read_text())
    assert wide != default
    assert _masked_cube(wide) == _masked_cube(default)


def test_cube_near_the_origin_is_negative_where_it_certifies():
    # --box 0.01:0.1 certifies every link; d itself must then be negative
    # at every grid point of the case-1 and case-2 parts of that cube
    axis = [0.01 + 0.09 * k / 24 for k in range(25)]
    points = [(u, v, w) for u in axis for v in axis for w in axis]
    case1 = [d_expr(u, v, w) for u, v, w in points if w <= u <= v]
    case2 = [d_expr(u, v, w) for u, v, w in points if u <= w <= v]
    assert case1 and case2
    assert max(case1) < 0.0 and max(case2) < 0.0


def test_a_certificate_that_fails_to_replay_fails_the_verdict(capsys, monkeypatch):
    # replay raising CertificateError is a failed replay: the entry reads
    # replay_matches false, the battery is not certified and verify-proof exits 1
    def failing(certificate):
        raise prover.CertificateError("stored steps or claim and re-derivation differ")

    monkeypatch.setattr(prover, "replay", failing)
    report = prover.verify_battery()
    assert not report.all_certified
    assert not any(entry.replay_matches or entry.certified for entry in report.entries)
    code, out, _ = run_cli(capsys, "verify-proof")
    assert code == 1
    payload = json.loads(out)
    assert payload["all_passed"] is False and payload["battery"]["all_certified"] is False
    entries = payload["battery"]["entries"]
    assert [entry["replay_matches"] for entry in entries] == [False] * len(BATTERY)


class TestVerifyProofDefaults:
    def test_full_default_run_passes(self, capsys):
        # the stock configuration: battery, case structure, and both case
        # regions on [0.05, 8]^3; everything must certify
        code, out, _ = run_cli(capsys, "verify-proof")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert payload["battery"]["all_certified"] is True
        assert payload["case_structure"]["all_passed"] is True
        for region in payload["regions"]:
            assert region["status"] == "certified"
            assert region["undecided_boxes"] == []

    def test_verdict_reads_no_interval_enclosure(self, capsys, monkeypatch):
        # every link is exact: with bisection and the enclosure routine
        # disabled, the default run still passes and evaluates no box
        def unreachable(*args, **kwargs):
            raise AssertionError("the verdict path evaluated an interval enclosure")

        monkeypatch.setattr(regions, "certify_negative", unreachable)
        monkeypatch.setattr(regions, "_enclosure", unreachable)
        code, out, _ = run_cli(capsys, "verify-proof")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        for region in payload["regions"]:
            assert region["boxes_evaluated"] == 0
            assert region["undecided_boxes"] == []


class TestReport:
    def test_aggregate_shape(self, capsys):
        flags = ("--box", "0.3:2.0")
        code, out, _ = run_cli(capsys, "report", *flags, "--sigma", "0.1")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["battery", "case_structure", "regions", "extremal", "all_passed"]
        # verify-proof's payload plus extremal's, each from its own command's pipeline
        _, verify, _ = run_cli(capsys, "verify-proof", *flags)
        verify = json.loads(verify)
        for key in ("battery", "case_structure", "regions", "all_passed"):
            assert payload[key] == verify[key]
        _, scan, _ = run_cli(capsys, "extremal", "--sigma", "0.1")
        assert payload["extremal"] == json.loads(scan)

    def test_bad_sigma_fails_before_the_verdict(self, capsys, monkeypatch):
        decided = []
        decide = prover.decide_sign

        def counting_decide(p):
            decided.append(p)
            return decide(p)

        monkeypatch.setattr(prover, "decide_sign", counting_decide)
        code, out, err = run_cli(capsys, "report", "--sigma", "2")
        assert (code, out, err) == (2, "", "error: scan requires 0 < sigma < w\n")
        assert decided == []


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-proof", "--box", "0.3:2.0"),
        ("extremal", "--sigma", "0.1"),
        ("report", "--box", "0.3:2.0", "--sigma", "0.1"),
    ],
    ids=["verify-proof", "extremal", "report"],
)
def test_text_format_prints_nested_values_as_json(capsys, argv):
    # one "key: value" line per key of the JSON payload; a nested value is
    # one line of JSON, a scalar prints as before
    _, out, _ = run_cli(capsys, *argv)
    payload = json.loads(out)
    _, text, _ = run_cli(capsys, *argv, "--format", "text")
    lines = text.splitlines()
    assert [line.split(": ", 1)[0] for line in lines] == list(payload)
    for line in lines:
        key, value = line.split(": ", 1)
        if isinstance(payload[key], (dict, list)):
            assert json.loads(value) == payload[key]
        else:
            assert value == str(payload[key])


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--h", "800", "--w", "1"),
        ("bound-check", "--h", "800", "--w", "1"),
        ("extremal", "--h", "710", "--w", "1"),
        ("report", "--h", "710", "--w", "1", "--box", "0.3:2.0"),
    ],
)
def test_float_overflow_is_a_clean_error(capsys, dist_file, argv):
    # exp and sinh overflow past hw = 709.8: exit 2 with an error line, not
    # a traceback, and not bound-check's "bound fails" status 1
    if argv[0] in ("eval", "bound-check"):
        argv += ("--dist", dist_file)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "atoms, argv",
    [
        ("[[0, 0.5], [1e10, 0.5]]", ("eval", "--h", "1e300", "--w", "1e300")),  # mean NaN
        ("[[0, 0.5], [1e10, 0.5]]", ("bound-check", "--h", "1e300", "--w", "1e300")),
        ("[[0, 0.5], [1e10, 0.5]]", ("bound-check", "--h", "1e300", "--w", "1e-300")),  # bound inf
        ("[[0, 0.5], [1e200, 0.5]]", ("bound-check",)),  # bound inf, mean finite
    ],
)
def test_non_finite_mean_or_bound_is_a_clean_error(capsys, tmp_path, atoms, argv):
    # each command once printed NaN or Infinity (bound-check even "holds": true
    # beside an infinite bound) instead of exiting 2 with an error line
    path = tmp_path / "wide.json"
    path.write_text(f'{{"atoms": {atoms}}}')
    code, out, err = run_cli(capsys, *argv, "--dist", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ("prove", "--expr", "w", "--depth", "18"),
            ("prove", "--expr", "w", "--w", "2"),
            ("verify-proof", "--w", "2"),
            ("eval", "--dist", "d.json", "--box", "0.1:1"),
            ("bound-check", "--dist", "d.json", "--depth", "3"),
            ("extremal", "--depth", "3"),
            ("report", "--format", "csv"),
            ("prove", "--expr", "w", "--h", "2"),
        ],
    )
    def test_unread_flags_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify-proof", "report"])
    @pytest.mark.parametrize("depth", ["-1", "-18"])
    def test_bad_depth_is_rejected(self, capsys, command, depth):
        # no link bisects, so neither command has a --depth flag: any value
        # is an unread flag, rejected like a bad --box
        with pytest.raises(SystemExit) as exc:
            main([command, "--depth", depth])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "unrecognized arguments: --depth" in err


    @pytest.mark.parametrize("command", ["verify-proof", "report"])
    @pytest.mark.parametrize("box", ["1:0", "-1:1", "nan:1", "a:b", "1", "0.05:inf", "0:1e400"])
    def test_bad_box_is_rejected_before_the_verdict(self, capsys, monkeypatch, command, box):
        # "--box=" so that "-1:1" reaches the box parser, not argparse's option matcher
        derivations = []
        derive = prover._derive
        monkeypatch.setattr(prover, "_derive", lambda p: derivations.append(p) or derive(p))
        with pytest.raises(SystemExit) as exc:
            main([command, f"--box={box}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument --box:" in captured.err
        assert derivations == []


# README's flags table: per subcommand, each option string in order with its
# (default, choices, required, action)
_TILT = [("--h", (1.0, None, False, "store")), ("--w", (1.0, None, False, "store"))]
_FORMAT = ("--format", ("json", ("json", "text"), False, "store"))
_BOX = ("--box", ((0.05, 8.0), None, False, "store"))
_SIGMA = ("--sigma", (None, None, False, "append"))
_DIST = ("--dist", (None, None, True, "store"))
FLAGS = {
    "eval": [*_TILT, _FORMAT, _DIST],
    "bound-check": [*_TILT, _FORMAT, _DIST],
    "prove": [_FORMAT, ("--expr", (None, None, True, "store"))],
    "verify-proof": [_FORMAT, _BOX],
    "extremal": [*_TILT, ("--format", ("json", ("json", "csv", "text"), False, "store")), _SIGMA],
    "report": [*_TILT, _FORMAT, _BOX, _SIGMA],
}
ACTIONS = {argparse._StoreAction: "store", argparse._AppendAction: "append"}


def test_each_subcommand_has_its_flags():
    # the flags, their order, defaults and choices that every subcommand has
    # had; a drift in the command table fails here
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(subparsers.choices) == list(FLAGS)
    for name, flags in FLAGS.items():
        actions = [a for a in subparsers.choices[name]._actions if a.dest != "help"]
        seen = [
            (a.option_strings[0], (a.default, a.choices, a.required, ACTIONS[type(a)]))
            for a in actions
        ]
        assert all(len(a.option_strings) == 1 for a in actions), name
        assert seen == flags, name


class _ClosedStdout:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-proof",),
        ("verify-proof", "--format", "text"),
        ("extremal", "--format", "csv"),
        ("prove", "--expr", "sinh(w) - w"),
    ],
    ids=["verify-proof", "verify-proof-text", "extremal-csv", "prove"],
)
def test_a_closed_stdout_exits_2(capsys, monkeypatch, argv):
    # writing the payload is inside the error handler: a closed pipe is one
    # error line and exit 2, not a traceback
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    code = main(list(argv))
    assert code == 2
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize(
    "golden, argv, exit_code",
    [("verify_proof_default.json", (), 0), ("verify_proof_box_0_1.json", ("--box", "0:1"), 1)],
)
def test_a_fresh_process_prints_the_golden(golden, argv, exit_code):
    # python -m runs the module's __main__ line, which exits with main's status
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    run = subprocess.run(
        [sys.executable, "-S", "-m", "tiltbound.cli", "verify-proof", *argv],
        capture_output=True, text=True, env=env,
    )
    assert (run.returncode, run.stderr) == (exit_code, "")
    assert run.stdout == (GOLDEN / golden).read_text()


class TestSharedParser:
    def test_second_call_builds_no_parser_and_rederives_the_battery(self, capsys, monkeypatch):
        # main reuses its parser and nothing else: every call decides and
        # replays all 8 battery lemmas, 16 derivations
        parsers, derivations = [], []
        init, derive = argparse.ArgumentParser.__init__, prover._derive

        def counting_init(self, *args, **kwargs):
            parsers.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        def counting_derive(p):
            derivations.append(p)
            return derive(p)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        monkeypatch.setattr(prover, "_derive", counting_derive)
        build_parser()  # public, and fresh: the counter sees the top parser and 6 subcommands
        assert len(parsers) == 7
        cli._parser.cache_clear()
        counts, outputs = [], []
        for _ in range(2):
            parsers.clear()
            derivations.clear()
            code, out, _ = run_cli(capsys, "verify-proof")
            assert code == 0
            counts.append((len(parsers), len(derivations)))
            outputs.append(out)
        assert counts == [(7, 16), (0, 16)]
        assert outputs[0] == outputs[1] == (GOLDEN / "verify_proof_default.json").read_text()

    @pytest.mark.parametrize(
        "first, second, golden",
        [
            (
                ("extremal", "--sigma", "0.3"),
                ("extremal",),
                "extremal_default.json",
            ),
            (
                ("verify-proof", "--box", "0.7:5"),
                ("verify-proof",),
                "verify_proof_default.json",
            ),
            (
                ("verify-proof", "--box", "0.3:2.0", "--format", "text"),
                ("verify-proof", "--box", "0.3:2.0"),
                "verify_proof_box_0.3_2.0.json",
            ),
        ],
        ids=["sigma", "box", "format"],
    )
    def test_no_state_carries_between_calls(self, capsys, first, second, golden):
        # a value parsed by one call (an appended sigma, a box, a format)
        # is not the default of the next
        _, before, _ = run_cli(capsys, *first)
        code, out, _ = run_cli(capsys, *second)
        assert code == 0
        assert out == (GOLDEN / golden).read_text() != before


# the catalog forms the three identity builders expand at (U, V, W)
EXPANDED_FORMS = ("d_case1", "dv2_case1", "d_case2", "d1_case2")


class TestSharedConstants:
    """What verify-proof keeps between calls: the parsed battery texts and the
    expanded catalog forms, built on first use; nothing derived from them."""

    def test_battery_texts_are_parsed_once_per_process(self, capsys, monkeypatch):
        parsed = []

        def counting_parse(text):
            parsed.append(text)
            return parse_expression(text)

        monkeypatch.setattr(prover, "parse_expression", counting_parse)
        prover._lemma.cache_clear()
        for _ in range(3):
            assert run_cli(capsys, "verify-proof")[0] == 0
        assert parsed == [text for _, text, _, _ in BATTERY]

    def test_catalog_forms_are_expanded_once_per_process(self, capsys, monkeypatch):
        calls = {name: 0 for name in EXPANDED_FORMS}

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        for name in EXPANDED_FORMS:
            form = CATALOG[name]
            monkeypatch.setitem(CATALOG, name, form._replace(fn=counting(name, form.fn)))
        for _ in range(3):
            code, out, _ = run_cli(capsys, "verify-proof")
            assert code == 0
            assert out == (GOLDEN / "verify_proof_default.json").read_text()
        assert calls == {name: 1 for name in EXPANDED_FORMS}

    def test_every_call_derives_expands_and_prints(self, capsys, monkeypatch):
        derivations, built = [], []
        derive = prover._derive

        def counting_derive(p):
            derivations.append(p)
            return derive(p)

        def counting(link):
            def identities(lemmas):
                built.append(link.name)
                return link.identities(lemmas)
            return link._replace(identities=identities)

        monkeypatch.setattr(prover, "_derive", counting_derive)
        monkeypatch.setattr(
            regions, "LINKS",
            tuple(link if link.identities is None else counting(link) for link in regions.LINKS),
        )
        expanding = [link.name for link in regions.LINKS if link.identities is not None]
        assert len(expanding) == 3
        for _ in range(3):
            derivations.clear()
            built.clear()
            code, out, _ = run_cli(capsys, "verify-proof")
            assert code == 0
            assert (len(derivations), built) == (16, expanding)
            assert out == (GOLDEN / "verify_proof_default.json").read_text()

    def test_a_slip_after_a_warm_call_fails_its_links(self, capsys, monkeypatch):
        # the expansion is keyed by the form, so a patched entry is expanded afresh
        assert run_cli(capsys, "verify-proof")[0] == 0
        form = CATALOG["d_case1"]
        slipped = form._replace(fn=lambda u, v, w: form.fn(u, v, w) + 0.001 * u * v * vexp(-v))
        monkeypatch.setitem(CATALOG, "d_case1", slipped)
        code, out, _ = run_cli(capsys, "verify-proof")
        assert code == 1
        failed = {c["name"] for c in json.loads(out)["case_structure"]["checks"] if not c["passed"]}
        assert failed == {"case1_concavity_in_v", "case1_slope_at_v_eq_u"}
        monkeypatch.undo()
        code, out, _ = run_cli(capsys, "verify-proof")
        assert code == 0
        assert out == (GOLDEN / "verify_proof_default.json").read_text()

    def test_shared_values_are_not_mutated(self, capsys):
        for _ in range(3):
            assert run_cli(capsys, "verify-proof")[0] == 0
        lemma_hits = prover._lemma.cache_info().hits
        for _, text, _, _ in BATTERY:
            assert prover._lemma(text) == parse_expression(text)
        assert prover._lemma.cache_info().hits == lemma_hits + len(BATTERY)
        expanded_hits = regions._expanded.cache_info().hits
        for name in EXPANDED_FORMS:
            assert regions._expanded(CATALOG[name]) == CATALOG[name].fn(U, V, W)
        assert regions._expanded.cache_info().hits == expanded_hits + len(EXPANDED_FORMS)
        # the battery hands out the shared polynomial itself
        entries = prover.verify_battery().entries
        assert all(e.poly is prover._lemma(e.expression) for e in entries)
