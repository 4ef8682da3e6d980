"""CLI behavior: subcommands, exit codes, formats, determinism."""

import json
import math
from pathlib import Path

import pytest

from tiltbound import regions
from tiltbound.cli import main
from tiltbound.prover import BATTERY
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
                # the last sigma is below the two-pair cut-off of sup_symmetric
                ["--h", "0.5", "--w", "2", "--sigma", "1.5", "--sigma", "0.2"]
                + ["--sigma", "1e-5", "--sigma", "1e-10", "--format", "csv"],
            ),
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


def test_cube_near_the_origin_is_negative_where_it_certifies():
    # --box 0.01:0.1 certifies every link; d itself must then be negative
    # at every grid point of the case-1 and case-2 parts of that cube
    axis = [0.01 + 0.09 * k / 24 for k in range(25)]
    points = [(u, v, w) for u in axis for v in axis for w in axis]
    case1 = [d_expr(u, v, w) for u, v, w in points if w <= u <= v]
    case2 = [d_expr(u, v, w) for u, v, w in points if u <= w <= v]
    assert case1 and case2
    assert max(case1) < 0.0 and max(case2) < 0.0


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
        assert list(payload) == [
            "factor_comparison", "battery", "case_structure", "regions", "extremal", "all_passed"
        ]
        ratios = [row["ratio"] for row in payload["factor_comparison"]]
        assert ratios == sorted(ratios, reverse=True)
        # the verify-proof sections come from the same pipeline
        _, verify, _ = run_cli(capsys, "verify-proof", *flags)
        verify = json.loads(verify)
        for key in ("battery", "case_structure", "regions", "all_passed"):
            assert payload[key] == verify[key]


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
