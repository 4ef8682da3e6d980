"""Command-line front end.

Subcommands map one-to-one onto the library layers:

    eval          tilted mean of a distribution file at given (h, w)
    bound-check   mean against the symmetric sharp bound, with margin
    prove         sign certificate for an exp-polynomial inequality
    verify-proof  inequality battery + case structure + region certification
    extremal      sharpness scan sup/sigma^2 toward sinh(hw)/w
    report        aggregate JSON of everything above

``verify-proof`` reports d_case1 and d_case2 as derived from their
case-structure links (``CASE1_LINKS`` and ``CASE2_LINKS``): each entry's
status, box count and undecided boxes are those of its links, on the same
cube.

All reports are deterministic: the same inputs produce byte-identical
output.  Exit status is 0 exactly when every executed check passed: the
battery certified and every case-structure check passed.  A region with
an undecided box is never certified, so a passing run has none.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .exppoly import ExprSyntaxError, parse_expression
from .extremal import ratio_limit_scan, scan_to_csv
from .prover import Outcome, decide_sign, verify_battery
from .regions import CATALOG, BoxRegion, verify_case_structure
from .regions import certify_negative  # noqa: F401  (bench/tracing.py wraps cli.certify_negative)
from .tilted import (
    SymmetricDiscreteDistribution,
    TiltParams,
    check_bound,
    symmetric_factor,
    tilted_mean,
    zero_mean_factor,
)

DEFAULT_BOX = (0.05, 8.0)
DEFAULT_DEPTH = 18
DEFAULT_SIGMAS = (0.5, 0.1, 0.01, 0.001)


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "text":
        for key, value in payload.items():
            print(f"{key}: {value}")
    else:
        print(json.dumps(payload, indent=2))


def _load_distribution(path: str) -> SymmetricDiscreteDistribution:
    with open(path, "r", encoding="utf-8") as handle:
        return SymmetricDiscreteDistribution.from_json(handle.read())


def _parse_box(text: str) -> tuple[float, float]:
    try:
        lo_text, hi_text = text.split(":")
        lo, hi = float(lo_text), float(hi_text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected --box lo:hi") from exc
    if not (0 <= lo < hi):
        raise argparse.ArgumentTypeError("box bounds must satisfy 0 <= lo < hi")
    return lo, hi


def _cmd_eval(args) -> int:
    params = TiltParams(args.h, args.w)
    dist = _load_distribution(args.dist)
    _emit({"h": args.h, "w": args.w, "mean": tilted_mean(dist, params)}, args.format)
    return 0


def _cmd_bound_check(args) -> int:
    params = TiltParams(args.h, args.w)
    dist = _load_distribution(args.dist)
    result = check_bound(dist, params)
    payload = {"h": args.h, "w": args.w}
    payload.update(result.to_dict())
    _emit(payload, args.format)
    return 0 if result.holds else 1


def _cmd_prove(args) -> int:
    poly = parse_expression(args.expr)
    decision = decide_sign(poly)
    payload = {
        "expression": args.expr,
        "outcome": decision.outcome.value,
        "reason": decision.reason,
        "certificate": decision.certificate.to_dict() if decision.certificate else None,
    }
    _emit(payload, args.format)
    return 0 if decision.outcome is not Outcome.UNDETERMINED else 1


# The structure checks whose certifications derive d < 0 on each case.  On
# case 1, d is concave in v, so it lies below its tangent at v = u, whose
# slope and value (the diagonal) are negative.  On case 2, d decreases in v,
# so it is at most its value on the negative face v = w.
CASE1_LINKS = ("case1_concavity_in_v", "case1_slope_at_v_eq_u", "case1_diagonal")
CASE2_LINKS = ("case2_decreasing_in_v", "boundary_v_eq_w")

# Links certified on a plane v = u or v = w report their leftovers there.
_LINK_PLANES = {"case1_slope_at_v_eq_u": "u", "boundary_v_eq_w": "w"}


def _region_reports(box: tuple[float, float], depth: int, structure) -> list[dict]:
    """d_case1 and d_case2, each derived from its links in ``structure``."""

    def derived(name: str, links: tuple[str, ...]) -> dict:
        checks = [structure.check(link) for link in links]
        bisected = [c for c in checks if c.result is not None]
        leftovers = [
            b.replace("v", b.interval(_LINK_PLANES[c.name])) if c.name in _LINK_PLANES else b
            for c in bisected
            for b in c.result.undecided
        ]
        return {
            "expression": name,
            "region": BoxRegion(u=box, v=box, w=box, case=CATALOG[name].case).to_dict(),
            "depth": depth,
            "method": "derived",
            "links": list(links),
            "status": "certified" if all(c.passed for c in checks) else "undetermined",
            "boxes_evaluated": sum(c.result.boxes_evaluated for c in bisected),
            "undecided_boxes": [b.to_dict() for b in leftovers],
        }

    return [derived("d_case1", CASE1_LINKS), derived("d_case2", CASE2_LINKS)]


def _verify(box: tuple[float, float], depth: int) -> tuple[dict, bool]:
    """Battery, case structure and regions: their payload and ``all_passed``."""
    battery = verify_battery()
    structure = verify_case_structure(lo=box[0], hi=box[1], max_depth=depth)
    payload = {
        "battery": battery.to_dict(),
        "case_structure": structure.to_dict(),
        "regions": _region_reports(box, depth, structure),
    }
    return payload, battery.all_certified and structure.all_passed


def _cmd_verify_proof(args) -> int:
    payload, all_passed = _verify(args.box, args.depth)
    payload["all_passed"] = all_passed
    _emit(payload, args.format)
    return 0 if all_passed else 1


def _cmd_extremal(args) -> int:
    rows = ratio_limit_scan(TiltParams(args.h, args.w), args.sigma or list(DEFAULT_SIGMAS))
    if args.format == "csv":
        sys.stdout.write(scan_to_csv(rows))
        return 0
    detail_rows = []
    for row in rows:
        entry = row.to_dict()
        entry["argmax_atoms"] = [[x, p] for x, p in row.atoms]
        detail_rows.append(entry)
    _emit({"h": args.h, "w": args.w, "rows": detail_rows}, args.format)
    return 0


def _cmd_report(args) -> int:
    params = TiltParams(args.h, args.w)
    factor_rows = []
    for hw in (1.0, 5.0, 10.0, 20.0):
        probe = TiltParams(hw, 1.0)
        factor_rows.append({"hw": hw, "ratio": symmetric_factor(probe) / zero_mean_factor(probe)})
    proof, all_passed = _verify(args.box, args.depth)
    rows = ratio_limit_scan(params, args.sigma or list(DEFAULT_SIGMAS))
    payload = {
        "factor_comparison": factor_rows,
        **proof,
        "extremal": {"h": args.h, "w": args.w, "rows": [r.to_dict() for r in rows]},
        "all_passed": all_passed,
    }
    _emit(payload, args.format)
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiltbound",
        allow_abbrev=False,
        description="Verification toolkit for sharp bounds on tilted-capped means "
        "of symmetric distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        # No prefix matching, or "--h" on a subcommand without it means "--help".
        return sub.add_parser(name, help=help, allow_abbrev=False)

    def add_flags(p, tilt=False, region=False, dist=False, expr=False, sigmas=False, csv=False):
        if tilt:
            p.add_argument("--h", type=float, default=1.0, help="tilt rate (default 1)")
            p.add_argument("--w", type=float, default=1.0, help="cap level (default 1)")
        formats = ("json", "csv", "text") if csv else ("json", "text")
        p.add_argument("--format", choices=formats, default="json", help="output format")
        if region:
            p.add_argument("--depth", type=int, default=DEFAULT_DEPTH, help="bisection depth cap")
            p.add_argument(
                "--box",
                type=_parse_box,
                default=DEFAULT_BOX,
                help="region bounds lo:hi applied to each axis (default 0.05:8)",
            )
        if dist:
            p.add_argument("--dist", required=True, help='distribution JSON {"atoms": [[x, p], ...]}')
        if expr:
            p.add_argument("--expr", required=True, help="expression in w and exp(w)")
        if sigmas:
            p.add_argument(
                "--sigma",
                type=float,
                action="append",
                help="sigma for the scan (repeatable; default 0.5 0.1 0.01 0.001)",
            )

    p_eval = command("eval", help="tilted mean of a distribution")
    add_flags(p_eval, tilt=True, dist=True)
    p_eval.set_defaults(func=_cmd_eval)

    p_check = command("bound-check", help="mean against the symmetric bound")
    add_flags(p_check, tilt=True, dist=True)
    p_check.set_defaults(func=_cmd_bound_check)

    p_prove = command("prove", help="certify the sign of an expression")
    add_flags(p_prove, expr=True)
    p_prove.set_defaults(func=_cmd_prove)

    p_verify = command("verify-proof", help="battery, case structure and regions")
    add_flags(p_verify, region=True)
    p_verify.set_defaults(func=_cmd_verify_proof)

    p_ext = command("extremal", help="sharpness scan over sigma")
    add_flags(p_ext, tilt=True, sigmas=True, csv=True)
    p_ext.set_defaults(func=_cmd_extremal)

    p_report = command("report", help="aggregate JSON report")
    add_flags(p_report, tilt=True, region=True, sigmas=True)
    p_report.set_defaults(func=_cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, ExprSyntaxError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
