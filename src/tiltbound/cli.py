"""Command-line front end.

Subcommands map one-to-one onto the library layers:

    eval          tilted mean of a distribution file at given (h, w)
    bound-check   mean against the symmetric sharp bound, with margin
    prove         sign certificate for an exp-polynomial inequality
    verify-proof  inequality battery + case structure + derived regions
    extremal      sharpness scan sup/sigma^2 toward sinh(hw)/w
    report        verify-proof's payload plus extremal's, under "extremal"

All reports are deterministic: the same inputs produce byte-identical
output.  Exit status is 0 exactly when every executed check passed: the
battery certified and every case-structure check passed.  ``verify-proof``
and ``report`` bisect no region: each derived region takes its status from
its exact links and evaluates no box.  Bad input, a float overflow or an
expression nested too deeply included, exits 2 with an ``error:`` line.

:func:`main` builds its argument parser on its first call and reuses it for
every later call in the same process; parsing leaves no state on a parser.
Three things are kept between calls, each built on first use from module
constants: the parser, each battery text's parsed polynomial
(``prover._lemma``) and each catalog form's expansion at (U, V, W)
(``regions._expanded``).  Every call still decides and replays every lemma,
expands every identity, reads every certificate and builds its report anew.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Sequence

from .exppoly import parse_expression
from .extremal import ratio_limit_scan, scan_to_csv
from .prover import Outcome, decide_sign, verify_battery
from .regions import verify_case_structure
from .regions import certify_negative  # noqa: F401  (bench/tracing.py wraps cli.certify_negative)
from .tilted import SymmetricDiscreteDistribution, TiltParams, check_bound, tilted_mean

DEFAULT_BOX = (0.05, 8.0)
DEFAULT_SIGMAS = (0.5, 0.1, 0.01, 0.001)  # times --w, as the scan needs 0 < sigma < w


def _emit(payload: dict, fmt: str) -> None:
    """JSON, or one ``key: value`` line per key, a nested value as one line of JSON."""
    if fmt == "text":
        for key, value in payload.items():
            print(f"{key}: {json.dumps(value) if isinstance(value, (dict, list)) else value}")
    else:
        print(json.dumps(payload, indent=2))


def _load_distribution(path: str) -> SymmetricDiscreteDistribution:
    with open(path, "r", encoding="utf-8") as handle:
        return SymmetricDiscreteDistribution.from_dict(json.load(handle))


def _parse_box(text: str) -> tuple[float, float]:
    try:
        lo_text, hi_text = text.split(":")
        lo, hi = float(lo_text), float(hi_text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected --box lo:hi") from exc
    if not (0 <= lo < hi < math.inf):
        raise argparse.ArgumentTypeError("box bounds must be finite and satisfy 0 <= lo < hi")
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


def _verify(box: tuple[float, float]) -> tuple[dict, bool]:
    """Battery, case structure and regions: their payload and ``all_passed``."""
    battery = verify_battery()
    structure = verify_case_structure(box[0], box[1], battery)
    payload = {
        "battery": battery.to_dict(),
        "case_structure": structure.to_dict(),
        "regions": structure.derived_regions(),
    }
    return payload, battery.all_certified and structure.all_passed


def _cmd_verify_proof(args) -> int:
    payload, all_passed = _verify(args.box)
    payload["all_passed"] = all_passed
    _emit(payload, args.format)
    return 0 if all_passed else 1


def _scan(args) -> tuple[list, dict]:
    """The sharpness scan: its rows and the ``{"h", "w", "rows"}`` payload."""
    sigmas = args.sigma or [args.w * s for s in DEFAULT_SIGMAS]
    rows = ratio_limit_scan(TiltParams(args.h, args.w), sigmas)
    detail_rows = [{**row.to_dict(), "argmax_atoms": [[x, p] for x, p in row.atoms]} for row in rows]
    return rows, {"h": args.h, "w": args.w, "rows": detail_rows}


def _cmd_extremal(args) -> int:
    rows, payload = _scan(args)
    if args.format == "csv":
        sys.stdout.write(scan_to_csv(rows))
    else:
        _emit(payload, args.format)
    return 0


def _cmd_report(args) -> int:
    scan = _scan(args)[1]  # first, so a bad sigma fails before the verdict runs
    payload, all_passed = _verify(args.box)
    payload["extremal"] = scan
    payload["all_passed"] = all_passed
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
                help="sigma for the scan (repeatable; default 0.5 0.1 0.01 0.001 times --w)",
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

    p_report = command("report", help="verify-proof and extremal in one JSON report")
    add_flags(p_report, tilt=True, region=True, sigmas=True)
    p_report.set_defaults(func=_cmd_report)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reuses: built on first use, not at import."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
