"""Command-line front end.

Subcommands map one-to-one onto the library layers:

    eval          tilted mean of a distribution file at given (h, w)
    bound-check   mean against the symmetric sharp bound, with margin
    prove         sign certificate for an exp-polynomial inequality
    verify-proof  inequality battery + case structure + derived regions
    extremal      sharpness scan sup/sigma^2 toward sinh(hw)/w
    report        verify-proof's payload plus extremal's, under "extremal"

One pipeline serves every subcommand: ``_COMMANDS`` names each one's flags
and handler, a handler returns its payload (a dict, or the CSV text of
``extremal --format csv``) and its exit status, and :func:`main` alone
prints the payload, inside the same error handler that turns bad input into
an ``error:`` line.

All reports are deterministic: the same inputs produce byte-identical
output.  Exit status is 0 exactly when every executed check passed: the
battery certified and every case-structure check passed.  ``verify-proof``
and ``report`` bisect no region: each derived region takes its status from
its exact links and evaluates no box.  Bad input, a float overflow or an
expression nested too deeply included, exits 2 with an ``error:`` line, and
so does a stdout that fails while the payload is written (a closed pipe).

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


def _parse_box(text: str) -> tuple[float, float]:
    try:
        lo_text, hi_text = text.split(":")
        lo, hi = float(lo_text), float(hi_text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected --box lo:hi") from exc
    if not (0 <= lo < hi < math.inf):
        raise argparse.ArgumentTypeError("box bounds must be finite and satisfy 0 <= lo < hi")
    return lo, hi


def _cmd_law(args) -> tuple[dict, int]:
    """``eval`` and ``bound-check``: the tilted mean of a law file, or its bound check."""
    params = TiltParams(args.h, args.w)
    with open(args.dist, "r", encoding="utf-8") as handle:
        dist = SymmetricDiscreteDistribution.from_dict(json.load(handle))
    if args.command == "eval":
        return {"h": args.h, "w": args.w, "mean": tilted_mean(dist, params)}, 0
    result = check_bound(dist, params)
    return {"h": args.h, "w": args.w, **result.to_dict()}, 0 if result.holds else 1


def _cmd_prove(args) -> tuple[dict, int]:
    decision = decide_sign(parse_expression(args.expr))
    payload = {
        "expression": args.expr,
        "outcome": decision.outcome.value,
        "reason": decision.reason,
        "certificate": decision.certificate.to_dict() if decision.certificate else None,
    }
    return payload, 0 if decision.outcome is not Outcome.UNDETERMINED else 1


def _cmd_verify_proof(args) -> tuple[dict, int]:
    battery = verify_battery()
    structure = verify_case_structure(args.box[0], args.box[1], battery)
    all_passed = battery.all_certified and structure.all_passed
    payload = {
        "battery": battery.to_dict(),
        "case_structure": structure.to_dict(),
        "regions": structure.derived_regions(),
        "all_passed": all_passed,
    }
    return payload, 0 if all_passed else 1


def _cmd_extremal(args) -> tuple[dict | str, int]:
    sigmas = args.sigma or [args.w * s for s in DEFAULT_SIGMAS]
    rows = ratio_limit_scan(TiltParams(args.h, args.w), sigmas)
    if args.format == "csv":
        return scan_to_csv(rows), 0
    detail = [{**row.to_dict(), "argmax_atoms": [[x, p] for x, p in row.atoms]} for row in rows]
    return {"h": args.h, "w": args.w, "rows": detail}, 0


def _cmd_report(args) -> tuple[dict, int]:
    scan = _cmd_extremal(args)[0]  # first, so a bad sigma fails before the verdict runs
    payload, status = _cmd_verify_proof(args)
    payload["extremal"] = scan
    payload["all_passed"] = payload.pop("all_passed")  # last, after the scan
    return payload, status


_H = ("--h", dict(type=float, default=1.0, help="tilt rate (default 1)"))
_W = ("--w", dict(type=float, default=1.0, help="cap level (default 1)"))
_FORMAT = ("--format", dict(choices=("json", "text"), default="json", help="output format"))
_CSV = ("--format", dict(_FORMAT[1], choices=("json", "csv", "text")))
_BOX = ("--box", dict(type=_parse_box, default=DEFAULT_BOX,
                      help="region bounds lo:hi applied to each axis (default 0.05:8)"))
_DIST = ("--dist", dict(required=True, help='distribution JSON {"atoms": [[x, p], ...]}'))
_EXPR = ("--expr", dict(required=True, help="expression in w and exp(w)"))
_SIGMA = ("--sigma", dict(type=float, action="append", help="sigma for the scan "
                          "(repeatable; default 0.5 0.1 0.01 0.001 times --w)"))

# name, help, handler, and the flags in the order the help lists them
_COMMANDS = (
    ("eval", "tilted mean of a distribution", _cmd_law, (_H, _W, _FORMAT, _DIST)),
    ("bound-check", "mean against the symmetric bound", _cmd_law, (_H, _W, _FORMAT, _DIST)),
    ("prove", "certify the sign of an expression", _cmd_prove, (_FORMAT, _EXPR)),
    ("verify-proof", "battery, case structure and regions", _cmd_verify_proof, (_FORMAT, _BOX)),
    ("extremal", "sharpness scan over sigma", _cmd_extremal, (_H, _W, _CSV, _SIGMA)),
    ("report", "verify-proof and extremal in one JSON report", _cmd_report,
     (_H, _W, _FORMAT, _BOX, _SIGMA)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiltbound",
        allow_abbrev=False,
        description="Verification toolkit for sharp bounds on tilted-capped means "
        "of symmetric distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help, handler, flags in _COMMANDS:
        # No prefix matching, or "--h" on a subcommand without it means "--help".
        command = sub.add_parser(name, help=help, allow_abbrev=False)
        for flag, options in flags:
            command.add_argument(flag, **options)
        command.set_defaults(func=handler)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reuses: built on first use, not at import."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        payload, status = args.func(args)
        if isinstance(payload, str):
            sys.stdout.write(payload)
        elif args.format == "text":
            # one "key: value" line per key, a nested value as one line of JSON
            for key, value in payload.items():
                print(f"{key}: {json.dumps(value) if isinstance(value, (dict, list)) else value}")
        else:
            print(json.dumps(payload, indent=2))
        return status
    except (OSError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
