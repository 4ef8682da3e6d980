"""Metric definitions and their computation from one run's measurements.

End-to-end metrics come from untraced runs and exist on every workload.
Per-layer metrics come from the traced run; a layer that a workload does not
exercise reports 0.  Each per-layer metric names the end-to-end figure it
should move and the workloads on which it should move it, so that a change
to one layer can be checked against its prediction: on the other workloads
the prediction is no change.
"""

from __future__ import annotations

from collections import defaultdict

from . import stats
from .inputs import CLAIMS
from .tracing import self_times

# (name, unit, better, bound): bound is the share of the parent's median by
# which a later change may worsen the metric.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_frac", "frac", "higher", 0.01),
)

VERIFY = "verify-default, regions-offstrip"
OFFSTRIP = "regions-offstrip"
ANALYSIS = "analysis-mix"
ALL = "every workload"

# Figures that belong to one workload each.  They are printed by every
# untraced run that has them and reported again by the traced run.
WORKLOAD_FIGURES = (
    ("boxes_total", "count", "lower", "wall_s", VERIFY),
    ("enclose_p50_us", "us", "lower", "wall_s", OFFSTRIP),
    ("enclose_p99_us", "us", "lower", "wall_s", OFFSTRIP),
    ("prove_p50_ms", "ms", "lower", "wall_s", ANALYSIS),
    ("prove_p99_ms", "ms", "lower", "wall_s", ANALYSIS),
    ("checks_per_s", "1/s", "higher", "wall_s", ANALYSIS),
    ("scan_row_p50_s", "s", "lower", "wall_s", ANALYSIS),
)

INTERVAL_OPS = ("add", "mul", "exp", "sinh", "cosh", "sinh_over")

# (name, unit, better, end-to-end figure it should move, workloads)
PER_LAYER = (
    *WORKLOAD_FIGURES,
    *(
        (f"regions.boxes.{claim}", "count", "lower", "boxes_total, wall_s", VERIFY)
        for claim, _ in CLAIMS
    ),
    *(
        (f"regions.deepest_level.{claim}", "count", "lower", "boxes_total, wall_s", VERIFY)
        for claim, _ in CLAIMS
    ),
    *((f"regions.certify_s.{claim}", "s", "lower", "wall_s", VERIFY) for claim, _ in CLAIMS),
    ("regions.us_per_box", "us", "lower", "wall_s", VERIFY),
    ("regions.structure_self_s", "s", "lower", "wall_s", VERIFY),
    ("regions.undecided", "count", "lower", "ok_frac", VERIFY),
    ("regions.enclose_us", "us", "lower", "enclose_p50_us", OFFSTRIP),
    ("regions.enclose_neg_frac", "frac", "higher", "enclose_p50_us, ok_frac", OFFSTRIP),
    *(
        (f"intervals.ns_per_op.{op}", "ns", "lower", "regions.us_per_box, wall_s", VERIFY)
        for op in INTERVAL_OPS
    ),
    ("cli.self_s", "s", "lower", "wall_s", "verify-default"),
    ("prover.decide_ms", "ms", "lower", "prove_p50_ms, prove_p99_ms", ANALYSIS),
    ("prover.replay_ms", "ms", "lower", "prove_p50_ms, prove_p99_ms", ANALYSIS),
    ("prover.replay_over_decide", "ratio", "lower", "prove_p50_ms", ANALYSIS),
    ("prover.chain_steps", "count", "lower", "prove_p50_ms", ANALYSIS),
    ("prover.undetermined_frac", "frac", "lower", "ok_frac", ANALYSIS),
    ("prover.battery_s", "s", "lower", "wall_s", ALL),
    ("exppoly.parse_calls", "count", "lower", "prove_p50_ms", ANALYSIS),
    ("exppoly.parse_s", "s", "lower", "prove_p50_ms", ANALYSIS),
    ("exppoly.normalize_calls", "count", "lower", "prove_p50_ms", ANALYSIS),
    ("exppoly.normalize_s", "s", "lower", "prove_p50_ms", ANALYSIS),
    ("exppoly.derivative_calls", "count", "lower", "prove_p50_ms", ANALYSIS),
    ("exppoly.derivative_s", "s", "lower", "prove_p50_ms", ANALYSIS),
    ("rootisolation.calls", "count", "lower", "prove_p99_ms", ANALYSIS),
    ("rootisolation.s", "s", "lower", "prove_p99_ms", ANALYSIS),
    ("tilted.check_us", "us", "lower", "checks_per_s", ANALYSIS),
    ("tilted.mean_evals", "count", "lower", "checks_per_s", ANALYSIS),
    ("extremal.scan_row_s", "s", "lower", "scan_row_p50_s", ANALYSIS),
    ("extremal.mean_evals_per_row", "count", "lower", "scan_row_p50_s", ANALYSIS),
    ("trace.overhead_frac", "frac", "lower", "none", ALL),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


# Every function below takes ``duration(start, end)``, which turns a window
# on the run's clock into seconds: raw, or at the reference speed.


def end_to_end(samples, setup, peak_rss_mb: float, duration) -> dict[str, float]:
    """The end-to-end metrics of an untraced run; wall_s is the median round."""
    return {
        "setup_s": stats.median([duration(*window) for window in setup]),
        "wall_s": stats.median([duration(*window) for window in samples.rounds]),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - samples.failed / samples.attempted,
    }


def workload_figures(samples, duration) -> dict[str, tuple[float, int]]:
    """The workload-specific figures this run has, as (value, sample count)."""
    figures = {}
    calls = samples.counts["verify_calls"]
    if calls:
        figures["boxes_total"] = (samples.counts["boxes"] / calls, calls)
    enclose_us = [1e6 * duration(*window) for window in samples.enclosures]
    prove_ms = [1e3 * duration(*window) for window in samples.proofs]
    scan_row_s = [duration(start, end) / rows for start, end, rows in samples.scans]
    for name, values, pct in (
        ("enclose_p50_us", enclose_us, 50),
        ("enclose_p99_us", enclose_us, 99),
        ("prove_p50_ms", prove_ms, 50),
        ("prove_p99_ms", prove_ms, 99),
        ("scan_row_p50_s", scan_row_s, 50),
    ):
        if values:
            figure = stats.percentile(values, pct)
            if figure is None:
                raise RuntimeError(f"{name}: too few samples ({len(values)}) for a p{pct}")
            figures[name] = (figure.value, figure.samples)
    if samples.checks:
        count = len(samples.checks)
        figures["checks_per_s"] = (count / sum(duration(*w) for w in samples.checks), count)
    return figures


def overhead_frac(pairs, duration) -> float:
    """Median over (untraced, traced) window pairs of traced / untraced, minus 1."""
    return stats.median([duration(*traced) / duration(*plain) for plain, traced in pairs]) - 1.0


def ns_per_op(probe: dict[str, list], ops: int, duration) -> dict[str, float]:
    """Nanoseconds per operation from the interval probe's timed loops."""
    base = stats.median([duration(*window) for window in probe["base"]])
    return {
        op: 1e9 * (stats.median([duration(*window) for window in probe[op]]) - base) / ops
        for op in INTERVAL_OPS
    }


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, samples, overhead: float, interval_ns: dict, span_duration):
    """Every per-layer metric from the traced run's spans and counters."""
    spans = defaultdict(list)
    for span in tracer.spans:
        spans[span[2]].append(span)
    own = self_times(tracer.spans, span_duration)

    def duration(span) -> float:
        return span_duration(span[3], span[4])

    metrics = {name: 0.0 for name, *_ in PER_LAYER}
    figures = workload_figures(samples, span_duration)
    metrics.update({name: value for name, (value, _) in figures.items()})

    certs = spans["regions.certify_negative"]
    for claim, _ in CLAIMS:
        mine = [span for span in certs if span[5]["expr"] == claim]
        metrics[f"regions.boxes.{claim}"] = _mean(span[5]["boxes"] for span in mine)
        metrics[f"regions.deepest_level.{claim}"] = max((s[5]["deepest"] for s in mine), default=0)
        metrics[f"regions.certify_s.{claim}"] = _mean(duration(span) for span in mine)
    metrics["regions.us_per_box"] = 1e6 * _ratio(
        sum(duration(span) for span in certs), sum(span[5]["boxes"] for span in certs)
    )
    structure = spans["regions.verify_case_structure"]
    metrics["regions.structure_self_s"] = _mean(own[span[0]] for span in structure)
    metrics["regions.undecided"] = _ratio(
        sum(span[5]["undecided"] for span in certs), len(spans["cli.main"])
    )
    enclosures = spans["regions.eval_interval"]
    metrics["regions.enclose_us"] = 1e6 * stats.median([duration(s) for s in enclosures])
    metrics["regions.enclose_neg_frac"] = _ratio(
        sum(span[5]["negative"] for span in enclosures), len(enclosures)
    )

    for op in INTERVAL_OPS:
        metrics[f"intervals.ns_per_op.{op}"] = interval_ns[op]

    metrics["cli.self_s"] = _mean(own[span[0]] for span in spans["cli.main"])

    decides = spans["prover.decide_sign"]
    replays = spans["prover.replay"]
    metrics["prover.decide_ms"] = 1e3 * stats.median([duration(s) for s in decides])
    metrics["prover.replay_ms"] = 1e3 * stats.median([duration(s) for s in replays])
    metrics["prover.replay_over_decide"] = _ratio(
        sum(duration(s) for s in replays), sum(duration(s) for s in decides)
    )
    decided = [span[5]["steps"] for span in decides if span[5]["steps"]]
    metrics["prover.chain_steps"] = _mean(decided)
    metrics["prover.undetermined_frac"] = _ratio(
        sum(span[5]["outcome"] == "undetermined" for span in decides), len(decides)
    )
    metrics["prover.battery_s"] = _mean(duration(s) for s in spans["prover.verify_battery"])
    for short, name in (
        ("parse", "exppoly.parse_expression"),
        ("normalize", "exppoly.normalize"),
        ("derivative", "exppoly.derivative"),
    ):
        metrics[f"exppoly.{short}_calls"] = _ratio(len(spans[name]), len(decides))
        metrics[f"exppoly.{short}_s"] = _ratio(sum(map(duration, spans[name])), len(decides))
    ri = [span for name, group in spans.items() if name.startswith("rootisolation.") for span in group]
    metrics["rootisolation.calls"] = _ratio(len(ri), len(decides))
    metrics["rootisolation.s"] = _ratio(sum(map(duration, ri)), len(decides))

    checks = spans["tilted.check_bound"]
    metrics["tilted.check_us"] = 1e6 * stats.median([duration(s) for s in checks])
    metrics["tilted.mean_evals"] = _ratio(tracer.counts["tilted.tilted_mean"], len(checks))

    scans = spans["extremal.ratio_limit_scan"]
    rows = sum(span[5]["rows"] for span in scans)
    metrics["extremal.scan_row_s"] = stats.median([duration(s) / s[5]["rows"] for s in scans])
    metrics["extremal.mean_evals_per_row"] = _ratio(
        tracer.counts["tilted.tilted_mean_signed"], rows
    )
    metrics["trace.overhead_frac"] = overhead
    return metrics


def attribute_hooks(tracer) -> None:
    """Keep the counts each traced entry point returns on its span."""

    def certify(args, result):
        expr = args[0]
        return {
            "expr": expr if isinstance(expr, str) else expr.name,
            "boxes": result.boxes_evaluated,
            "deepest": result.deepest_level,
            "undecided": len(result.undecided),
        }

    def decide(args, result):
        steps = len(result.certificate.steps) if result.certificate else 0
        return {"outcome": result.outcome.value, "steps": steps}

    tracer.on_return("regions.certify_negative", certify)
    tracer.on_return("regions.eval_interval", lambda args, result: {"negative": result.hi < 0.0})
    tracer.on_return("prover.decide_sign", decide)
    tracer.on_return("extremal.ratio_limit_scan", lambda args, result: {"rows": len(result)})
