"""Benchmark of tiltbound: one command, three workloads, checked outputs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify-default --seed 1 --seconds 15 --trace 0

Workloads (see bench/workloads.py):

* verify-default    one default `tiltbound verify-proof`, the north-star verdict;
* regions-offstrip  verify-proof on seeded cubes with lo >= 0.5, plus one-shot
                    leaf enclosures of the five certified claims;
* analysis-mix      prover claims with known signs (decide and replay), the
                    prover battery, check_bound on seeded laws, sharpness scans.

The program is imported from ``src/`` of the same checkout and driven in
process, from one thread.  Rounds run back to back until ``--seconds`` have
passed and the workload has the samples its percentiles need.  Every output
is checked; a failed gate exits with status 3 and prints no result.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` a span recorder wraps the module
boundaries and the JSON carries the per-layer metrics instead.  Lines before
it give every figure by name and unit with its sample count.  Times are
seconds at a reference interpreter speed sampled during the run
(bench/speed.py).  The full record, with the raw figures too, and for traced
runs the spans are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import importlib
import json
import os
import platform
import random
import resource
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT))

from bench import inputs, metrics  # noqa: E402
from bench.speed import SpeedReference, Timeline  # noqa: E402
from bench.tracing import Tracer  # noqa: E402
from bench.workloads import WORKLOADS, GateFailure, Samples  # noqa: E402

PROGRAM_MODULES = (
    "cli", "exppoly", "extremal", "intervals", "prover", "regions", "rootisolation", "tilted",
)
SETUP_REPEATS = 7
CALIBRATION_PAIRS = 7
PROBE_SIZE = 2000
PROBE_REPEATS = 7


class ProgramMissing(Exception):
    """The checkout holds no importable tiltbound sources."""


def load_program() -> types.SimpleNamespace:
    """Import tiltbound afresh from this checkout's src/ directory."""
    for name in [n for n in sys.modules if n == "tiltbound" or n.startswith("tiltbound.")]:
        del sys.modules[name]
    if not (SRC / "tiltbound" / "__init__.py").is_file():
        raise ProgramMissing(f"no tiltbound package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"tiltbound.{name}") for name in PROGRAM_MODULES}
    origin = Path(sys.modules["tiltbound"].__file__).resolve().parent
    if origin != (SRC / "tiltbound").resolve():
        raise ProgramMissing(f"tiltbound was imported from {origin}, not from {SRC}")
    return types.SimpleNamespace(**modules)


def set_up(workload, seed: int, clock):
    """Import the program, generate the inputs and build the program objects.

    Done SETUP_REPEATS times so that set-up time is a median; the last
    program and objects are the ones the run uses.
    """
    windows = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # garbage of the previous set-up is not this one's cost
        start = clock()
        program = load_program()
        data = workload.generate(seed)
        prepared = workload.prepare(program, data)
        windows.append((start, clock()))
    return program, data, prepared, windows


def run_rounds(workload, program, prepared, seconds: float, samples: Samples) -> None:
    """Closed loop: each round starts when the previous one returns."""
    clock = samples.clock
    start = clock()
    k = 0
    while True:
        round_start = clock()
        workload.run_round(program, prepared, k, samples)
        samples.rounds.append((round_start, clock()))
        k += 1
        if clock() - start >= seconds and workload.enough(samples):
            return


def trace_overhead(workload, program, prepared, clock) -> list:
    """(untraced, traced) windows of back-to-back calibration rounds.

    The two rounds of a pair share the machine's speed; which goes first
    alternates.  verify-default calibrates on a small cube instead of the
    default one, which makes its overhead an upper bound: the default run
    has the same spans spread over more time.
    """
    pairs = []
    for pair in range(CALIBRATION_PAIRS):
        windows = {}
        for with_trace in ((False, True) if pair % 2 == 0 else (True, False)):
            tracer = Tracer(clock)
            metrics.attribute_hooks(tracer)
            with tracer.installed(program) if with_trace else contextlib.nullcontext():
                start = clock()
                workload.calibration_round(program, prepared, Samples(clock=clock))
                windows[with_trace] = (start, clock())
        pairs.append((windows[False], windows[True]))
    return pairs


def interval_probe(program, seed: int, clock) -> dict[str, list]:
    """Timed loops of each public Interval operation on seeded positive intervals.

    "base" is the bare loop, subtracted per operation in metrics.ns_per_op.
    """
    interval = program.intervals.Interval
    rng = random.Random(f"intervals:{seed}")
    xs = []
    for _ in range(PROBE_SIZE):
        lo = rng.uniform(0.05, 8.0)
        xs.append(interval(lo, lo + rng.uniform(0.0, 0.1)))
    pairs = list(zip(xs, reversed(xs)))
    loops = {
        "base": lambda: [a for a, b in pairs],
        "add": lambda: [a + b for a, b in pairs],
        "mul": lambda: [a * b for a, b in pairs],
        "exp": lambda: [a.exp() for a, b in pairs],
        "sinh": lambda: [a.sinh() for a, b in pairs],
        "cosh": lambda: [a.cosh() for a, b in pairs],
        "sinh_over": lambda: [a.sinh_over() for a, b in pairs],
    }
    windows = {name: [] for name in loops}
    gc.collect()
    gc.disable()
    try:
        for _ in range(PROBE_REPEATS):
            for name, loop in loops.items():
                start = clock()
                loop()
                windows[name].append((start, clock()))
    finally:
        gc.enable()
    return windows


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(args, workload, clock):
    """Set up, run the rounds and, when tracing, the per-layer extras."""
    program, data, prepared, setup = set_up(workload, args.seed, clock)
    samples = Samples(clock=clock)
    if not args.trace:
        run_rounds(workload, program, prepared, args.seconds, samples)
        return data, setup, samples, None
    tracer = Tracer(clock)
    metrics.attribute_hooks(tracer)
    with tracer.installed(program):
        run_rounds(workload, program, prepared, args.seconds, samples)
    extras = {
        "overhead": trace_overhead(workload, program, prepared, clock),
        "probe": interval_probe(program, args.seed, clock),
    }
    return data, setup, samples, (tracer, extras)


def raw_duration(start: float, end: float) -> float:
    return end - start


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        with SpeedReference() as reference:
            origin = reference.clock()
            data, setup, samples, traced = measure(args, workload, reference.clock)
    except (ProgramMissing, ImportError) as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    except GateFailure as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        return 3
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timeline = Timeline(reference.samples)

    def report(duration) -> dict[str, float]:
        if traced is None:
            return metrics.end_to_end(samples, setup, peak_rss_mb, duration)
        tracer, extras = traced
        overhead = metrics.overhead_frac(extras["overhead"], duration)
        ns = metrics.ns_per_op(extras["probe"], PROBE_SIZE, duration)
        return metrics.layer_metrics(tracer, samples, overhead, ns, duration)

    result = report(timeline.duration)
    figures = metrics.workload_figures(samples, timeline.duration)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "input_digest": inputs.digest(data),
        "rounds": len(samples.rounds),
        "attempted": samples.attempted,
        "failed": samples.failed,
        "speed_samples": len(reference.samples),
        "figures": {
            name: {"value": value, "unit": metrics.UNITS[name], "samples": count}
            for name, (value, count) in figures.items()
        },
        "metrics": {name: {"value": v, "unit": metrics.UNITS[name]} for name, v in result.items()},
        "raw_metrics": report(raw_duration),
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if traced is not None:
        with gzip.open(OUT / f"{stem}-spans.jsonl.gz", "wt", encoding="utf-8") as handle:
            traced[0].write(handle, origin)

    print(
        f"# {args.workload} seed={args.seed} trace={args.trace} python={record['python']} "
        f"nproc={record['nproc']} commit={record['commit']} inputs={record['input_digest']}"
    )
    print(
        f"# samples: setup_s {len(setup)} set-ups, wall_s {record['rounds']} rounds; times in "
        f"seconds at reference speed, from {len(reference.samples)} speed samples"
    )
    for name, (value, count) in figures.items():
        print(f"{name} = {value:.6g} {metrics.UNITS[name]} (n={count})")
    for name, value in result.items():
        if name not in figures:
            print(f"{name} = {value:.6g} {metrics.UNITS[name]}")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": samples.attempted,
                "failed": samples.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
