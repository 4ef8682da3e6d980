"""Span recorder for the traced benchmark run.

The recorder wraps public entry points at the module boundaries of
tiltbound, including the names that importers re-bind (``cli`` calls
``certify_negative`` through its own module namespace, ``extremal`` calls
``tilted_mean_signed`` through its own, and ``prover`` reaches
``rootisolation`` through the ``ri`` alias).  Each call becomes a span with
name, start, end and parent; spans stay in memory until the run writes them
out.  Hot inner calls get a plain counter instead of a span, which costs far
less.  Nothing in the program changes: the wrappers are installed by
re-binding module attributes and removed afterwards.
"""

from __future__ import annotations

import json
import types
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (owner module, attribute, span name) for every wrapped entry point.
SPAN_POINTS = (
    ("cli", "main", "cli.main"),
    ("cli", "verify_battery", "prover.verify_battery"),
    ("cli", "verify_case_structure", "regions.verify_case_structure"),
    ("cli", "certify_negative", "regions.certify_negative"),
    ("regions", "certify_negative", "regions.certify_negative"),
    ("regions", "eval_interval", "regions.eval_interval"),
    ("regions", "d_expr", "tilted.d_expr"),
    ("prover", "decide_sign", "prover.decide_sign"),
    ("prover", "replay", "prover.replay"),
    ("prover", "verify_battery", "prover.verify_battery"),
    ("prover", "parse_expression", "exppoly.parse_expression"),
    ("prover", "normalize", "exppoly.normalize"),
    ("prover", "derivative", "exppoly.derivative"),
    ("exppoly", "parse_expression", "exppoly.parse_expression"),
    ("tilted", "check_bound", "tilted.check_bound"),
    ("extremal", "ratio_limit_scan", "extremal.ratio_limit_scan"),
)

# (owner module, attribute, counter name) for hot calls that are only counted.
COUNT_POINTS = (
    ("tilted", "tilted_mean", "tilted.tilted_mean"),
    ("extremal", "tilted_mean_signed", "tilted.tilted_mean_signed"),
)

# rootisolation functions that prover calls through its ``ri`` alias.
RI_FUNCTIONS = ("make_poly", "count_roots_above", "isolate_roots_above", "evaluate")


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self, clock=perf_counter) -> None:
        self.clock = clock
        # (id, parent id or -1, name, start, end, attrs or None)
        self.spans: list[tuple[int, int, str, float, float, dict | None]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next_id = 0
        self._attr_hooks: dict[str, object] = {}

    def on_return(self, name: str, hook) -> None:
        """Have spans named ``name`` keep ``hook(args, result)`` as attributes."""
        self._attr_hooks[name] = hook

    def wrap(self, name: str, fn):
        spans, stack, hook, clock = self.spans, self._stack, self._attr_hooks.get(name), self.clock

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            attrs = hook(args, result) if hook else None
            spans.append((span_id, parent, name, start, end, attrs))
            return result

        return traced

    def counted(self, name: str, fn):
        counts = self.counts

        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    @contextmanager
    def installed(self, program: types.SimpleNamespace):
        """Re-bind every boundary name of ``program`` to a recording wrapper."""
        saved = []

        def rebind(owner, attr, wrapper):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

        try:
            for module, attr, name in SPAN_POINTS:
                owner = getattr(program, module)
                rebind(owner, attr, self.wrap(name, getattr(owner, attr)))
            for module, attr, name in COUNT_POINTS:
                owner = getattr(program, module)
                rebind(owner, attr, self.counted(name, getattr(owner, attr)))
            ri = program.prover.ri
            proxy = types.SimpleNamespace(
                **{fn: self.wrap(f"rootisolation.{fn}", getattr(ri, fn)) for fn in RI_FUNCTIONS}
            )
            rebind(program.prover, "ri", proxy)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, handle, origin: float) -> None:
        """Spans as JSON lines to a text handle, times in seconds from ``origin``."""
        for span_id, parent, name, start, end, attrs in sorted(self.spans):
            record = {
                "id": span_id,
                "parent": parent,
                "name": name,
                "start": start - origin,
                "end": end - origin,
            }
            if attrs:
                record["attrs"] = attrs
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def self_times(spans, duration=lambda start, end: end - start) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Children are clipped to their parent's interval and merged before
    subtraction, so overlapping or out-of-range children never push a self
    time below zero.  ``duration`` turns a window into seconds.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, parent, _, start, end, *_ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for span_id, _, _, start, end, *_ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += duration(c_start, c_end)
                cursor = c_end
        result[span_id] = duration(start, end) - covered
    return result
