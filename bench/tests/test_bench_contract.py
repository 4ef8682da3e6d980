import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import metrics
from bench.workloads import GateFailure, Samples, _prove, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def test_benchmark_json_matches_the_metric_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in metrics.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, *_ in metrics.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_wrong_sign_aborts():
    import tiltbound

    program = type("Program", (), {"prover": tiltbound.prover, "exppoly": tiltbound.exppoly})
    _prove(program, "sinh(w) - w", 1, Samples())
    with pytest.raises(GateFailure):
        _prove(program, "sinh(w) - w", -1, Samples())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "analysis-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode != 0
    assert '"correct"' not in run.stdout
