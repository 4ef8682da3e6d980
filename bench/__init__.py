"""Benchmark of tiltbound; run it with bench/run.py."""
