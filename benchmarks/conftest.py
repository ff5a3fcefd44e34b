"""Shared benchmark configuration.

Benchmarks use moderate batch sizes: large enough that fills and overheads
amortise as in the paper's runs, small enough that the discrete-event
simulations finish in seconds.  Every benchmark prints the paper's numbers
next to the measured ones (run with ``-s`` to see the tables; they are also
asserted programmatically).

The committed ``BENCH_*.json`` files are rewritten only when the
environment sets ``REPRO_WRITE_BENCH=1``; the floors are asserted on
every run either way, so a plain test run leaves the tree clean.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.workloads.scenarios import PaperScenario


@pytest.fixture(scope="session")
def bench_scenario() -> PaperScenario:
    """Paper scenario with a batch big enough to amortise overheads."""
    return PaperScenario(n_options=64)


@pytest.fixture(scope="session")
def scaling_scenario() -> PaperScenario:
    """Larger batch for the multi-engine study (Table II)."""
    return PaperScenario(n_options=250)


def run_once(benchmark, fn):
    """Benchmark an expensive function with a single measured round."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def write_bench(path: Path, payload: dict) -> str:
    """Persist a BENCH payload when ``REPRO_WRITE_BENCH=1``.

    Returns a short note for the benchmark's printout: the file name
    when written, otherwise how to opt in.
    """
    if os.environ.get("REPRO_WRITE_BENCH") != "1":
        return f"{path.name} not written (set REPRO_WRITE_BENCH=1)"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path.name
