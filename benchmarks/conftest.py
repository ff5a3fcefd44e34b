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
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.serving.coalescer import MicroBatchCoalescer
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


@contextmanager
def lane_housekeeping(n_arrivals: int):
    """Count the coalescer's ``reap`` and ``advance`` calls in the block.

    The methods are wrapped from here, outside the program, so the
    serving hot path carries no counters.  Yields a dict that is filled
    on exit with ``reap_calls_per_arrival`` and
    ``advance_calls_per_arrival`` over ``n_arrivals`` offered requests.
    """
    calls = {"reap": 0, "advance": 0}
    ledger: dict[str, float] = {}
    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            method = getattr(MicroBatchCoalescer, name)

            def counted(self, *args, _name=name, _method=method):
                calls[_name] += 1
                return _method(self, *args)

            mp.setattr(MicroBatchCoalescer, name, counted)
        yield ledger
    for name, n in calls.items():
        ledger[f"{name}_calls_per_arrival"] = round(n / n_arrivals, 4)
