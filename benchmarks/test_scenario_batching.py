"""Benchmark: looped versus batched scenario-grid revaluation.

This is the loop-to-array transformation the paper's CPU baseline makes
with OpenMP/``-O3`` inner-loop vectorisation (Section II.B), applied to
the risk subsystem's hottest path: instead of one ``price_packed_book`` call
per scenario, the whole ``(scenarios x options x timepoints)`` tensor is
priced by a few chunked ``price_packed_many`` kernel invocations.

The run times both paths on the acceptance grid (1000 Monte Carlo
scenarios x 100 contracts), asserts the batched path is bit-identical
and >= 5x faster, and — with ``REPRO_WRITE_BENCH=1`` — persists the
numbers to ``BENCH_risk.json`` at the repository root, the first entry of
the repo's benchmark trajectory (uploaded as a CI artifact by the
workflow's non-blocking benchmark job).

It also records ``grid_timing``: the wall-clock of timing the grid
walk's representative card batch with the discrete-event simulation
(``ClusterNode.price``) and with the value-free replay
(``ClusterNode.time``).  Only the cycle equality is asserted.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import write_bench
from repro.cluster.node import ClusterNode
from repro.risk import ScenarioRiskEngine, make_book, monte_carlo
from repro.workloads.scenarios import PaperScenario

N_SCENARIOS = 1000
N_POSITIONS = 100
SPEEDUP_FLOOR = 5.0
BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_risk.json"
#: Bump when the BENCH_risk.json payload shape changes.
BENCH_SCHEMA_VERSION = 2


def _wall(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _best_of_interleaved(slow, fast, rounds: int) -> tuple[float, float]:
    """Best wall-clock of each path over ``rounds`` alternating rounds.

    Each round times ``slow`` once and ``fast`` twice back to back, so a
    busy spell on a shared CI host lands on both paths instead of
    deflating the ratio of whichever one it happened to hit.
    """
    best_slow = best_fast = float("inf")
    for _ in range(rounds):
        best_slow = min(best_slow, _wall(slow))
        best_fast = min(best_fast, _wall(fast), _wall(fast))
    return best_slow, best_fast


@pytest.fixture(scope="module")
def grid():
    sc = PaperScenario(n_options=N_POSITIONS)
    book = make_book("heterogeneous", N_POSITIONS, seed=7)
    engine = ScenarioRiskEngine(book, scenario=sc, n_cards=1)
    shocks = monte_carlo(
        engine.yield_curve,
        engine.hazard_curve,
        N_SCENARIOS,
        seed=7,
        recovery_vol=0.05,
    )
    return engine, shocks


@pytest.fixture(scope="module")
def measured(grid):
    engine, shocks = grid
    looped = engine.revalue(shocks, with_timing=False, batch=False)
    batched = engine.revalue(shocks, with_timing=False, batch=True)
    looped_s, batched_s = _best_of_interleaved(
        lambda: engine.revalue(shocks, with_timing=False, batch=False),
        lambda: engine.revalue(shocks, with_timing=False, batch=True),
        rounds=8,
    )
    return looped, batched, looped_s, batched_s


@pytest.fixture(scope="module")
def grid_timing(grid):
    """The representative card batch, simulated and replayed.

    First requested after ``measured`` (tests run in file order), so the
    looped/batched timing runs exactly as it would without it.
    """
    engine, _ = grid
    node = ClusterNode(0, engine.scenario, n_engines=engine.n_engines)
    args = (engine.portfolio.options, engine.yield_curve, engine.hazard_curve)
    des_s, replay_s = _best_of_interleaved(
        lambda: node.price(*args), lambda: node.time(*args), rounds=5
    )
    return node.price(*args), node.time(*args), des_s, replay_s


def test_batched_grid_is_bit_identical(measured):
    looped, batched, _, _ = measured
    np.testing.assert_array_equal(batched.pv, looped.pv)
    np.testing.assert_array_equal(batched.pnl, looped.pnl)


def test_batched_grid_speedup_and_trajectory(measured, grid_timing):
    """>= 5x on the 1000 x 100 grid, recorded to BENCH_risk.json."""
    _, _, looped_s, batched_s = measured
    _, _, des_s, replay_s = grid_timing
    speedup = looped_s / batched_s
    payload = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "benchmark": "scenario_batching",
        "grid": {"n_scenarios": N_SCENARIOS, "n_positions": N_POSITIONS},
        "looped_seconds": round(looped_s, 6),
        "batched_seconds": round(batched_s, 6),
        "speedup": round(speedup, 2),
        "scenarios_per_sec_looped": round(N_SCENARIOS / looped_s, 1),
        "scenarios_per_sec_batched": round(N_SCENARIOS / batched_s, 1),
        "repricings_per_sec_batched": round(
            N_SCENARIOS * N_POSITIONS / batched_s, 1
        ),
        "chunk_size": "auto",
        "grid_timing": {
            "des_seconds": round(des_s, 6),
            "replay_seconds": round(replay_s, 6),
        },
    }
    written = write_bench(BENCH_PATH, payload)
    print("\nScenario-grid revaluation (1000 scenarios x 100 contracts):")
    print(f"  looped : {looped_s:.3f}s ({N_SCENARIOS / looped_s:,.0f} scen/s)")
    print(f"  batched: {batched_s:.3f}s ({N_SCENARIOS / batched_s:,.0f} scen/s)")
    print(f"  speedup: {speedup:.1f}x  ->  {written}")
    print(f"  grid timing: DES {des_s:.3f}s, replay {replay_s:.3f}s")
    assert speedup >= SPEEDUP_FLOOR


def test_chunked_runs_match_auto(grid):
    """Explicit chunk sizes never change the numbers, only the memory."""
    engine, shocks = grid
    auto = engine.revalue(shocks, with_timing=False, batch=True)
    for chunk in (17, 256):
        chunked = engine.revalue(
            shocks, with_timing=False, batch=True, chunk_size=chunk
        )
        np.testing.assert_array_equal(chunked.pv, auto.pv)


def test_grid_timing_replay_matches_des(grid_timing):
    priced, timed, _, _ = grid_timing
    assert timed.kernel_cycles == priced.kernel_cycles
    assert timed.pcie_seconds == priced.pcie_seconds
    assert timed.commands == sum(s.commands for s in priced.sim_results)
