"""Benchmark: coalesced micro-batching versus batch-size-1 dispatch.

The serving layer's reason to exist: every dispatch pays a fixed
overhead (kernel invocation + PCIe setup + host scheduling), so pricing
requests one at a time caps a card's request rate at roughly
``1 / overhead`` regardless of how small the requests are.  Coalescing
amortises that overhead across a micro-batch — the same economics the
paper exploits by streaming whole option batches through one kernel
invocation, applied to live traffic.

The run replays an identical 12k-request trace (same offered load, same
seed) through the quote server twice — coalesced (size-or-linger) and
batch-size-1 — and compares **goodput**: responses that met their
deadline, per second.  Under overload the batch-1 server queues, misses
deadlines and sheds; the coalesced server keeps up.  The acceptance
floor is a 3x goodput ratio; with ``REPRO_WRITE_BENCH=1`` the numbers
are persisted to ``BENCH_serving.json`` (uploaded as a CI artifact next
to ``BENCH_risk.json``).

Everything asserted here is *simulated* time, so the benchmark is
deterministic — host wall-clock is reported but never asserted.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from benchmarks.conftest import lane_housekeeping, write_bench
from repro.cluster.batching import BatchQueue
from repro.risk.engine import make_book
from repro.serving import QuoteServer, make_market_tape, make_request_stream
from repro.workloads.scenarios import PaperScenario

N_REQUESTS = 12_000
RATE_HZ = 60_000.0
N_POSITIONS = 32
N_STATES = 256
N_CARDS = 4
GOODPUT_RATIO_FLOOR = 3.0
BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_serving.json"
#: Bump when the BENCH_serving.json payload shape changes.
BENCH_SCHEMA_VERSION = 2


@pytest.fixture(scope="module")
def setup():
    sc = PaperScenario(n_rates=256, n_options=N_POSITIONS)
    book = make_book("heterogeneous", N_POSITIONS, seed=7)
    tape = make_market_tape(sc.yield_curve(), sc.hazard_curve(), N_STATES, seed=7)
    requests = make_request_stream(
        N_REQUESTS,
        rate_hz=RATE_HZ,
        n_states=N_STATES,
        n_positions=N_POSITIONS,
        seed=7,
    )
    return sc, book, tape, requests


def _serve(setup, queue: BatchQueue):
    sc, book, tape, requests = setup
    server = QuoteServer(
        book,
        tape,
        scenario=sc,
        n_cards=N_CARDS,
        n_engines=5,
        queue=queue,
        queue_depth=2048,
    )
    t0 = time.perf_counter()
    result = server.serve(requests)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def measured(setup):
    with lane_housekeeping(N_REQUESTS) as housekeeping:
        coalesced, coalesced_wall = _serve(
            setup, BatchQueue(max_batch=256, linger_s=5e-4)
        )
    batch1, batch1_wall = _serve(setup, BatchQueue(max_batch=1, linger_s=0.0))
    return coalesced, batch1, coalesced_wall, batch1_wall, housekeeping


def _row(result) -> dict:
    return {
        "goodput_rps": round(result.goodput_rps, 1),
        "throughput_rps": round(result.throughput_rps, 1),
        "shed_rate": round(result.shed_rate, 4),
        "deadline_hit_rate": round(result.deadline_hit_rate, 4),
        "p50_ms": round(result.latency.p50_s * 1e3, 3),
        "p95_ms": round(result.latency.p95_s * 1e3, 3),
        "p99_ms": round(result.latency.p99_s * 1e3, 3),
        "n_dispatches": result.n_dispatches,
        "mean_batch_requests": round(result.mean_batch_requests, 2),
    }


def test_identical_values_where_both_completed(measured):
    """Coalescing moves timing, never numbers."""
    coalesced, batch1, *_ = measured
    a = {r.request_id: r.value for r in coalesced.responses}
    b = {r.request_id: r.value for r in batch1.responses}
    common = set(a) & set(b)
    assert len(common) > N_REQUESTS // 2
    assert all(a[i] == b[i] for i in common)


def test_goodput_ratio_and_trajectory(measured):
    """>= 3x goodput at the same offered load, recorded to BENCH_serving.json."""
    coalesced, batch1, coalesced_wall, batch1_wall, housekeeping = measured
    ratio = coalesced.goodput_rps / max(batch1.goodput_rps, 1e-9)
    payload = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "benchmark": "serving_coalescing",
        "offered": {
            "n_requests": N_REQUESTS,
            "rate_hz": RATE_HZ,
            "n_cards": N_CARDS,
            "n_positions": N_POSITIONS,
            "n_states": N_STATES,
        },
        "coalesced": _row(coalesced),
        "batch1": _row(batch1),
        "goodput_ratio": round(ratio, 2),
        "host_wall_seconds": {
            "coalesced": round(coalesced_wall, 3),
            "batch1": round(batch1_wall, 3),
        },
        # Per-arrival lane housekeeping of the coalesced run (host work,
        # counted from outside the program).
        "lane_housekeeping": housekeeping,
    }
    written = write_bench(BENCH_PATH, payload)
    print(f"\nServing goodput at {RATE_HZ:,.0f} req/s offered "
          f"({N_REQUESTS} requests, {N_CARDS} cards):")
    print(f"  batch-1  : {batch1.goodput_rps:10,.0f} req/s goodput, "
          f"p99 {batch1.latency.p99_s * 1e3:7.2f} ms, "
          f"shed {batch1.shed_rate:.1%}")
    print(f"  coalesced: {coalesced.goodput_rps:10,.0f} req/s goodput, "
          f"p99 {coalesced.latency.p99_s * 1e3:7.2f} ms, "
          f"shed {coalesced.shed_rate:.1%} "
          f"(mean batch {coalesced.mean_batch_requests:.1f})")
    print(f"  ratio    : {ratio:.1f}x  ->  {written}")
    print(f"  lane housekeeping per arrival: {housekeeping}")
    assert ratio >= GOODPUT_RATIO_FLOOR


def test_coalesced_keeps_latency_bounded(measured):
    """The linger bound shows up in the tail: coalesced p99 stays within
    a few linger windows; batch-1 queues unboundedly under overload."""
    coalesced, batch1, *_ = measured
    assert coalesced.latency.p99_s < 10e-3
    assert batch1.latency.p99_s > coalesced.latency.p99_s
