"""Benchmark: the gateway's quote cache versus raw fan-out at 10x load.

The gateway's reason to exist: at 600k req/s offered — ten times the
serving benchmark's 60k — no affordable card pool can reprice every
quote individually, but most quotes ask the same question (same market
state, same option) within a tick window.  The market-state-keyed cache
answers repeats in microseconds and single-flights concurrent misses,
so the cards only see the distinct working set.

The run replays an identical 16k-request multi-tenant trace (Zipf row
and option skew, three tenant tiers, a live tick stream invalidating
cached rows) through the same two-server gateway twice — cache on and
cache off — and compares **goodput**.  Because cached replies replay
the exact `(kind, rows, option)` value the kernels produced, the cache
moves timing and never numbers: every request id completed by both runs
carries a bit-identical value.  Acceptance floors: cache hit rate above
0.5 and a 5x goodput ratio; with ``REPRO_WRITE_BENCH=1`` the numbers
are persisted to ``BENCH_gateway.json`` (uploaded as a CI artifact next
to ``BENCH_serving.json`` and ``BENCH_risk.json``).

Everything asserted here is *simulated* time, so the benchmark is
deterministic — host wall-clock is reported but never asserted.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from benchmarks.conftest import lane_housekeeping, write_bench
from repro.analysis.gateway import generate_gateway_report
from repro.workloads.scenarios import PaperScenario

N_REQUESTS = 16_000
RATE_HZ = 600_000.0
N_SERVERS = 2
N_CARDS = 1  # per server: the pool the cache must stretch
N_POSITIONS = 32
N_STATES = 64
N_TICKS = 50
TICK_RATE_HZ = 2_000.0
QUEUE_DEPTH = 8192
SEED = 7
HIT_RATE_FLOOR = 0.5
GOODPUT_RATIO_FLOOR = 5.0
BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_gateway.json"
#: Bump when the BENCH_gateway.json payload shape changes.
BENCH_SCHEMA_VERSION = 2


def _report(cache: bool):
    sc = PaperScenario(n_rates=256, n_options=N_POSITIONS)
    return generate_gateway_report(
        sc,
        n_requests=N_REQUESTS,
        rate_hz=RATE_HZ,
        n_servers=N_SERVERS,
        n_cards=N_CARDS,
        cache=cache,
        n_ticks=N_TICKS,
        tick_rate_hz=TICK_RATE_HZ,
        queue_depth=QUEUE_DEPTH,
        n_states=N_STATES,
        seed=SEED,
    )


@pytest.fixture(scope="module")
def measured():
    with lane_housekeeping(N_REQUESTS) as housekeeping:
        cached = _report(cache=True)
    return cached, _report(cache=False), housekeeping


def _row(result) -> dict:
    return {
        "goodput_rps": round(result.goodput_rps, 1),
        "throughput_rps": round(result.throughput_rps, 1),
        "shed_rate": round(result.shed_rate, 4),
        "deadline_hit_rate": round(result.deadline_hit_rate, 4),
        "p50_ms": round(result.latency.p50_s * 1e3, 3),
        "p95_ms": round(result.latency.p95_s * 1e3, 3),
        "p99_ms": round(result.latency.p99_s * 1e3, 3),
        "n_completed": result.n_completed,
        "n_shed": result.n_shed,
    }


def test_cached_values_bit_identical(measured):
    """The cache moves timing, never numbers."""
    cached, uncached, _ = measured
    a = {r.request_id: r.value for r in cached.result.responses}
    b = {r.request_id: r.value for r in uncached.result.responses}
    common = set(a) & set(b)
    assert len(common) > N_REQUESTS // 4
    assert all(a[i] == b[i] for i in common)


def test_cache_economics_and_trajectory(measured):
    """Hit rate > 0.5 and >= 5x goodput at 600k req/s offered,
    recorded to BENCH_gateway.json."""
    cached, uncached, housekeeping = measured
    on, off = cached.result, uncached.result
    ratio = on.goodput_rps / max(off.goodput_rps, 1e-9)
    payload = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "benchmark": "gateway_cache",
        "offered": {
            "n_requests": N_REQUESTS,
            "rate_hz": RATE_HZ,
            "n_servers": N_SERVERS,
            "n_cards": N_CARDS,
            "n_positions": N_POSITIONS,
            "n_states": N_STATES,
            "n_ticks": N_TICKS,
            "tick_rate_hz": TICK_RATE_HZ,
            "queue_depth": QUEUE_DEPTH,
        },
        "cached": {
            **_row(on),
            "cache_hit_rate": round(on.cache_hit_rate, 4),
            "cache_dedup_rate": round(on.cache_dedup_rate, 4),
            "n_cache_invalidations": on.n_cache_invalidations,
        },
        "uncached": _row(off),
        "goodput_ratio": round(ratio, 2),
        "tenants": [
            {
                "tenant": t.tenant,
                "tier": t.tier,
                "goodput_rps": round(t.goodput_rps, 1),
                "n_completed": t.n_completed,
                "n_shed": t.n_shed,
                "cache_hits": t.n_cache_hits,
            }
            for t in on.tenants
        ],
        "host_wall_seconds": {
            "cached": round(cached.host_seconds, 3),
            "uncached": round(uncached.host_seconds, 3),
        },
        # Per-arrival lane housekeeping of the cached run (host work,
        # counted from outside the program).
        "lane_housekeeping": housekeeping,
    }
    written = write_bench(BENCH_PATH, payload)
    print(f"\nGateway goodput at {RATE_HZ:,.0f} req/s offered "
          f"({N_REQUESTS} requests, {N_SERVERS}x{N_CARDS} cards):")
    print(f"  cache off: {off.goodput_rps:10,.0f} req/s goodput, "
          f"p99 {off.latency.p99_s * 1e3:7.2f} ms, "
          f"shed {off.shed_rate:.1%}")
    print(f"  cache on : {on.goodput_rps:10,.0f} req/s goodput, "
          f"p99 {on.latency.p99_s * 1e3:7.2f} ms, "
          f"shed {on.shed_rate:.1%} "
          f"(hit {on.cache_hit_rate:.1%}, dedup {on.cache_dedup_rate:.1%})")
    print(f"  ratio    : {ratio:.1f}x  ->  {written}")
    print(f"  lane housekeeping per arrival: {housekeeping}")
    assert on.cache_hit_rate > HIT_RATE_FLOOR
    assert ratio >= GOODPUT_RATIO_FLOOR


def test_cache_keeps_tail_latency_bounded(measured):
    """Hits answer in microseconds; the cached tail beats the uncached
    tail even while completing far more work."""
    cached, uncached, _ = measured
    on, off = cached.result, uncached.result
    assert on.latency.p50_s < off.latency.p50_s
    assert on.n_deadline_met > off.n_deadline_met
