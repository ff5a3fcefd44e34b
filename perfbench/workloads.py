"""The benchmark's three workloads: inputs, system, timed call, checks.

Each workload is an open-loop replay on the simulated clock (or, for
``risk_grid``, the overnight batch), built from ``--seed`` alone and
replayed offline on the host in one process and one thread.

Constructing a workload (``Workload(seed)``) makes one trace's inputs
from the seed and builds a fresh system around them; :meth:`run` is the
timed call; :meth:`sim_outputs` reads the deterministic simulated
outputs, which :func:`pooled_outputs` pools over a run's ``TRACES``
traces; :meth:`check` verifies conservation and a seeded sample of
values bit-for-bit against the program's own unbatched reference paths.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.serving import STREAM_SEED_OFFSET, TAPE_SEED_OFFSET
from repro.cluster.batching import BatchQueue
from repro.core.vector_pricing import PackedPortfolio
from repro.gateway.engine import Gateway
from repro.gateway.tenancy import DEFAULT_TENANTS
from repro.gateway.workload import make_tenant_stream, make_tick_stream
from repro.risk import ScenarioRiskEngine, make_book, monte_carlo
from repro.risk.measures import tail_measures
from repro.risk.scenarios import ScenarioSet
from repro.serving import QuoteServer, make_market_tape, make_request_stream
from repro.workloads.scenarios import PaperScenario

#: Responses (or scenarios) re-priced by the unbatched reference path.
CHECK_SAMPLE = 48

#: The book is the desk's fixed portfolio, part of each workload's
#: definition; ``--seed`` drives the market states, traffic and shocks.
#: A seeded book moves the kernel's padded schedule length and the cost
#: model's calibration batch, which would swamp every other effect.
BOOK_SEED = 7

#: The gateway's tick schedule is fixed for the same reason: the stream
#: is Zipf-skewed onto low rows, so whether one of the 50 uniform ticks
#: lands early on row 0 flips the cache hit rate between ~0.3 and ~0.6.
TICK_SEED = 7


#: Span name of every input generator in the traced run.
GEN = "workloads.gen"


def _tracing(trace):
    """``trace.wrap``, or the identity when the run is untraced."""
    return trace.wrap if trace is not None else (lambda _name, fn: fn)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[k - 1]


def pooled_outputs(parts: list[dict]) -> dict:
    """End-to-end simulated outputs pooled over a run's traces.

    Every trace contributes its deadline-met count, simulated span,
    card cells, latencies and shed/failed counts; rates are pooled
    totals over pooled spans, percentiles come from the pooled latencies.
    """
    latencies = sorted(x for p in parts for x in p["latencies_s"])
    span = sum(p["span_s"] for p in parts)
    offered = sum(p["offered"] for p in parts)
    lost = sum(p["shed"] + p["failed"] for p in parts)
    return {
        "sim_goodput_rps": sum(p["met"] for p in parts) / span,
        "sim_p50_ms": percentile(latencies, 0.5) * 1e3,
        "sim_p999_ms": percentile(latencies, 0.999) * 1e3,
        "sim_repricings_per_s": sum(p["cells"] for p in parts) / span,
        "fail_rate": lost / offered,
        "latency_samples": len(latencies),
    }


def _serving_outputs(result, cards, n_ops: int) -> dict:
    return {
        "latencies_s": [x.latency_s for x in result.responses],
        "met": result.n_deadline_met,
        "span_s": result.span_seconds,
        "cells": sum(c.n_cells for c in cards),
        "offered": n_ops,
        "shed": len(result.sheds),
        "failed": result.n_failed,
    }


def needed_cells(responses, requests_by_id, n_positions: int) -> int:
    """Kernel cells the requests needed, deduplicated within each batch.

    A quote needs one ``(row, option)`` cell; a reval or VaR request
    needs every position of each of its rows.
    """
    by_batch: dict[int, set] = {}
    for resp in responses:
        req = requests_by_id[resp.request_id]
        cells = by_batch.setdefault(resp.batch_id, set())
        for row in req.rows:
            if req.kind == "quote":
                cells.add((row, req.option_index))
            else:
                cells.update((row, p) for p in range(n_positions))
    return sum(len(cells) for cells in by_batch.values())


def _check_serving(result, requests, price_one, rng, tenants=None) -> list:
    """Conservation, causality and sampled bit-identity of a replay."""
    problems = []
    offered = {r.request_id for r in requests}
    answered = [r.request_id for r in result.responses]
    shed = [s.request.request_id for s in result.sheds]
    failed = [f.request.request_id for f in result.fails]
    outcomes = answered + shed + failed
    if len(outcomes) != len(offered) or set(outcomes) != offered:
        problems.append(
            f"conservation: offered {len(offered)} != completed "
            f"{len(answered)} + shed {len(shed)} + failed {len(failed)}"
        )
    if result.n_offered != len(requests):
        problems.append(f"n_offered {result.n_offered} != {len(requests)}")
    for resp in result.responses:
        if not resp.arrival_s <= resp.formed_s <= resp.completion_s:
            problems.append(f"causality: request {resp.request_id}")
            break
    if tenants is not None:
        for t in tenants:
            n = sum(1 for r in requests if r.tenant == t.tenant)
            if n != t.n_completed + t.n_shed + t.n_failed:
                problems.append(
                    f"conservation: tenant {t.tenant} offered {n} != "
                    f"{t.n_completed} + {t.n_shed} + {t.n_failed}"
                )
    by_id = {r.request_id: r for r in requests}
    picks = rng.choice(
        len(result.responses),
        size=min(CHECK_SAMPLE, len(result.responses)),
        replace=False,
    )
    for i in sorted(picks):
        resp = result.responses[i]
        want = price_one(by_id[resp.request_id])
        if resp.value != want:  # bit-for-bit, NaN fails too
            problems.append(
                f"value: request {resp.request_id} served {resp.value!r}, "
                f"individual reprice gives {want!r}"
            )
    return problems


# ----------------------------------------------------------------------
class ServeQuotes:
    """One quote server, 4 cards x 5 engines, kernel-bound."""

    name = "serve_quotes"
    TRACES = 4
    N_REQUESTS = 12_000
    RATE_HZ = 60_000.0
    N_POSITIONS = 32
    N_STATES = 256
    N_CARDS = 4

    def __init__(self, seed: int, trace=None) -> None:
        wrap = _tracing(trace)
        self.scenario = PaperScenario(n_rates=256, n_options=self.N_POSITIONS)
        self.book = wrap(GEN, make_book)(
            "heterogeneous", self.N_POSITIONS, seed=BOOK_SEED
        )
        self.tape = wrap(GEN, make_market_tape)(
            self.scenario.yield_curve(), self.scenario.hazard_curve(),
            self.N_STATES, seed=seed + TAPE_SEED_OFFSET,
        )
        self.requests = wrap(GEN, make_request_stream)(
            self.N_REQUESTS, rate_hz=self.RATE_HZ, n_states=self.N_STATES,
            n_positions=self.N_POSITIONS, seed=seed + STREAM_SEED_OFFSET,
        )
        self.server = QuoteServer(
            self.book, self.tape, scenario=self.scenario,
            n_cards=self.N_CARDS, n_engines=5,
            queue=BatchQueue(max_batch=256, linger_s=5e-4), queue_depth=2048,
        )
        self.n_ops = len(self.requests)
        self.result = None

    def run(self) -> None:
        self.result = self.server.serve(self.requests)

    def sim_outputs(self) -> dict:
        return _serving_outputs(self.result, self.result.cards, self.n_ops)

    def check(self, rng) -> list:
        return _check_serving(
            self.result, self.requests,
            lambda req: self.server.price_individually([req])[0], rng,
        )

    def layer_counts(self) -> dict:
        r = self.result
        by_id = {q.request_id: q for q in self.requests}
        return {
            "dispatches": r.n_dispatches,
            "batch_requests": r.mean_batch_requests * r.n_dispatches,
            "batch_rows": r.mean_batch_rows * r.n_dispatches,
            "needed_cells": needed_cells(r.responses, by_id, self.N_POSITIONS),
            "max_len": PackedPortfolio.pack(self.book.options).max_len,
        }


class GatewayZipf:
    """Gateway over 2 servers x 1 card, three tenants, Zipf 1.2, 2 kHz ticks."""

    name = "gateway_zipf"
    TRACES = 4
    N_REQUESTS = 16_000
    RATE_HZ = 600_000.0
    N_SERVERS = 2
    N_POSITIONS = 32
    N_STATES = 64
    N_TICKS = 50
    TICK_RATE_HZ = 2_000.0
    QUEUE_DEPTH = 8192

    def __init__(self, seed: int, trace=None) -> None:
        wrap = _tracing(trace)
        self.scenario = PaperScenario(n_rates=256, n_options=self.N_POSITIONS)
        self.book = wrap(GEN, make_book)(
            "heterogeneous", self.N_POSITIONS, seed=BOOK_SEED
        )
        self.tape = wrap(GEN, make_market_tape)(
            self.scenario.yield_curve(), self.scenario.hazard_curve(),
            self.N_STATES, seed=seed + TAPE_SEED_OFFSET,
        )
        self.requests = wrap(GEN, make_tenant_stream)(
            self.N_REQUESTS, rate_hz=self.RATE_HZ, n_states=self.N_STATES,
            n_positions=self.N_POSITIONS, tenants=DEFAULT_TENANTS,
            row_exponent=1.2, option_exponent=1.2,
            seed=seed + STREAM_SEED_OFFSET,
        )
        self.ticks = wrap(GEN, make_tick_stream)(
            self.N_TICKS, rate_hz=self.TICK_RATE_HZ, n_states=self.N_STATES,
            seed=TICK_SEED,
        )
        self.gateway = Gateway(
            self.book, self.tape, scenario=self.scenario,
            n_servers=self.N_SERVERS, n_cards=1, n_engines=5,
            queue=BatchQueue(max_batch=128, linger_s=1e-3),
            queue_depth=self.QUEUE_DEPTH, tenants=DEFAULT_TENANTS, cache=True,
        )
        self.n_ops = len(self.requests)
        self.result = None

    def run(self) -> None:
        self.result = self.gateway.serve(self.requests, ticks=self.ticks)

    def sim_outputs(self) -> dict:
        cards = [c for s in self.result.servers for c in s.cards]
        return _serving_outputs(self.result, cards, self.n_ops)

    def check(self, rng) -> list:
        server = self.gateway.servers[0]
        return _check_serving(
            self.result, self.requests,
            lambda req: server.price_individually([req])[0], rng,
            tenants=self.result.tenants,
        )

    def layer_counts(self) -> dict:
        r = self.result
        by_id = {q.request_id: q for q in self.requests}
        return {
            "dispatches": sum(s.n_dispatches for s in r.servers),
            "batch_requests": sum(
                s.mean_batch_requests * s.n_dispatches for s in r.servers
            ),
            "batch_rows": sum(
                s.mean_batch_rows * s.n_dispatches for s in r.servers
            ),
            "needed_cells": sum(
                needed_cells(s.responses, by_id, self.N_POSITIONS)
                for s in r.servers
            ),
            "max_len": PackedPortfolio.pack(self.book.options).max_len,
            "cache_hits": r.n_cache_hits,
            "cache_joins": r.n_cache_joins,
            "cache_invalidations": r.n_cache_invalidations,
            "tenants": {
                t.tenant: {
                    "goodput_rps": t.goodput_rps,
                    "p99_ms": t.latency.p99_s * 1e3,
                    "shed": t.n_shed,
                }
                for t in r.tenants
            },
        }


class RiskGrid:
    """The overnight batch: 100 positions x 1000 MC scenarios on 4 cards."""

    name = "risk_grid"
    TRACES = 1
    N_POSITIONS = 100
    N_SCENARIOS = 1000
    N_CARDS = 4
    CONFIDENCES = (0.95, 0.99)

    def __init__(self, seed: int, trace=None) -> None:
        wrap = _tracing(trace)
        self.scenario = PaperScenario(n_options=self.N_POSITIONS)
        self.book = wrap(GEN, make_book)(
            "heterogeneous", self.N_POSITIONS, seed=BOOK_SEED
        )
        self.engine = ScenarioRiskEngine(
            self.book, scenario=self.scenario, n_cards=self.N_CARDS
        )
        self.shocks = wrap(GEN, monte_carlo)(
            self.engine.yield_curve, self.engine.hazard_curve,
            self.N_SCENARIOS, seed=seed, recovery_vol=0.05,
        )
        self.n_ops = self.N_SCENARIOS * self.N_POSITIONS
        self._measures = wrap("risk.measures", tail_measures)
        self.revaluation = None
        self.measures = None

    def run(self) -> None:
        self.revaluation = self.engine.revalue(self.shocks)
        self.measures = self._measures(self.revaluation.pnl, self.CONFIDENCES)

    def sim_outputs(self) -> dict:
        timing = self.revaluation.timing
        # The grid is one batch request: its latency is the makespan, and
        # every scenario completes (there is no deadline to miss).
        return {
            "latencies_s": [timing.makespan_seconds],
            "met": self.N_SCENARIOS,
            "span_s": timing.makespan_seconds,
            "cells": self.n_ops,
            "offered": self.n_ops,
            "shed": 0,
            "failed": 0,
            "var_es": [(m.var, m.es) for m in self.measures],
        }

    def check(self, rng) -> list:
        problems = []
        rev = self.revaluation
        if rev.pv.shape != (self.N_SCENARIOS, self.N_POSITIONS):
            problems.append(f"conservation: pv shape {rev.pv.shape}")
        if not np.all(np.isfinite(rev.pv)):
            problems.append("value: non-finite PVs")
        for m in self.measures:
            if not m.var <= m.es:
                problems.append(f"measures: VaR {m.var} > ES {m.es}")
        picks = sorted(rng.choice(self.N_SCENARIOS, CHECK_SAMPLE, replace=False))
        sample = ScenarioSet(
            name="check", base_yield=self.shocks.base_yield,
            base_hazard=self.shocks.base_hazard,
            scenarios=tuple(self.shocks.scenarios[i] for i in picks),
        )
        ref = self.engine.revalue(sample, with_timing=False, batch=False)
        for k, i in enumerate(picks):
            if not np.array_equal(ref.pv[k], rev.pv[i]):
                problems.append(f"value: scenario {i} differs from batch=False")
        return problems

    def layer_counts(self) -> dict:
        return {
            "dispatches": 0,
            "batch_requests": 0,
            "batch_rows": 0,
            "needed_cells": self.n_ops,
            "max_len": PackedPortfolio.pack(self.book.options).max_len,
        }


WORKLOADS = {w.name: w for w in (ServeQuotes, GatewayZipf, RiskGrid)}
