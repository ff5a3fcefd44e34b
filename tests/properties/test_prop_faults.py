"""Property tests for fault injection: conservation and identity.

Two load-bearing invariants across schedulers × fault plans:

* **Conservation** — every admitted unit of work finalises exactly once:
  serving pins ``offered == completed + shed + failed`` and the risk
  grid pins ``scenarios == completed + failed``, no matter how often the
  rows or chunks were re-dispatched.  The grid also keeps every card's
  busy windows disjoint and its utilisation within ``[0, 1]``.
* **Zero-fault identity** — ``faults=None`` and an empty plan take the
  legacy code path byte-for-byte, so resilience machinery costs nothing
  when it is not in play.
"""

from __future__ import annotations

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.batching import BatchQueue
from repro.faults import CardCrash, CardSlowdown, FaultPlan
from repro.risk.engine import make_book
from repro.risk.sharding import (
    FaultedClusterTiming,
    shard_scenarios,
    simulate_grid_run,
)
from repro.serving import QuoteServer, make_market_tape, make_request_stream
from repro.telemetry import Telemetry
from repro.workloads.scenarios import PaperScenario

N_POSITIONS = 10
N_STATES = 32

SCHEDULERS = ["round-robin", "least-loaded", "work-stealing"]

#: Serving plans: a repairable crash, a permanent one, a crash buried
#: under a straggler (forces mid-window failures and retries), a link
#: outage, and a correlated double failure.
SERVE_PLANS = [
    "crash:card=1,at=0.05,repair=0.05",
    "crash:card=0,at=0.04",
    "slow:card=1,at=0.005,for=0.06,factor=80;crash:card=1,at=0.03,repair=0.03",
    "linkout:at=0.05,for=0.02",
    "correlated:cards=0+1,at=0.1,repair=0.05",
]

#: Grid plans on the risk-sharding timescale (batch quanta of ~ms).
GRID_PLANS = [
    "crash:card=1,at=0.0005,repair=0.0005",
    "crash:card=2,at=0.0003",
    "slow:card=0,at=0.0,for=0.002,factor=4",
    "correlated:cards=1+2,at=0.0004,repair=0.0006",
]

#: Hypothesis-drawn grid faults on the same timescale: crashes (some
#: permanent) and straggler windows over a ~1.4 ms fault-free makespan.
_instant = st.floats(min_value=0.0, max_value=0.0016)
_span = st.floats(min_value=1e-5, max_value=0.002)
grid_event = st.one_of(
    st.builds(
        CardCrash,
        card=st.integers(0, 3),
        at_s=_instant,
        repair_s=st.one_of(st.none(), _span),
    ),
    st.builds(
        CardSlowdown,
        card=st.integers(0, 3),
        at_s=_instant,
        duration_s=_span,
        factor=st.floats(min_value=1.5, max_value=8.0),
    ),
)


@pytest.fixture(scope="module")
def scenario():
    return PaperScenario(n_rates=64, n_options=N_POSITIONS)


@pytest.fixture(scope="module")
def tape(scenario):
    return make_market_tape(
        scenario.yield_curve(), scenario.hazard_curve(), N_STATES, seed=9
    )


@pytest.fixture(scope="module")
def book():
    return make_book("heterogeneous", N_POSITIONS, seed=5)


@pytest.fixture(scope="module")
def stream():
    return make_request_stream(
        400,
        rate_hz=3000.0,
        n_states=N_STATES,
        n_positions=N_POSITIONS,
        var_rows=5,
        seed=29,
    )


def _server(scenario, tape, book, scheduler: str) -> QuoteServer:
    return QuoteServer(
        book,
        tape,
        scenario=scenario,
        n_cards=2,
        n_engines=2,
        scheduler=scheduler,
        queue=BatchQueue(max_batch=16, linger_s=1e-3),
        queue_depth=256,
    )


class TestServingConservation:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("spec", SERVE_PLANS)
    def test_offered_equals_completed_plus_shed_plus_failed(
        self, scenario, tape, book, stream, scheduler, spec
    ):
        srv = _server(scenario, tape, book, scheduler)
        res = srv.serve(stream, faults=FaultPlan.from_spec(spec, seed=7))
        assert res.n_offered == res.n_completed + res.n_shed + res.n_failed
        assert res.n_completed == len(res.responses)
        assert res.n_failed == len(res.fails)
        # Every request id appears exactly once across the three bins.
        ids = (
            [r.request_id for r in res.responses]
            + [s.request.request_id for s in res.sheds]
            + [f.request.request_id for f in res.fails]
        )
        assert sorted(ids) == [r.request_id for r in stream]

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_zero_fault_identity(self, scenario, tape, book, stream, scheduler):
        srv = _server(scenario, tape, book, scheduler)
        legacy = srv.serve(stream)
        empty = srv.serve(stream, faults=FaultPlan())
        assert empty == legacy
        assert srv.last_fault_report is None


def _grid(scenario, book, scheduler: str, plan: FaultPlan,
          n_scenarios: int = 48):
    telemetry = Telemetry.recording()
    timing = simulate_grid_run(
        shard_scenarios(n_scenarios, 4, scheduler=scheduler),
        book.options,
        scenario.yield_curve(),
        scenario.hazard_curve(),
        scenario=scenario,
        policy=scheduler,
        telemetry=telemetry,
        faults=plan,
    )
    return timing, telemetry


def _assert_grid_invariants(timing, telemetry, n_scenarios: int) -> None:
    assert isinstance(timing, FaultedClusterTiming)
    assert timing.n_scenarios == n_scenarios
    assert (
        sum(c.n_scenarios for c in timing.cards) + timing.n_failed_scenarios
        == n_scenarios
    )
    assert timing.wasted_seconds >= 0.0
    windows = defaultdict(list)
    for span in telemetry.spans:
        windows[span.track].append((span.start_s, span.end_s))
    for card in timing.cards:
        assert 0.0 <= card.utilisation <= 1.0
        busy = sorted(windows[f"card{card.card_id}"])
        for (_, end), (start, _) in zip(busy, busy[1:]):
            assert start >= end  # no overlapping busy windows
        assert sum(e - s for s, e in busy) == pytest.approx(card.seconds)


class TestGridConservation:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("spec", GRID_PLANS)
    def test_scenarios_all_accounted(
        self, scenario, book, scheduler, spec
    ):
        plan = FaultPlan.from_spec(spec, seed=7)
        timing, telemetry = _grid(scenario, book, scheduler, plan)
        _assert_grid_invariants(timing, telemetry, 48)

    @given(
        events=st.lists(grid_event, min_size=1, max_size=4),
        scheduler=st.sampled_from(SCHEDULERS),
    )
    @settings(max_examples=60, deadline=None)
    def test_drawn_plans_conserve(self, scenario, book, events, scheduler):
        timing, telemetry = _grid(
            scenario, book, scheduler, FaultPlan(events=tuple(events))
        )
        _assert_grid_invariants(timing, telemetry, 48)

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_zero_fault_identity(self, scenario, book, scheduler):
        assignment = shard_scenarios(48, 4, scheduler=scheduler)
        kw = dict(
            scenario=scenario,
            policy=scheduler,
        )
        legacy = simulate_grid_run(
            assignment, book.options, scenario.yield_curve(),
            scenario.hazard_curve(), **kw,
        )
        empty = simulate_grid_run(
            assignment, book.options, scenario.yield_curve(),
            scenario.hazard_curve(), faults=FaultPlan(), **kw,
        )
        assert empty == legacy
        assert type(empty) is type(legacy)

    def test_all_cards_dead_fails_everything_remaining(self, scenario, book):
        assignment = shard_scenarios(24, 2)
        timing = simulate_grid_run(
            assignment, book.options, scenario.yield_curve(),
            scenario.hazard_curve(), scenario=scenario, policy="least-loaded",
            faults=FaultPlan.from_spec("correlated:cards=0+1,at=0.0002"),
        )
        done = timing.n_scenarios - timing.n_failed_scenarios
        assert timing.n_failed_scenarios > 0
        assert 0 <= done < timing.n_scenarios


class TestDeterminism:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_faulted_serve_reproducible(
        self, scenario, tape, book, stream, scheduler
    ):
        plan = FaultPlan.from_spec(SERVE_PLANS[2], seed=11)
        a = _server(scenario, tape, book, scheduler).serve(stream, faults=plan)
        b = _server(scenario, tape, book, scheduler).serve(stream, faults=plan)
        assert a == b

    def test_faulted_grid_reproducible(self, scenario, book):
        assignment = shard_scenarios(48, 4)
        runs = [
            simulate_grid_run(
                assignment, book.options, scenario.yield_curve(),
                scenario.hazard_curve(), scenario=scenario,
                policy="least-loaded",
                faults=FaultPlan.from_spec(GRID_PLANS[0], seed=7),
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
