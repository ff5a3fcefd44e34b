"""Shared fixtures for the serving tests: a small, fast server."""

from __future__ import annotations

import pytest

from repro.cluster.batching import BatchQueue
from repro.risk.engine import make_book
from repro.serving import QuoteServer, make_market_tape, make_request_stream
from repro.workloads.scenarios import PaperScenario

N_POSITIONS = 12
N_STATES = 48


@pytest.fixture(scope="module")
def serving_scenario() -> PaperScenario:
    """Short rate tables so calibration and numerics stay fast."""
    return PaperScenario(n_rates=64, n_options=N_POSITIONS)


@pytest.fixture(scope="module")
def tape(serving_scenario):
    return make_market_tape(
        serving_scenario.yield_curve(),
        serving_scenario.hazard_curve(),
        N_STATES,
        seed=3,
    )


def make_server(serving_scenario, tape) -> QuoteServer:
    """A fresh small server (cold quote-surface memo) over ``tape``."""
    return QuoteServer(
        make_book("heterogeneous", N_POSITIONS, seed=5),
        tape,
        scenario=serving_scenario,
        n_cards=2,
        n_engines=2,
        queue=BatchQueue(max_batch=16, linger_s=1e-3),
        queue_depth=256,
    )


@pytest.fixture(scope="module")
def server(serving_scenario, tape) -> QuoteServer:
    return make_server(serving_scenario, tape)


@pytest.fixture(scope="module")
def stream(server):
    return make_request_stream(
        600,
        rate_hz=2000.0,
        n_states=N_STATES,
        n_positions=N_POSITIONS,
        var_rows=6,
        seed=11,
    )
