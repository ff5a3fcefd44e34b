"""Property tests for the serving layer.

The load-bearing invariant: micro-batching is *purely* a
throughput/latency knob.  However requests are coalesced, routed and
chunked, every response value must be bit-identical to pricing that
request alone — the serving counterpart of the risk subsystem's
batch == loop pin.  That holds for a server whose quote-surface memo is
already warm from another trace too, faulted or not.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.batching import BatchQueue
from repro.faults import FaultPlan
from repro.risk.engine import make_book
from repro.serving import QuoteServer, make_market_tape, make_request_stream
from repro.workloads.scenarios import PaperScenario

N_POSITIONS = 10
N_STATES = 32


@pytest.fixture(scope="module")
def scenario():
    return PaperScenario(n_rates=64, n_options=N_POSITIONS)


@pytest.fixture(scope="module")
def tape(scenario):
    return make_market_tape(
        scenario.yield_curve(), scenario.hazard_curve(), N_STATES, seed=9
    )


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


def _server(scenario, tape, **kw) -> QuoteServer:
    kw.setdefault("n_cards", 2)
    kw.setdefault("n_engines", 2)
    return QuoteServer(
        make_book("heterogeneous", N_POSITIONS, seed=5),
        tape,
        scenario=scenario,
        **kw,
    )


def _values(result) -> dict[int, float]:
    return {r.request_id: r.value for r in result.responses}


class TestBatchedBitIdentity:
    def test_batched_equals_individual(self, scenario, tape, stream):
        """Every coalesced response == the one-request-per-kernel-call
        answer, bit for bit."""
        server = _server(
            scenario, tape, queue=BatchQueue(max_batch=32, linger_s=2e-3)
        )
        res = server.serve(stream)
        answered = [r for r in stream if r.request_id in _values(res)]
        individual = server.price_individually(answered)
        batched = _values(res)
        assert len(answered) == len(stream)  # nothing shed at this load
        for req, value in zip(answered, individual):
            assert batched[req.request_id] == value, req

    def test_coalescing_policy_never_changes_values(
        self, scenario, tape, stream
    ):
        """max_batch / linger / chunk_size only move latency, not numbers."""
        policies = [
            dict(queue=BatchQueue(max_batch=1, linger_s=0.0)),
            dict(queue=BatchQueue(max_batch=8, linger_s=1e-3)),
            dict(queue=BatchQueue(max_batch=128, linger_s=5e-3), chunk_size=3),
        ]
        seen = None
        for kw in policies:
            res = _server(scenario, tape, **kw).serve(stream)
            values = _values(res)
            if seen is None:
                seen = values
            else:
                assert values == seen

    def test_card_count_and_scheduler_never_change_values(
        self, scenario, tape, stream
    ):
        seen = None
        for n_cards, policy in [(1, "round-robin"), (3, "least-loaded"),
                                (4, "work-stealing")]:
            res = _server(
                scenario, tape, n_cards=n_cards, scheduler=policy
            ).serve(stream)
            values = _values(res)
            if seen is None:
                seen = values
            else:
                assert values == seen


class TestTimingSanity:
    def test_coalescing_reduces_dispatches(self, scenario, tape, stream):
        one = _server(scenario, tape, queue=BatchQueue(max_batch=1, linger_s=0.0))
        many = _server(
            scenario, tape, queue=BatchQueue(max_batch=64, linger_s=2e-3)
        )
        r1 = one.serve(stream)
        rn = many.serve(stream)
        assert rn.n_dispatches < r1.n_dispatches
        assert rn.mean_batch_requests > 2.0

    def test_responses_respect_simulated_causality(self, scenario, tape, stream):
        res = _server(scenario, tape).serve(stream)
        by_id = {r.request_id: r for r in stream}
        for resp in res.responses:
            req = by_id[resp.request_id]
            assert resp.formed_s >= req.arrival_s
            # A linger timer can fire no later than arrival + linger.
            assert resp.formed_s <= req.arrival_s + 1e-3 + 1e-12

    def test_card_busy_windows_disjoint(self, scenario, tape, stream):
        """Total busy time per card never exceeds the span (no card is
        double-booked by overlapping dispatches)."""
        res = _server(scenario, tape).serve(stream)
        for card in res.cards:
            assert card.busy_seconds <= res.span_seconds * (1 + 1e-9)


class TestVarReduction:
    def test_var_value_depends_only_on_own_rows(self, scenario, tape):
        from repro.serving.request import PricingRequest

        va = PricingRequest(0, "var", 0.0, 1.0, rows=(1, 4, 9, 13, 21))
        noise = [
            PricingRequest(i, "quote", 0.0, 1.0, rows=(i % N_STATES,),
                           option_index=i % N_POSITIONS)
            for i in range(1, 40)
        ]
        server = _server(
            scenario, tape, queue=BatchQueue(max_batch=64, linger_s=1e-3)
        )
        alone = server.serve([va])
        crowded = server.serve([va] + noise)
        v_alone = [r.value for r in alone.responses if r.request_id == 0][0]
        v_crowd = [r.value for r in crowded.responses if r.request_id == 0][0]
        assert v_alone == v_crowd
        assert np.isfinite(v_alone)


class TestWarmMemoBitIdentity:
    """A server that already served a *different* trace answers part of
    the next one from its memo; the answers must not move a bit."""

    @staticmethod
    def _warm(server: QuoteServer, seed: int) -> None:
        server.serve(
            make_request_stream(
                60,
                rate_hz=3000.0,
                n_states=N_STATES,
                n_positions=N_POSITIONS,
                var_rows=3,
                seed=seed,
            )
        )

    @given(
        n_cards=st.integers(min_value=1, max_value=4),
        scheduler=st.sampled_from(
            ["round-robin", "least-loaded", "work-stealing"]
        ),
        chunk_size=st.sampled_from([None, 1, 3, 8]),
        warm_seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=10, deadline=None)
    def test_warm_serve_equals_individual(
        self, scenario, tape, stream, n_cards, scheduler, chunk_size,
        warm_seed,
    ):
        server = _server(
            scenario, tape, n_cards=n_cards, scheduler=scheduler,
            chunk_size=chunk_size,
            queue=BatchQueue(max_batch=32, linger_s=2e-3),
        )
        self._warm(server, warm_seed)
        batched = _values(server.serve(stream))
        answered = [r for r in stream if r.request_id in batched]
        assert answered
        individual = server.price_individually(answered)
        for req, value in zip(answered, individual):
            assert batched[req.request_id] == value, req

    @pytest.mark.parametrize(
        "spec",
        [
            "crash:card=1,at=0.05,repair=0.05",
            "slow:card=1,at=0.005,for=0.06,factor=80;"
            "crash:card=1,at=0.03,repair=0.03",
            "linkout:at=0.05,for=0.02",
        ],
    )
    def test_faulted_values_equal_fault_free(self, scenario, tape, stream, spec):
        server = _server(scenario, tape)
        self._warm(server, 3)
        faulted = _values(
            server.serve(stream, faults=FaultPlan.from_spec(spec, seed=7))
        )
        assert server.last_fault_report is not None
        # Fault-free reference from a cold server: nothing shared with
        # the faulted server's memo.
        clean = _values(_server(scenario, tape).serve(stream))
        assert faulted
        for request_id, value in faulted.items():
            assert value == clean[request_id], request_id
