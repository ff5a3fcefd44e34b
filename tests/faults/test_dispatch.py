"""Failure-aware serving: conservation, determinism, retries, hedging.

The stream spans roughly 0.3 s at 2000 req/s; fault instants below sit
inside that envelope.  Bare crashes on microsecond micro-batches mostly
steer dispatch away from the dead card, so the tests that need actual
mid-flight failures overlap a heavy slowdown with the crash on the same
card — the stretched busy windows then straddle the crash instant.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.batching import BatchQueue
from repro.faults import FaultPlan, HedgePolicy, RetryPolicy
from repro.risk.engine import make_book
from repro.serving import QuoteServer
from repro.serving.request import ShedReason
from repro.telemetry import Telemetry

from .conftest import N_POSITIONS

#: Request-phase spans in pipeline order.
PHASES = ("coalesce", "host_link", "card_queue", "card_service")

#: Crash under a straggler: service windows on card 1 stretch 80x from
#: 5 ms so the crash at 30 ms lands mid-window — retries guaranteed.
OVERLAP = "slow:card=1,at=0.005,for=0.06,factor=80;crash:card=1,at=0.03,repair=0.03"


def conserve(result) -> bool:
    return result.n_offered == result.n_completed + result.n_shed + result.n_failed


def recording_server(fault_scenario, tape) -> QuoteServer:
    """The ``server`` fixture's configuration with a recording handle."""
    return QuoteServer(
        make_book("heterogeneous", N_POSITIONS, seed=5),
        tape,
        scenario=fault_scenario,
        n_cards=2,
        n_engines=2,
        queue=BatchQueue(max_batch=16, linger_s=1e-3),
        queue_depth=256,
        telemetry=Telemetry.recording(),
    )


class TestZeroFaultIdentity:
    def test_none_and_empty_plan_identical_to_legacy(self, server, stream):
        legacy = server.serve(stream)
        assert server.last_fault_report is None
        empty = server.serve(stream, faults=FaultPlan())
        assert server.last_fault_report is None
        assert empty == legacy
        assert empty.n_failed == 0 and empty.fails == ()

    def test_empty_plan_same_spans_and_metrics(
        self, fault_scenario, tape, stream
    ):
        """``faults=None`` and ``faults=FaultPlan()`` are one code path:
        equal results, the same recorded span sequence and the same
        metrics snapshot (no fault counters published for either)."""
        bare = recording_server(fault_scenario, tape)
        empty = recording_server(fault_scenario, tape)
        result = bare.serve(stream)
        assert empty.serve(stream, faults=FaultPlan()) == result
        assert empty.last_fault_report is None
        assert empty.telemetry.spans == bare.telemetry.spans
        assert any(s.name == "card_service" for s in bare.telemetry.spans)
        snapshot = bare.telemetry.metrics.snapshot()
        assert empty.telemetry.metrics.snapshot() == snapshot
        assert not any(
            key.startswith(("serving_retries", "serving_hedges",
                            "serving_breaker", "serving_requests_failed",
                            "serving_requests_shed_degraded"))
            for key in snapshot
        )


class TestConservation:
    @pytest.mark.parametrize(
        "spec",
        [
            "crash:card=1,at=0.05,repair=0.05",
            "crash:card=1,at=0.05",  # permanent
            OVERLAP,
            "slow:card=0,at=0.02,for=0.1,factor=6",
            "linkout:at=0.05,for=0.02",
            "correlated:cards=0+1,at=0.1,repair=0.05",
        ],
    )
    def test_every_request_accounted(self, server, stream, spec):
        res = server.serve(stream, faults=FaultPlan.from_spec(spec, seed=7))
        assert conserve(res)
        assert res.n_completed > 0

    def test_all_cards_permanently_dead_fails_tail(self, server, stream):
        res = server.serve(
            stream, faults=FaultPlan.from_spec("correlated:cards=0+1,at=0.05")
        )
        assert conserve(res)
        assert res.n_failed > 0
        kinds = {f.reason for f in res.fails}
        assert kinds <= {ShedReason.CARD_FAILURE, ShedReason.BREAKER_OPEN}


class TestDeterminism:
    def test_same_seed_same_report(self, server, stream):
        plan = FaultPlan.from_spec(OVERLAP, seed=13)
        first = server.serve(stream, faults=plan)
        fr1 = server.last_fault_report
        second = server.serve(stream, faults=plan)
        fr2 = server.last_fault_report
        assert first == second
        assert fr1.to_dict() == fr2.to_dict()

    def test_values_bit_identical_to_fault_free(self, server, stream):
        """Retries re-dispatch *timing*, never the numerics: every
        completed response carries exactly the fault-free value."""
        clean = server.serve(stream)
        by_id = {r.request_id: r.value for r in clean.responses}
        faulted = server.serve(
            stream, faults=FaultPlan.from_spec(OVERLAP, seed=7)
        )
        for resp in faulted.responses:
            np.testing.assert_array_equal(resp.value, by_id[resp.request_id])


class TestRetryAndBreaker:
    def test_overlap_forces_retries_and_trips(self, server, stream):
        server.serve(stream, faults=FaultPlan.from_spec(OVERLAP, seed=7))
        fr = server.last_fault_report
        assert fr.counters.n_failed_dispatches > 0
        assert fr.counters.n_retries > 0
        assert fr.counters.n_breaker_trips >= 1
        assert fr.counters.wasted_work_s > 0

    def test_retry_budget_bounds_attempts(self, server, stream):
        """With zero retries allowed, every failed dispatch fails its
        requests outright instead of re-dispatching."""
        retry = RetryPolicy(max_attempts=1, seed=7)
        res = server.serve(
            stream,
            faults=FaultPlan.from_spec(OVERLAP, seed=7),
            retry=retry,
        )
        fr = server.last_fault_report
        assert fr.counters.n_retries == 0
        assert conserve(res)


class TestHedging:
    def test_straggler_hedge_wins(self, server, stream):
        plan = FaultPlan.from_spec(
            "slow:card=1,at=0.01,for=0.25,factor=6", seed=7
        )
        hedged = server.serve(
            stream, faults=plan, hedge=HedgePolicy(enabled=True)
        )
        fr = server.last_fault_report
        assert fr.counters.n_hedges > 0
        assert fr.counters.n_hedge_wins > 0
        plain = server.serve(stream, faults=plan)
        fr_plain = server.last_fault_report
        assert fr_plain.counters.n_hedges == 0
        assert conserve(hedged)
        # Hedging pays duplicate work to cut the straggler tail.
        assert fr.counters.duplicate_work_ratio > 0
        assert hedged.latency.p99_s <= plain.latency.p99_s

    def test_hedge_disabled_by_default(self, server, stream):
        server.serve(
            stream, faults=FaultPlan.from_spec("slow:card=1,at=0.01,for=0.25,factor=6")
        )
        assert server.last_fault_report.counters.n_hedges == 0


class TestFaultPhaseSpans:
    """Under faults every completed request still gets its four phase
    spans, taken from the attempt that succeeded, so they tile
    ``[arrival, completion]`` after a retry or a hedge."""

    @pytest.mark.parametrize(
        "spec, hedge",
        [(OVERLAP, None),
         ("slow:card=1,at=0.01,for=0.25,factor=6", HedgePolicy(enabled=True))],
        ids=["crash-retries", "straggler-hedged"],
    )
    def test_phases_tile_latency(self, fault_scenario, tape, stream, spec, hedge):
        srv = recording_server(fault_scenario, tape)
        res = srv.serve(
            stream, faults=FaultPlan.from_spec(spec, seed=7), hedge=hedge
        )
        counters = srv.last_fault_report.counters
        if hedge is None:
            assert counters.n_retries > 0
        else:
            assert counters.n_hedge_wins > 0
        assert res.n_completed > 0
        recorder = srv.telemetry.recorder
        # The phases come from the winning attempt: its host dispatch
        # and card window are real resource busy windows.
        windows = {
            (s.track, s.start_s, s.end_s)
            for s in srv.telemetry.spans if s.category == "resource"
        }
        host_ends = {end for track, _, end in windows if track == "host"}
        for resp in res.responses:
            spans = recorder.for_trace(resp.request_id)
            assert tuple(s.name for s in spans) == PHASES
            assert spans[0].start_s == resp.arrival_s
            assert spans[-1].end_s == resp.completion_s
            for left, right in zip(spans, spans[1:]):
                assert right.start_s == left.end_s
            assert all(s.duration_s >= 0 for s in spans)
            assert sum(s.duration_s for s in spans) == pytest.approx(
                resp.latency_s, abs=1e-12
            )
            card = spans[-1].args["card"]
            assert {s.args["card"] for s in spans[1:]} == {card}
            assert card in resp.cards
            assert spans[1].end_s in host_ends
            assert (
                f"card{card}", spans[-1].start_s, spans[-1].end_s
            ) in windows
        # Failed requests have no phase spans.
        for rec in res.fails:
            assert recorder.for_trace(rec.request.request_id) == ()


class TestDegradationLadder:
    def test_var_shed_before_quotes_under_capacity_loss(
        self, fault_scenario, tape
    ):
        """With a card down and the queue backing up, the ladder sheds
        low-tier work (var, then reval) while quotes keep flowing."""
        from repro.serving import make_request_stream

        srv = QuoteServer(
            make_book("heterogeneous", 12, seed=5),
            tape,
            scenario=fault_scenario,
            n_cards=2,
            n_engines=2,
            queue=BatchQueue(max_batch=8, linger_s=5e-4),
            queue_depth=24,
        )
        reqs = make_request_stream(
            600,
            rate_hz=12_000.0,
            n_states=48,
            n_positions=12,
            var_rows=6,
            seed=11,
        )
        res = srv.serve(
            reqs,
            faults=FaultPlan.from_spec(
                "slow:card=0,at=0.0,for=0.2,factor=10;crash:card=1,at=0.001,repair=0.2",
                seed=7,
            ),
        )
        degraded = [
            s for s in res.sheds if s.reason is ShedReason.DEGRADED
        ]
        assert degraded, "expected the degradation ladder to shed"
        assert all(s.request.kind in ("var", "reval") for s in degraded)
        assert conserve(res)


class TestReportPlumbing:
    def test_fault_report_attached_and_rendered(self, server, stream):
        res = server.serve(stream, faults=FaultPlan.from_spec(OVERLAP, seed=7))
        fr = server.last_fault_report
        assert fr is not None
        assert fr.spec == FaultPlan.from_spec(OVERLAP).spec()
        assert [p.name for p in fr.phases] == ["before", "during", "after"]
        assert sum(p.n_completed for p in fr.phases) == res.n_completed
        text = res.render()
        assert "failed" in text or res.n_failed == 0

    def test_shed_reason_counts_typed(self, server, stream):
        res = server.serve(
            stream,
            faults=FaultPlan.from_spec("correlated:cards=0+1,at=0.05"),
        )
        counts = res.shed_reason_counts()
        assert sum(counts.values()) == res.n_shed + res.n_failed
        assert set(counts) <= {r.value for r in ShedReason}
