"""Unit tests for the gateway engine: route → admit → cache → dispatch."""

from dataclasses import replace

import pytest

from repro.cluster.batching import BatchQueue
from repro.errors import ValidationError
from repro.gateway import (
    DEFAULT_TENANTS,
    Gateway,
    PASSTHROUGH_TENANT,
    TenantProfile,
    make_tenant_stream,
)
from repro.serving import DispatchCostModel, QuoteServer, make_request_stream
from repro.serving.request import ShedReason
from repro.telemetry import Telemetry

from .conftest import N_POSITIONS, N_STATES, small_gateway


class TestServe:
    def test_every_request_accounted_for(self, gateway, stream, ticks):
        res = gateway.serve(stream, ticks=ticks)
        assert res.n_offered == len(stream)
        assert res.n_completed + res.n_shed + res.n_failed == res.n_offered
        answered = {r.request_id for r in res.responses}
        shed = {s.request.request_id for s in res.sheds}
        assert answered | shed == {r.request_id for r in stream}
        assert not (answered & shed)

    def test_deterministic(self, gateway, stream, ticks):
        assert gateway.serve(stream, ticks=ticks) == gateway.serve(
            stream, ticks=ticks
        )

    def test_tenant_stats_sum_to_aggregate(self, gateway, stream):
        res = gateway.serve(stream)
        assert sum(t.n_offered for t in res.tenants) == res.n_offered
        assert sum(t.n_completed for t in res.tenants) == res.n_completed
        assert sum(t.n_shed for t in res.tenants) == res.n_shed
        assert sum(t.goodput_rps for t in res.tenants) == pytest.approx(
            res.goodput_rps
        )

    def test_server_results_cover_routed_traffic(self, gateway, stream):
        res = gateway.serve(stream)
        assert len(res.servers) == gateway.n_servers
        # Routed (non-quota, non-cache-path) traffic lands on the lanes.
        routed = sum(s.n_offered for s in res.servers)
        cache_served = res.n_cache_hits + res.n_cache_joins
        assert routed == res.n_offered - res.n_shed_quota - cache_served

    def test_responses_carry_tenants(self, gateway, stream):
        res = gateway.serve(stream)
        names = {p.name for p in DEFAULT_TENANTS}
        assert {r.tenant for r in res.responses} <= names
        assert res.summary()

    def test_validation(self, gateway, book, tape, gateway_scenario):
        with pytest.raises(ValidationError):
            gateway.serve([])
        with pytest.raises(ValidationError):
            small_gateway(book, tape, gateway_scenario, n_servers=0)
        bad = make_request_stream(
            5, rate_hz=1000.0, n_states=N_STATES, n_positions=N_POSITIONS
        )
        bad[0] = replace(bad[0], tenant="nobody")
        with pytest.raises(ValidationError):
            gateway.serve(bad)


class TestQuota:
    def test_quota_sheds_are_typed(self, book, tape, gateway_scenario):
        tenants = (
            TenantProfile(name="tiny", quota_rps=200.0, burst=2.0),
        )
        gw = small_gateway(book, tape, gateway_scenario, tenants=tenants)
        stream = make_tenant_stream(
            300, rate_hz=30_000.0, n_states=N_STATES,
            n_positions=N_POSITIONS, tenants=tenants, seed=11,
        )
        res = gw.serve(stream)
        assert res.n_shed_quota > 0
        quota = [s for s in res.sheds if s.reason is ShedReason.QUOTA]
        assert len(quota) == res.n_shed_quota
        assert res.tenants[0].n_shed_quota == res.n_shed_quota
        # quota sheds never reached a server queue
        assert all(s.n_offered <= 300 - res.n_shed_quota for s in res.servers)

    def test_unlimited_tenant_never_quota_shed(self, gateway, stream):
        res = gateway.serve(stream)
        gold = next(t for t in res.tenants if t.tenant == "gold")
        assert gold.n_shed_quota == 0


class TestCache:
    def test_cache_dedups_and_speeds_up(self, gateway, book, tape,
                                        gateway_scenario, stream):
        on = gateway.serve(stream)
        off = small_gateway(
            book, tape, gateway_scenario, cache=False
        ).serve(stream)
        assert on.n_cache_hits + on.n_cache_joins > 0
        assert on.cache_hit_rate > 0.0
        assert off.cache_hit_rate == 0.0
        # the cache strictly reduces kernel work
        on_rows = sum(
            c.n_rows for s in on.servers for c in s.cards
        )
        off_rows = sum(
            c.n_rows for s in off.servers for c in s.cards
        )
        assert on_rows < off_rows

    def test_cached_values_bit_identical(self, gateway, book, tape,
                                         gateway_scenario, stream, ticks):
        on = gateway.serve(stream, ticks=ticks)
        off = small_gateway(
            book, tape, gateway_scenario, cache=False
        ).serve(stream)
        v_on = {r.request_id: r.value for r in on.responses}
        v_off = {r.request_id: r.value for r in off.responses}
        common = set(v_on) & set(v_off)
        assert common
        assert all(v_on[i] == v_off[i] for i in common)

    def test_ticks_invalidate(self, gateway, stream, ticks):
        res = gateway.serve(stream, ticks=ticks)
        assert res.n_cache_invalidations > 0
        # invalidation can only cost hits
        quiet = gateway.serve(stream)
        assert quiet.n_cache_hits >= res.n_cache_hits

    def test_tick_row_validated(self, gateway, stream):
        with pytest.raises(ValidationError):
            gateway.serve(stream, ticks=[(0.0, N_STATES)])

    @pytest.mark.parametrize("cache", [True, False], ids=["cache-on", "cache-off"])
    @pytest.mark.parametrize(
        "tick",
        [(0.001, 10**6), (0.001, N_STATES), (0.001, -1), (-5.0, 3),
         (float("nan"), 3), (float("inf"), 3)],
        ids=["row-far", "row-past-end", "row-negative", "time-negative",
             "time-nan", "time-inf"],
    )
    def test_bad_tick_rejected_in_both_cache_modes(
        self, book, tape, gateway_scenario, stream, cache, tick
    ):
        gw = small_gateway(book, tape, gateway_scenario, cache=cache)
        with pytest.raises(ValidationError, match="tick"):
            gw.serve(stream, ticks=[(0.0005, 1), tick])


class TestIdentityPin:
    """1 server + passthrough tenant + cache off == plain QuoteServer."""

    def test_lane_equals_server(self, book, tape, gateway_scenario):
        stream = make_request_stream(
            300, rate_hz=10_000.0, n_states=N_STATES,
            n_positions=N_POSITIONS, var_rows=6, seed=11,
        )
        queue = BatchQueue(max_batch=16, linger_s=1e-3)
        server = QuoteServer(
            book, tape, scenario=gateway_scenario, n_cards=2, n_engines=2,
            queue=queue, queue_depth=256,
        )
        base = server.serve(stream)
        gw = small_gateway(
            book, tape, gateway_scenario, n_servers=1,
            tenants=(PASSTHROUGH_TENANT,), cache=False,
        )
        res = gw.serve(stream)
        assert res.servers[0] == base
        assert res.n_completed == base.n_completed
        assert res.goodput_rps == base.goodput_rps
        assert {r.request_id: r.value for r in res.responses} == {
            r.request_id: r.value for r in base.responses
        }


class TestCalibration:
    def test_servers_share_one_calibration(
        self, book, tape, gateway_scenario, monkeypatch
    ):
        calls = []
        calibrate = DispatchCostModel.calibrate.__func__

        def counting(cls, *args, **kwargs):
            calls.append(cls)
            return calibrate(cls, *args, **kwargs)

        monkeypatch.setattr(
            DispatchCostModel, "calibrate", classmethod(counting)
        )
        gw = small_gateway(book, tape, gateway_scenario, n_servers=3)
        assert len(calls) == 1
        assert all(s.cost_model is gw.servers[0].cost_model for s in gw.servers)


class TestDrain:
    def test_drained_server_gets_nothing(self, book, tape, gateway_scenario,
                                         stream):
        gw = small_gateway(book, tape, gateway_scenario, n_servers=3)
        gw.drain(1)
        res = gw.serve(stream)
        assert res.servers[1].n_offered == 0
        assert res.servers[1].n_completed == 0
        assert res.n_completed + res.n_shed == res.n_offered


class TestTelemetry:
    def test_gateway_metrics_published(self, book, tape, gateway_scenario,
                                       stream, ticks):
        tel = Telemetry.recording()
        gw = small_gateway(book, tape, gateway_scenario, telemetry=tel)
        res = gw.serve(stream, ticks=ticks)
        keys = tel.metrics.names()
        for name in (
            "gateway_requests_total",
            "gateway_routed_total",
            "gateway_cache_hits_total",
            "gateway_cache_misses_total",
            "gateway_cache_hit_rate",
            "gateway_goodput_rps",
            "gateway_requests_completed_total",
        ):
            assert any(k.startswith(name) for k in keys), name
        spans = tel.recorder.for_track("gateway")
        assert any(s.name == "cache_hit" for s in spans)
        assert res.n_cache_hits > 0


class TestFaults:
    def test_fault_plan_hits_one_lane(self, book, tape, gateway_scenario,
                                      stream):
        from repro.faults import FaultPlan

        plan = FaultPlan.from_spec("crash:card=0,at=0.002,repair=0.01")
        gw = small_gateway(book, tape, gateway_scenario)
        res = gw.serve(stream, faults=plan, fault_server=1)
        assert res.n_completed + res.n_shed + res.n_failed == res.n_offered
        # clean lane is untouched by the plan
        clean = gw.serve(stream)
        assert res.servers[0].n_offered == clean.servers[0].n_offered

    def test_faulted_and_clean_lane_each_conserve(
        self, book, tape, gateway_scenario, stream
    ):
        """Lane 0 loses both cards for good mid-trace (fails, backpressure
        and degraded sheds); lane 1 runs the empty plan.  Each lane
        finalises every request it was offered exactly once."""
        from repro.faults import FaultPlan

        plan = FaultPlan.from_spec("correlated:cards=0+1,at=0.008", seed=7)
        gw = small_gateway(
            book, tape, gateway_scenario, cache=False, queue_depth=24
        )
        res = gw.serve(stream, faults=plan, fault_server=0)
        faulted, clean = res.servers
        for lane in (faulted, clean):
            assert lane.n_offered > 0
            assert (
                lane.n_offered
                == lane.n_completed + lane.n_shed + lane.n_failed
            )
        assert faulted.n_failed > 0 and faulted.n_shed > 0
        assert clean.n_failed == 0
        assert res.n_offered == res.n_completed + res.n_shed + res.n_failed
