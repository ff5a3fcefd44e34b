"""Differential test: next-due housekeeping versus the unconditional sweep.

A lane's per-arrival housekeeping runs each step only when something is
due: :meth:`~repro.serving.engine.Lane.tick` fires linger timers once the
oldest timer has expired, drains the in-flight window once its earliest
completion has passed and reaps once the earliest pending deadline has
passed; :meth:`~repro.serving.coalescer.MicroBatchCoalescer.reap` skips
its scan below that deadline watermark, and ``offer`` skips ``advance``
when no timer is due.  The reference below is a test-local copy of the
unconditional forms — every tick advances, drains and reaps by a full
scan, every offer advances — patched in with ``monkeypatch``.

Both forms must agree on everything a replay reports: responses, each
lane's deadline sheds (order, time, reason), fails and admission sheds,
the metrics snapshot and the recorded span sequence.  The traces are
drawn so the guards actually decide something: deadlines shorter than
the linger window (so the watermark fires and reap sheds), small
admission bounds (backpressure), priority mixes, fault plans, and 2–3
lane gateways with the cache and market ticks on or off.  Each run also
asserts that some drawn example reaped a non-empty set, so the
comparison cannot pass vacuously.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.batching import BatchQueue
from repro.faults import CardCrash, CardSlowdown, FaultPlan, LinkOutage
from repro.gateway import DEFAULT_TENANTS, Gateway
from repro.risk.engine import make_book
from repro.serving import QuoteServer, make_market_tape
from repro.serving.coalescer import MicroBatchCoalescer
from repro.serving.engine import Lane
from repro.serving.request import PricingRequest, ShedRecord
from repro.telemetry import Telemetry
from repro.workloads.scenarios import PaperScenario

N_POSITIONS = 6
N_STATES = 16
N_CARDS = 2
TENANT_NAMES = tuple(t.name for t in DEFAULT_TENANTS)


# ----------------------------------------------------------------------
# The unconditional reference.
def _tick_every_step(self: Lane, now: float) -> None:
    self._run(self.coalescer.advance(now))
    self.in_flight.drain(now)
    self.coalescer.reap(now)


def _reap_full_scan(self: MicroBatchCoalescer, now: float) -> int:
    alive = []
    reaped = 0
    for r in self._pending:
        if r.deadline_s <= now:
            self._sheds.append(ShedRecord(r, now, "deadline"))
            reaped += 1
        else:
            alive.append(r)
    self._pending = alive
    return reaped


_guarded_offer = MicroBatchCoalescer.offer


def _offer_always_advancing(self: MicroBatchCoalescer, request):
    # Advancing first makes the guarded offer's own check find nothing
    # due, so the rest of offer runs unchanged.
    batches = self.advance(request.arrival_s)
    return batches + _guarded_offer(self, request)


def _patch_reference(mp: pytest.MonkeyPatch) -> None:
    mp.setattr(Lane, "tick", _tick_every_step)
    mp.setattr(MicroBatchCoalescer, "reap", _reap_full_scan)
    mp.setattr(MicroBatchCoalescer, "offer", _offer_always_advancing)


def _record_lanes(mp: pytest.MonkeyPatch, out: list) -> None:
    """Capture each lane's raw outcome logs as it is summarised."""
    summarise = Lane.summarise

    def recording(self: Lane):
        out.append(
            (
                self.coalescer.sheds,
                tuple(self.queue_sheds),
                tuple(self.fails),
                tuple(self.responses),
            )
        )
        return summarise(self)

    mp.setattr(Lane, "summarise", recording)


def _count_reaps(mp: pytest.MonkeyPatch, reaped: list) -> None:
    reap = MicroBatchCoalescer.reap

    def counting(self: MicroBatchCoalescer, now: float) -> int:
        n = reap(self, now)
        if n:
            reaped.append(n)
        return n

    mp.setattr(MicroBatchCoalescer, "reap", counting)


# ----------------------------------------------------------------------
# Strategies.
@st.composite
def traces(draw, *, tenants: bool):
    """A request trace whose deadlines often undercut the linger window."""
    linger = draw(st.sampled_from([2e-4, 5e-4, 1e-3]))
    n = draw(st.integers(min_value=4, max_value=48))
    gaps = draw(
        st.lists(
            st.sampled_from([0.0, 1e-5, 4e-5, 1e-4, 3e-4, 1.5e-3]),
            min_size=n,
            max_size=n,
        )
    )
    requests = []
    t = 0.0
    for i, gap in enumerate(gaps):
        t += gap
        slack = draw(
            st.one_of(
                st.floats(min_value=1e-6, max_value=0.9 * linger),
                st.sampled_from([2e-3, 2e-2]),
            )
        )
        kind = draw(st.sampled_from(["quote"] * 6 + ["reval", "var"]))
        if kind == "var":
            rows = tuple(
                draw(
                    st.lists(
                        st.integers(0, N_STATES - 1),
                        min_size=2,
                        max_size=4,
                        unique=True,
                    )
                )
            )
        else:
            rows = (draw(st.integers(0, N_STATES - 1)),)
        requests.append(
            PricingRequest(
                request_id=i,
                kind=kind,
                arrival_s=t,
                deadline_s=t + slack,
                rows=rows,
                option_index=(
                    draw(st.integers(0, N_POSITIONS - 1))
                    if kind == "quote"
                    else None
                ),
                priority=draw(st.integers(0, 3)),
                tenant=draw(st.sampled_from(TENANT_NAMES)) if tenants else None,
            )
        )
    queue = BatchQueue(
        max_batch=draw(st.integers(min_value=1, max_value=8)), linger_s=linger
    )
    return requests, queue, draw(st.integers(min_value=2, max_value=24))


_at = st.floats(min_value=0.0, max_value=0.01)
_for = st.floats(min_value=1e-4, max_value=0.01)
fault_event = st.one_of(
    st.builds(
        CardCrash,
        card=st.integers(0, N_CARDS - 1),
        at_s=_at,
        repair_s=st.one_of(st.none(), _for),
    ),
    st.builds(
        CardSlowdown,
        card=st.integers(0, N_CARDS - 1),
        at_s=_at,
        duration_s=_for,
        factor=st.floats(min_value=2.0, max_value=50.0),
    ),
    st.builds(LinkOutage, at_s=_at, duration_s=_for),
)
plans = st.one_of(
    st.just(FaultPlan()),
    st.builds(
        FaultPlan,
        events=st.lists(fault_event, min_size=1, max_size=3).map(tuple),
        seed=st.integers(0, 99),
    ),
)


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def scenario():
    return PaperScenario(n_rates=64, n_options=N_POSITIONS)


@pytest.fixture(scope="module")
def book():
    return make_book("heterogeneous", N_POSITIONS, seed=5)


@pytest.fixture(scope="module")
def tape(scenario):
    return make_market_tape(
        scenario.yield_curve(), scenario.hazard_curve(), N_STATES, seed=3
    )


def _replay(serve, *, reference: bool, reaped: list):
    """One replay with fresh telemetry: result, lane logs, spans, metrics."""
    lanes: list = []
    telemetry = Telemetry.recording()
    with pytest.MonkeyPatch.context() as mp:
        if reference:
            _patch_reference(mp)
        else:
            _count_reaps(mp, reaped)
        _record_lanes(mp, lanes)
        result = serve(telemetry)
    return result, lanes, telemetry.spans, telemetry.metrics.snapshot()


def _assert_same(guarded, reference) -> None:
    result, lanes, spans, snapshot = guarded
    ref_result, ref_lanes, ref_spans, ref_snapshot = reference
    assert lanes == ref_lanes
    assert result == ref_result
    assert spans == ref_spans
    assert snapshot == ref_snapshot


SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def test_quote_server_matches_unconditional_sweep(scenario, book, tape):
    reaped: list = []
    cost = QuoteServer(
        book, tape, scenario=scenario, n_cards=N_CARDS, n_engines=2
    ).cost_model

    @SETTINGS
    @given(case=traces(tenants=False), plan=plans)
    def check(case, plan):
        requests, queue, depth = case

        def serve(telemetry):
            server = QuoteServer(
                book, tape, scenario=scenario, n_cards=N_CARDS, n_engines=2,
                queue=queue, queue_depth=depth, cost_model=cost,
                telemetry=telemetry,
            )
            return server.serve(requests, faults=plan)

        _assert_same(
            _replay(serve, reference=False, reaped=reaped),
            _replay(serve, reference=True, reaped=reaped),
        )

    check()
    assert reaped, "no drawn example reaped a non-empty set"


def test_gateway_matches_unconditional_sweep(scenario, book, tape):
    reaped: list = []

    @SETTINGS
    @given(
        case=traces(tenants=True),
        plan=plans,
        n_servers=st.integers(min_value=2, max_value=3),
        fault_server=st.integers(min_value=0, max_value=1),
        cache=st.booleans(),
        ticks=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=0.02),
                st.integers(0, N_STATES - 1),
            ),
            max_size=6,
        ),
    )
    def check(case, plan, n_servers, fault_server, cache, ticks):
        requests, queue, depth = case

        def serve(telemetry):
            gateway = Gateway(
                book, tape, scenario=scenario, n_servers=n_servers,
                n_cards=N_CARDS, n_engines=2, queue=queue, queue_depth=depth,
                cache=cache, telemetry=telemetry,
            )
            return gateway.serve(
                requests, ticks=ticks, faults=plan, fault_server=fault_server
            )

        _assert_same(
            _replay(serve, reference=False, reaped=reaped),
            _replay(serve, reference=True, reaped=reaped),
        )

    check()
    assert reaped, "no drawn example reaped a non-empty set"
