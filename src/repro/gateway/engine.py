"""The multi-tenant gateway: route → admit → cache-lookup → dispatch.

:class:`Gateway` fronts N :class:`~repro.serving.engine.QuoteServer`
replicas on **one** shared :class:`~repro.sim.Simulation` clock — the
"millions of users" front door.  Each arriving request passes four
stages inside its arrival event:

1. **admit** — the tenant's token bucket is charged; a dry bucket sheds
   the request with the typed :attr:`~repro.serving.request.ShedReason.
   QUOTA` reason before it can touch any server queue;
2. **cache** — quotes consult the market-state-keyed
   :class:`~repro.gateway.cache.QuoteCache`: a ready entry answers at
   cache-hit latency, an in-flight entry absorbs the request as a
   joiner (single-flight dedup), a miss makes it the key's leader;
3. **route** — the consistent-hash ring picks the owning server, so
   identical keys always share a server (and a micro-batch row);
4. **dispatch** — the server lane runs the *exact*
   :meth:`~repro.serving.engine.QuoteServer.serve` event-loop sequence
   (fire linger timers, drain the in-flight window, reap expired work,
   bounded-queue admission, offer to the coalescer), with every lane's
   timing rig sharing the gateway's clock.

With one server, one unlimited tenant and the cache off, the gateway
adds no behaviour: its lane result is pinned **equal** to
``QuoteServer.serve`` on the same trace, and cached/deduped values are
pinned bit-identical to cache-off replies — both by the property suite.

Fault plans compose: a plan applied to one lane routes that lane's
dispatch through the failure-aware layer (retries, breakers, the
degradation ladder) while the other lanes run clean — the
"crash-1of4 behind the gateway" chaos cell.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from repro.api import PricingBackend
from repro.api.cost import ClusterTimingRig
from repro.cluster.batching import BatchQueue
from repro.cluster.interconnect import HostLinkModel
from repro.errors import ValidationError
from repro.risk.engine import Portfolio
from repro.risk.tensor import ScenarioTensor
from repro.serving.coalescer import MicroBatch, MicroBatchCoalescer
from repro.serving.engine import QuoteServer
from repro.serving.metrics import (
    CardLoad,
    CardTallies,
    LatencyStats,
    ServingResult,
)
from repro.serving.request import (
    FailRecord,
    PricingRequest,
    PricingResponse,
    ShedReason,
    ShedRecord,
)
from repro.sim import CompletionTracker, Simulation
from repro.telemetry import NULL_TELEMETRY, MetricsRegistry, Telemetry
from repro.workloads.scenarios import PaperScenario

from repro.gateway.cache import DEFAULT_HIT_LATENCY_S, QuoteCache, cache_key
from repro.gateway.metrics import GatewayResult, per_tenant_stats
from repro.gateway.routing import DEFAULT_REPLICAS, HashRing, route_key
from repro.gateway.tenancy import DEFAULT_TENANTS, TenantBook, TenantProfile

if TYPE_CHECKING:  # fault types are optional at runtime (lazy import)
    from repro.faults import FaultPlan, HedgePolicy, RetryPolicy

__all__ = ["Gateway"]


class _Lane:
    """One server's per-replay surfaces behind the gateway."""

    def __init__(
        self, index: int, server: QuoteServer, sim: Simulation
    ) -> None:
        self.index = index
        self.server = server
        self.rig = ClusterTimingRig(
            server.cost_model,
            server.link,
            server.n_cards,
            sim=sim,
            telemetry=server.telemetry,
        )
        self.coalescer = MicroBatchCoalescer(server.queue)
        self.in_flight = CompletionTracker()
        self.metrics = MetricsRegistry()
        self.n_batches = self.metrics.counter(
            "serving_batches_total", "micro-batches dispatched"
        )
        self.batch_requests = self.metrics.counter(
            "serving_batch_requests_total", "requests carried by batches"
        )
        self.batch_rows = self.metrics.counter(
            "serving_batch_rows_total", "deduplicated market rows batched"
        )
        self.shed_queue = self.metrics.counter(
            "serving_requests_shed_queue_total", "arrivals shed on backpressure"
        )
        self.card_tallies = CardTallies(self.metrics)
        self.trace: list[PricingRequest] = []
        self.responses: list[PricingResponse] = []
        self.queue_sheds: list[ShedRecord] = []
        self.dispatcher = None  # FaultedDispatcher in fault mode
        # Scan cursors for the gateway's cache-resolution sweep.
        self.seen_responses = 0
        self.seen_sheds = 0
        self.seen_fails = 0

    @property
    def all_responses(self) -> list[PricingResponse]:
        """The lane's responses so far (fault or fault-free path)."""
        return (
            self.dispatcher.responses if self.dispatcher is not None
            else self.responses
        )

    @property
    def n_outstanding(self) -> int:
        """Admitted-but-incomplete requests on this lane."""
        extra = self.dispatcher.n_outstanding if self.dispatcher else 0
        return self.coalescer.n_pending + len(self.in_flight) + extra

    def run(self, batches: list[MicroBatch]) -> None:
        """Dispatch formed batches through the lane's server."""
        for batch in batches:
            if self.dispatcher is not None:
                self.dispatcher.run_batch(batch)
            else:
                done = self.server._run_batch(
                    batch, self.rig, self.card_tallies
                )
                self.responses.extend(done)
                for resp in done:
                    self.in_flight.push(resp.completion_s)
            self.n_batches.inc()
            self.batch_requests.inc(batch.n_requests)
            self.batch_rows.inc(len(batch.rows))

    def tick(self, now: float) -> None:
        """The per-arrival housekeeping of ``QuoteServer.serve``."""
        self.run(self.coalescer.advance(now))
        self.in_flight.drain(now)
        self.coalescer.reap(now)


class Gateway:
    """Multi-tenant front door over N quote-server replicas.

    Parameters
    ----------
    book / tape:
        The shared book and market tape every replica serves.
    scenario / n_cards / n_engines / scheduler / link / queue /
    queue_depth / chunk_size / backend:
        Per-replica server configuration, forwarded verbatim to each
        :class:`~repro.serving.engine.QuoteServer` (pass backend
        *names*, not instances, when ``n_servers > 1`` — every replica
        binds its own backend).
    n_servers:
        Replica count behind the ring.
    tenants:
        The tenant set (default: the three-tier
        :data:`~repro.gateway.tenancy.DEFAULT_TENANTS` mix).
    cache:
        Whether the quote cache (and single-flight dedup) is on.
    cache_hit_latency_s:
        Simulated latency of a cache hit.
    ring_replicas:
        Virtual points per server on the consistent-hash ring.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` handle shared by
        the gateway and every replica; ``gateway_*`` counters and spans
        land next to the servers' ``serving_*`` ones.
    """

    def __init__(
        self,
        book: Portfolio,
        tape: ScenarioTensor,
        *,
        scenario: PaperScenario | None = None,
        n_servers: int = 2,
        n_cards: int = 4,
        n_engines: int = 5,
        scheduler: str = "least-loaded",
        link: HostLinkModel | None = None,
        queue: BatchQueue | None = None,
        queue_depth: int = 4096,
        chunk_size: int | None = None,
        backend: str | PricingBackend = "vectorized",
        tenants: tuple[TenantProfile, ...] = DEFAULT_TENANTS,
        cache: bool = True,
        cache_hit_latency_s: float = DEFAULT_HIT_LATENCY_S,
        ring_replicas: int = DEFAULT_REPLICAS,
        telemetry: Telemetry | None = None,
    ) -> None:
        if n_servers < 1:
            raise ValidationError(f"n_servers must be >= 1, got {n_servers}")
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.tenants = tuple(tenants)
        TenantBook(self.tenants)  # validate eagerly
        self.cache_enabled = bool(cache)
        self.cache_hit_latency_s = cache_hit_latency_s
        self.queue_depth = queue_depth
        servers: list[QuoteServer] = []
        for _ in range(n_servers):
            servers.append(
                QuoteServer(
                    book,
                    tape,
                    scenario=scenario,
                    n_cards=n_cards,
                    n_engines=n_engines,
                    scheduler=scheduler,
                    link=link,
                    queue=queue,
                    queue_depth=queue_depth,
                    chunk_size=chunk_size,
                    backend=backend,
                    # Identical replicas: calibrate the first, share it.
                    cost_model=servers[0].cost_model if servers else None,
                    telemetry=telemetry,
                )
            )
        self.servers = tuple(servers)
        self.ring = HashRing(range(n_servers), replicas=ring_replicas)

    @property
    def n_servers(self) -> int:
        """Replicas behind the ring (drained ones included)."""
        return len(self.servers)

    @property
    def tape(self) -> ScenarioTensor:
        """The shared market tape."""
        return self.servers[0].tape

    def drain(self, server_index: int) -> None:
        """Take one replica out of rotation; only its keys move."""
        self.ring.drain(server_index)

    # ------------------------------------------------------------------
    def serve(
        self,
        requests,
        *,
        ticks=None,
        faults: "FaultPlan | None" = None,
        fault_server: int = 0,
        hedge: "HedgePolicy | None" = None,
        retry: "RetryPolicy | None" = None,
        monitor=None,
    ) -> GatewayResult:
        """Replay a multi-tenant trace through the gateway tier.

        Parameters
        ----------
        requests:
            The offered load; sorted internally by arrival time.
            Requests without a tenant label bill to the first profile.
        ticks:
            Optional ``(time_s, row)`` market ticks; each drops every
            cached quote keyed on its row (ignored with the cache off).
        faults:
            Optional :class:`~repro.faults.FaultPlan` applied to the
            ``fault_server`` lane, which then dispatches through the
            failure-aware layer while the other lanes run clean.
        fault_server:
            Which lane the plan hits.
        hedge / retry:
            Fault-mode policies for the faulted lane.
        monitor:
            Optional :class:`~repro.monitor.Monitor`; attached to the
            shared clock with a cluster-wide ``cards_up`` probe and
            finalized against the aggregate result.

        Returns
        -------
        GatewayResult
            Aggregate, per-tenant and per-server accounting plus the
            cache economics.
        """
        if not requests:
            raise ValidationError("request trace must be non-empty")
        trace = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
        book = TenantBook(self.tenants)
        for req in trace:
            self.servers[0]._check_request(req)
            book.profile(req.tenant)  # unknown tenants fail fast
        faulted = faults is not None and not faults.is_empty
        if faulted and not 0 <= fault_server < self.n_servers:
            raise ValidationError(
                f"fault_server must index a server, got {fault_server}"
            )

        sim = Simulation()
        lanes = [
            _Lane(i, server, sim) for i, server in enumerate(self.servers)
        ]
        if faulted:
            # Imported per replay, not per arrival: the ladder fractions
            # are read on the event path only while a lane is faulted.
            from repro.serving.faulted import (
                DEGRADE_FRACTIONS,
                FaultedDispatcher,
            )

            lane = lanes[fault_server]
            lane.dispatcher = FaultedDispatcher(
                lane.server, lane.rig, faults, retry=retry, hedge=hedge,
                metrics=lane.metrics, in_flight=lane.in_flight,
            )
        cache = (
            QuoteCache(hit_latency_s=self.cache_hit_latency_s)
            if self.cache_enabled
            else None
        )
        recorder = self.telemetry.recorder

        # Gateway-level tallies and outcome streams.
        gw = MetricsRegistry()
        hits_total = gw.counter(
            "gateway_cache_hits_total", "quotes answered from the cache"
        )
        joins_total = gw.counter(
            "gateway_cache_joins_total", "quotes coalesced onto a leader"
        )
        misses_total = gw.counter(
            "gateway_cache_misses_total", "cacheable quotes that led a flight"
        )
        invalidations_total = gw.counter(
            "gateway_cache_invalidations_total", "cache entries dropped by ticks"
        )
        requests_total = gw.labelled_counters(
            "gateway_requests_total", "requests offered to the gateway",
            label="tenant",
        )
        shed_quota_total = gw.labelled_counters(
            "gateway_shed_quota_total", "requests rejected by tenant quotas",
            label="tenant",
        )
        routed_total = gw.labelled_counters(
            "gateway_routed_total", "requests routed to servers", label="server"
        )
        cache_responses: list[PricingResponse] = []
        quota_sheds: list[ShedRecord] = []
        waiter_sheds: list[ShedRecord] = []
        waiter_fails: list[FailRecord] = []

        if monitor is not None:
            total_cards = sum(lane.server.n_cards for lane in lanes)
            probe = None
            if faulted:
                flane = lanes[fault_server]
                clean = total_cards - flane.server.n_cards
                health = flane.dispatcher.health
                probe = lambda t: clean + float(  # noqa: E731
                    len(health.healthy_cards(t))
                )
            monitor.attach(sim, gw, n_cards=total_cards, probe=probe)

        def emit_cache_response(
            req: PricingRequest, entry, completion: float, formed: float
        ) -> None:
            cache_responses.append(
                PricingResponse(
                    request_id=req.request_id,
                    kind=req.kind,
                    value=entry.value,
                    arrival_s=req.arrival_s,
                    formed_s=formed,
                    completion_s=completion,
                    latency_s=completion - req.arrival_s,
                    met_deadline=completion <= req.deadline_s,
                    batch_id=entry.batch_id,
                    cards=entry.cards,
                    tenant=req.tenant,
                )
            )

        def resolve_outcomes() -> None:
            """Sweep new lane outcomes into cache entries and waiters."""
            for lane in lanes:
                responses = lane.all_responses
                while lane.seen_responses < len(responses):
                    resp = responses[lane.seen_responses]
                    lane.seen_responses += 1
                    entry = cache.fulfil(
                        resp.request_id,
                        value=resp.value,
                        ready_s=resp.completion_s,
                        formed_s=resp.formed_s,
                        batch_id=resp.batch_id,
                        cards=resp.cards,
                    )
                    if entry is not None:
                        for waiter in entry.waiters:
                            emit_cache_response(
                                waiter,
                                entry,
                                max(waiter.arrival_s, entry.ready_s),
                                max(waiter.arrival_s, entry.formed_s),
                            )
                        entry.waiters.clear()
                sheds = lane.coalescer.sheds
                while lane.seen_sheds < len(sheds):
                    rec = sheds[lane.seen_sheds]
                    lane.seen_sheds += 1
                    entry = cache.abandon(rec.request.request_id)
                    if entry is not None:
                        # Single-flight ties a joiner's fate to its
                        # leader: nobody repriced the key for them.
                        for waiter in entry.waiters:
                            waiter_sheds.append(
                                ShedRecord(waiter, rec.time_s, rec.reason)
                            )
                        entry.waiters.clear()
                if lane.dispatcher is not None:
                    fails = lane.dispatcher.fails
                    while lane.seen_fails < len(fails):
                        rec = fails[lane.seen_fails]
                        lane.seen_fails += 1
                        entry = cache.abandon(rec.request.request_id)
                        if entry is not None:
                            for waiter in entry.waiters:
                                waiter_fails.append(
                                    FailRecord(
                                        request=waiter,
                                        time_s=rec.time_s,
                                        attempts=rec.attempts,
                                        reason=rec.reason,
                                    )
                                )
                            entry.waiters.clear()

        def shed_at_lane(
            lane: _Lane, req: PricingRequest, now: float, reason: ShedReason
        ) -> None:
            lane.queue_sheds.append(ShedRecord(req, now, reason))
            if reason is ShedReason.BACKPRESSURE:
                lane.shed_queue.inc()
            else:
                lane.dispatcher.counters.n_shed_degraded += 1
            if recorder.enabled:
                recorder.record(
                    "shed", now, now, track="server", category="request",
                    trace_id=req.request_id, kind=req.kind,
                    args={"reason": reason.value},
                )

        def on_arrival(req: PricingRequest) -> None:
            now = req.arrival_s
            # Every lane lives on the shared clock: linger timers fire
            # and in-flight windows drain across the whole tier, not
            # just the lane this arrival routes to.
            for lane in lanes:
                lane.tick(now)
            if cache is not None:
                resolve_outcomes()
            profile = book.profile(req.tenant)
            requests_total(profile.name).inc()
            if not book.admit(req.tenant, now):
                quota_sheds.append(ShedRecord(req, now, ShedReason.QUOTA))
                shed_quota_total(profile.name).inc()
                if recorder.enabled:
                    recorder.record(
                        "shed", now, now, track="gateway", category="request",
                        trace_id=req.request_id, kind=req.kind,
                        args={"reason": "quota", "tenant": profile.name},
                    )
                return
            key = cache_key(req) if cache is not None else None
            if key is not None:
                cache.stats.lookups += 1
                entry = cache.get(key)
                if entry is not None and entry.ready and now >= entry.ready_s:
                    cache.stats.hits += 1
                    hits_total.inc()
                    emit_cache_response(
                        req, entry, now + cache.hit_latency_s, now
                    )
                    if recorder.enabled:
                        recorder.record(
                            "cache_hit", now, now + cache.hit_latency_s,
                            track="gateway", category="request",
                            trace_id=req.request_id, kind=req.kind,
                            args={"row": key[0], "option": key[1]},
                        )
                    return
                if entry is not None:
                    # In flight (or completing in the future): join the
                    # leader's single flight instead of paying a row.
                    cache.stats.joins += 1
                    joins_total.inc()
                    if entry.ready:
                        emit_cache_response(
                            req, entry, entry.ready_s,
                            max(req.arrival_s, entry.formed_s),
                        )
                    else:
                        entry.waiters.append(req)
                    if recorder.enabled:
                        recorder.record(
                            "cache_join", now, now, track="gateway",
                            category="request", trace_id=req.request_id,
                            kind=req.kind,
                            args={"row": key[0], "option": key[1]},
                        )
                    return
                cache.stats.misses += 1
                misses_total.inc()
            lane = lanes[self.ring.route_request(req)]
            routed_total(lane.index).inc()
            boosted = (
                req
                if profile.priority_boost == 0
                else replace(req, priority=req.priority + profile.priority_boost)
            )
            lane.trace.append(boosted)
            outstanding = lane.n_outstanding
            if outstanding >= self.queue_depth:
                shed_at_lane(lane, boosted, now, ShedReason.BACKPRESSURE)
                return
            if lane.dispatcher is not None and lane.dispatcher.health.capacity_reduced(now):
                frac = DEGRADE_FRACTIONS[req.kind]
                if frac < 1.0 and outstanding >= frac * self.queue_depth:
                    shed_at_lane(lane, boosted, now, ShedReason.DEGRADED)
                    return
            if key is not None:
                cache.begin(key, boosted)
            lane.run(lane.coalescer.offer(boosted))

        def on_tick(payload) -> None:
            _, row = payload
            dropped = cache.invalidate_row(row)
            if dropped:
                invalidations_total.inc(dropped)

        for req in trace:
            sim.schedule_at(
                req.arrival_s, on_arrival, payload=req, label="arrival"
            )
        if cache is not None and ticks:
            for tick in ticks:
                t, row = tick
                if row >= self.tape.n_scenarios:
                    raise ValidationError(
                        f"tick row {row} beyond the "
                        f"{self.tape.n_scenarios}-state tape"
                    )
                sim.schedule_at(t, on_tick, payload=tick, label="tick")
        sim.run()
        for lane in lanes:
            lane.run(lane.coalescer.flush())
        if faulted:
            sim.run()  # tail batches may have scheduled retries
        if cache is not None:
            resolve_outcomes()

        return self._summarise(
            trace, lanes, book, cache,
            cache_responses, quota_sheds, waiter_sheds, waiter_fails,
            gw, monitor=monitor, faults=faults if faulted else None,
        )

    # ------------------------------------------------------------------
    def _empty_lane_result(self, lane: _Lane) -> ServingResult:
        return ServingResult(
            n_offered=0, n_completed=0, n_shed_queue=0, n_shed_deadline=0,
            n_deadline_met=0, n_late=0, span_seconds=0.0, throughput_rps=0.0,
            goodput_rps=0.0, shed_rate=0.0, deadline_hit_rate=0.0,
            latency=LatencyStats.from_latencies(np.asarray([])),
            n_dispatches=0, mean_batch_requests=0.0, mean_batch_rows=0.0,
            cards=tuple(
                CardLoad(
                    card_id=c, dispatches=0, n_rows=0, n_cells=0,
                    busy_seconds=0.0, utilisation=0.0,
                )
                for c in range(lane.server.n_cards)
            ),
        )

    def _summarise(
        self,
        trace,
        lanes,
        book: TenantBook,
        cache: QuoteCache | None,
        cache_responses,
        quota_sheds,
        waiter_sheds,
        waiter_fails,
        gw: MetricsRegistry,
        *,
        monitor=None,
        faults=None,
    ) -> GatewayResult:
        recorder = self.telemetry.recorder
        server_results = []
        all_responses = list(cache_responses)
        all_sheds = quota_sheds + waiter_sheds
        all_fails = list(waiter_fails)
        for lane in lanes:
            if lane.dispatcher is not None:
                counters = lane.dispatcher.counters
                counters.n_breaker_trips = lane.dispatcher.breakers.n_trips
                counters.n_breaker_probes = lane.dispatcher.breakers.n_probes
                lane.metrics.counter(
                    "serving_retries_total", "failed dispatches re-dispatched"
                ).inc(counters.n_retries)
                lane.metrics.counter(
                    "serving_hedges_total", "duplicate straggler dispatches"
                ).inc(counters.n_hedges)
                lane.metrics.counter(
                    "serving_breaker_trips_total",
                    "circuit-breaker open transitions",
                ).inc(counters.n_breaker_trips)
                lane.metrics.counter(
                    "serving_requests_failed_total",
                    "requests failed after retries",
                ).inc(counters.n_failed_requests)
                lane.metrics.counter(
                    "serving_requests_shed_degraded_total",
                    "arrivals shed by the degradation ladder",
                ).inc(counters.n_shed_degraded)
            lane_fails = (
                sorted(lane.dispatcher.fails, key=lambda f: f.time_s)
                if lane.dispatcher is not None
                else []
            )
            lane_sheds = sorted(
                lane.queue_sheds + list(lane.coalescer.sheds),
                key=lambda s: s.time_s,
            )
            if recorder.enabled:
                for rec in lane.coalescer.sheds:
                    recorder.record(
                        "shed", rec.time_s, rec.time_s, track="server",
                        category="request", trace_id=rec.request.request_id,
                        kind=rec.request.kind, args={"reason": str(rec.reason)},
                    )
            if lane.trace:
                server_results.append(
                    lane.server._summarise(
                        lane.trace, lane.all_responses, lane_sheds,
                        lane.rig, lane.metrics,
                        n_failed=len(lane_fails), fails=lane_fails,
                    )
                )
            else:
                server_results.append(self._empty_lane_result(lane))
            all_responses.extend(lane.all_responses)
            all_sheds.extend(lane_sheds)
            all_fails.extend(lane_fails)

        all_responses.sort(key=lambda r: (r.completion_s, r.request_id))
        all_sheds.sort(key=lambda s: (s.time_s, s.request.request_id))
        all_fails.sort(key=lambda f: (f.time_s, f.request.request_id))
        n_offered = len(trace)
        n_completed = len(all_responses)
        met = sum(1 for r in all_responses if r.met_deadline)
        if all_responses:
            span = (
                max(r.completion_s for r in all_responses)
                - trace[0].arrival_s
            )
        else:
            span = 0.0
        stats = cache.stats if cache is not None else None
        cache_ids = frozenset(r.request_id for r in cache_responses)
        result = GatewayResult(
            n_offered=n_offered,
            n_completed=n_completed,
            n_shed=len(all_sheds),
            n_shed_quota=len(quota_sheds),
            n_shed_queue=sum(
                1 for s in all_sheds if s.reason is ShedReason.BACKPRESSURE
            ),
            n_shed_deadline=sum(
                1 for s in all_sheds if s.reason is ShedReason.DEADLINE
            ),
            n_cache_hits=stats.hits if stats else 0,
            n_cache_joins=stats.joins if stats else 0,
            n_cache_invalidations=stats.invalidations if stats else 0,
            cache_hit_rate=stats.hit_rate if stats else 0.0,
            cache_dedup_rate=stats.dedup_rate if stats else 0.0,
            n_deadline_met=met,
            n_late=n_completed - met,
            span_seconds=span,
            throughput_rps=n_completed / span if span > 0 else 0.0,
            goodput_rps=met / span if span > 0 else 0.0,
            shed_rate=len(all_sheds) / n_offered,
            deadline_hit_rate=met / n_completed if n_completed else 0.0,
            latency=LatencyStats.from_latencies(
                np.asarray([r.latency_s for r in all_responses])
            ),
            tenants=per_tenant_stats(
                all_responses, all_sheds, all_fails,
                profiles=book.profiles, span_s=span,
                cache_response_ids=cache_ids,
            ),
            servers=tuple(server_results),
            n_failed=len(all_fails),
            responses=tuple(all_responses),
            sheds=tuple(all_sheds),
            fails=tuple(all_fails),
        )
        self._publish(result, gw)
        if monitor is not None:
            monitor.finalize(result, plan=faults, telemetry=self.telemetry)
        return result

    def _publish(self, result: GatewayResult, gw: MetricsRegistry) -> None:
        """Fold a replay's gateway tallies into the telemetry handle."""
        if self.telemetry is NULL_TELEMETRY:
            return
        out = self.telemetry.metrics
        out.absorb(gw)
        out.gauge(
            "gateway_cache_hit_rate", "served-from-cache fraction of quotes"
        ).set(result.cache_hit_rate)
        out.gauge(
            "gateway_goodput_rps", "gateway-wide in-deadline completions per second"
        ).set(result.goodput_rps)
        out.gauge(
            "gateway_span_seconds", "first arrival to last completion"
        ).set(result.span_seconds)
        out.counter(
            "gateway_requests_completed_total", "requests answered via the gateway"
        ).inc(result.n_completed)
