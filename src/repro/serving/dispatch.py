"""Micro-batch dispatch: the serving layer's one dispatcher.

:class:`Dispatcher` takes each formed micro-batch from its
:class:`~repro.serving.engine.Lane`, prices it, shards its rows across
the cluster's cards and times every chunk on the lane's
:class:`~repro.api.cost.ClusterTimingRig`.  It always runs against a
:class:`~repro.faults.FaultPlan`; a fault-free replay is simply the
empty plan, for which every health check passes, no dispatch fails and
nothing is retried, so the output is the plain size-or-linger timing.

The model, per micro-batch:

* **numerics run once** — the batch's quote surfaces come from
  ``QuoteServer._surfaces`` when the batch forms: only rows the server
  has not yet priced for its tape reach the kernel.  Faults, retries and
  hedges only ever duplicate *simulated* card time; response values are
  bit-identical to the fault-free run.
* **dispatch is prospective** — before committing a card busy window the
  dispatcher peeks at where it would land.  Work reaching the head of a
  down card's queue fails immediately; a window a crash would cut short
  is charged as wasted work up to the crash instant and fails there.
* **failures retry with capped exponential backoff** — surviving rows of
  a failed chunk are re-dispatched over the currently healthy, breaker-
  admitted cards after a seeded full-jitter backoff; the retry budget is
  per dispatch group, and exhausting it turns the group's requests into
  :class:`~repro.serving.request.FailRecord`\\ s.
* **a per-card circuit breaker** (closed/open/half-open) stops the
  dispatcher hammering a card that keeps failing; open breakers divert
  work to the remaining cards, a half-open probe readmits one dispatch.
* **optional hedging** duplicates the slowest straggling chunk of a
  batch onto the fastest alternative card; the first finisher wins and
  the loser's window is charged to the duplicate-work ratio.

With a recording telemetry handle each completed request gets four
phase spans — ``coalesce``, ``host_link``, ``card_queue``,
``card_service`` — taken from the attempt that succeeded for its
critical row, so they tile ``[arrival, completion]`` even after a retry
or a hedge.

Conservation is the load-bearing invariant: every admitted request
finalises exactly once — as a response or a fail record — no matter how
many times its rows were re-dispatched.  The property suite pins
``offered == completed + shed + failed`` across schedulers × plans.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.cluster.scheduler import validate_partition
from repro.faults.breaker import BreakerBank
from repro.faults.health import ClusterHealth
from repro.faults.plan import FaultPlan
from repro.faults.report import FaultCounters
from repro.faults.retry import HedgePolicy, RetryPolicy
from repro.serving.coalescer import MicroBatch
from repro.serving.metrics import CardTallies
from repro.serving.request import FailRecord, PricingResponse, ShedReason

__all__ = ["Dispatcher", "DEGRADE_FRACTIONS"]

#: Degradation ladder: while cluster capacity is reduced, a kind is shed
#: once outstanding work exceeds this fraction of the admission bound —
#: the mini VaR refreshes go first, latency-critical quotes last.
DEGRADE_FRACTIONS = {"quote": 1.0, "reval": 0.5, "var": 0.25}


class _BatchState:
    """Mutable progress of one micro-batch through dispatch.

    ``done`` maps each completed row to ``(done_s, card, issued_s,
    start_s)`` of the chunk attempt that succeeded: its card window's
    completion, the card, the end of its host dispatch and the start of
    its card window.  Every row is in exactly one of ``done``,
    ``failed`` or a scheduled retry; ``left`` counts the rows not yet in
    ``done`` or ``failed``.
    """

    __slots__ = ("batch", "values", "weight", "done", "failed", "left",
                 "attempts", "finalised")

    def __init__(self, batch: MicroBatch, values: list[float],
                 weight: dict[int, int]) -> None:
        self.batch = batch
        self.values = values
        self.weight = weight
        self.done: dict[int, tuple[float, int, float, float]] = {}
        self.failed: dict[int, tuple[float, ShedReason]] = {}
        self.left = len(batch.rows)
        self.attempts = 1
        self.finalised = False


class Dispatcher:
    """Drives micro-batches through the (possibly faulted) cluster.

    Parameters
    ----------
    server:
        The owning :class:`~repro.serving.engine.QuoteServer` (numerics,
        scheduler, link, cost model and telemetry are borrowed from it).
    rig:
        The replay's timing rig; host-link outages from the plan are
        registered as downtime on its host resource here.
    plan:
        The fault plan; empty for a fault-free replay.
    retry / hedge:
        Policies; ``None`` picks the defaults (retry seeded from the
        plan, hedging disabled).  An empty plan never hedges.
    metrics:
        The replay's metrics registry (per-card row/cell counters).
    in_flight:
        The admission controller's completion tracker; finalised
        responses are pushed as their completion becomes known.
    """

    def __init__(self, server, rig, plan: FaultPlan, *,
                 retry: RetryPolicy | None, hedge: HedgePolicy | None,
                 metrics, in_flight) -> None:
        self.server = server
        self.rig = rig
        self.sim = rig.sim
        self.plan = plan
        self.recorder = server.telemetry.recorder
        self.health = ClusterHealth(plan, server.n_cards)
        self.breakers = BreakerBank(server.n_cards)
        self.retry = retry if retry is not None else RetryPolicy(seed=plan.seed)
        # Hedging answers injected stragglers: without a plan it stays
        # off whatever the caller asked for.
        if hedge is None or plan.is_empty:
            hedge = HedgePolicy(enabled=False)
        self.hedge = hedge
        self.card_tallies = CardTallies(metrics)
        self.in_flight = in_flight
        self.counters = FaultCounters()
        self.responses: list[PricingResponse] = []
        self.fails: list[FailRecord] = []
        #: Requests dispatched whose terminal state is not yet known —
        #: part of the admission controller's outstanding count.
        self.n_outstanding = 0
        # The host link cannot issue dispatches during an outage window;
        # Resource downtime models that directly.
        for outage in plan.link_outages:
            rig.host.add_downtime(outage.at_s, outage.until_s)
        self._record_fault_spans()

    def _record_fault_spans(self) -> None:
        """Mirror the plan's events as spans on a dedicated trace track."""
        if not self.recorder.enabled:
            return
        for event in self.plan.events:
            end = getattr(event, "down_until_s", None)
            if end is None:
                end = event.until_s
            if math.isinf(end):
                end = event.at_s  # permanent: render as an instant
            name = f"fault:{event.spec().split(':', 1)[0]}"
            self.recorder.record(
                name, event.at_s, end, track="faults", category="fault",
                args={"spec": event.spec()},
            )

    # ------------------------------------------------------------------
    def run_batch(self, batch: MicroBatch) -> None:
        """Price a batch (numerics once) and start its dispatch."""
        weight = self.server._batch_weights(batch)
        rows = batch.rows
        spreads, pv = self.server._surfaces(rows)
        values = self.server._values(batch.requests, rows, spreads, pv)
        state = _BatchState(batch, values, weight)
        self.n_outstanding += len(batch.requests)
        self._dispatch(state, rows, batch.formed_s, attempt=0)

    # ------------------------------------------------------------------
    def _dispatch(self, state: _BatchState, rows: Sequence[int], t: float,
                  attempt: int) -> None:
        """Dispatch ``rows`` (one attempt) over healthy, admitted cards.

        Heaviest chunks land on the least-busy cards (online in-flight
        balancing); each chunk's dispatch serialises through the host
        resource before its card busy window.
        """
        state.attempts = max(state.attempts, attempt + 1)
        healthy = self.health.healthy_cards(t)
        allowed = self.breakers.allowed_cards(healthy, t)
        if not allowed:
            reason = (
                ShedReason.BREAKER_OPEN if healthy else ShedReason.CARD_FAILURE
            )
            self._retry_or_fail(state, rows, t, attempt, reason)
            return

        weights = [float(state.weight[r]) for r in rows]
        sub = self.server.scheduler.partition(weights, len(allowed))
        validate_partition(sub, len(rows))
        chunks = sorted(
            (chunk for chunk in sub if chunk),
            key=lambda chunk: -sum(weights[i] for i in chunk),
        )
        cards = self.rig.cards
        by_busy = sorted(allowed, key=lambda c: (cards[c].busy_until, c))
        factor = self.server.link.contention_factor(len(chunks))

        successes = []
        failures: list[tuple[list[int], float]] = []
        for slot, chunk in enumerate(chunks):
            card = by_busy[slot]
            chunk_rows = [rows[i] for i in chunk]
            n_cells = sum(state.weight[r] for r in chunk_rows)
            window, at_s = self._dispatch_chunk(
                chunk_rows, card, t, n_cells, factor
            )
            if window is None:
                failures.append((chunk_rows, at_s))
            else:
                successes.append((chunk_rows, card, window, at_s))
        self._maybe_hedge(state, successes, by_busy, t, factor)
        for chunk_rows, card, window, issued_s in successes:
            done = (window.done_s, card, issued_s, window.start_s)
            for r in chunk_rows:
                state.done[r] = done
            state.left -= len(chunk_rows)
        for chunk_rows, fail_s in failures:
            self._retry_or_fail(
                state, chunk_rows, fail_s, attempt, ShedReason.CARD_FAILURE
            )
        self._maybe_finalise(state)

    def _dispatch_chunk(self, chunk_rows: list[int], card: int, t: float,
                        n_cells: int, factor: float):
        """One chunk onto one card: host dispatch, then the card window.

        Returns ``(window, issued_s)`` for a committed card window, or
        ``(None, fail_s)`` when the dispatch died (card already down at
        its queue head, or a crash cut the window short).
        """
        host = self.rig.host
        link_factor = self.health.link_factor(host.peek_start(t))
        issue = host.reserve(
            t,
            self.server.link.dispatch_seconds(1) * link_factor,
            span_name="dispatch",
            span_kind="host_link",
            span_args={"card": card},
        )
        card_res = self.rig.cards[card]
        start = max(issue.done_s, card_res.busy_until)
        n_rows = len(chunk_rows)
        base = self.server.cost_model.service_seconds(
            n_rows, n_cells, contention=factor
        )
        span_args = {"rows": n_rows, "cells": n_cells}
        breaker = self.breakers[card]
        if self.health.card_down(card, start):
            # The card died before this work reached the head of its
            # queue; the host dispatch is the only wasted time.
            self.counters.n_failed_dispatches += 1
            self.counters.wasted_work_s += issue.service_s
            breaker.record_failure(start)
            return None, start
        service = base * self.health.service_factor(card, start, base)
        crash_s = self.health.crash_during(card, start, start + service)
        if crash_s is not None:
            # Mid-window crash: the card genuinely burned [start, crash)
            # before dying, so reserve exactly that truncated window.
            card_res.reserve(
                issue.done_s, crash_s - start, span_name="chunk",
                span_kind="dispatch", span_args=span_args,
            )
            self.counters.n_failed_dispatches += 1
            self.counters.wasted_work_s += (crash_s - start) + issue.service_s
            breaker.record_failure(crash_s)
            return None, crash_s
        window = card_res.reserve(
            issue.done_s, service, span_name="chunk", span_kind="dispatch",
            span_args=span_args,
        )
        self.counters.useful_work_s += service
        breaker.record_success(window.done_s)
        self.card_tallies.add(card, n_rows, n_cells)
        return window, issue.done_s

    def _maybe_hedge(self, state: _BatchState, successes, by_busy,
                     t: float, factor: float) -> None:
        """Duplicate the slowest straggling chunk; first finisher wins."""
        if not self.hedge.enabled or len(successes) < 2 or len(by_busy) < 2:
            return
        budget = self.hedge.max_hedges_per_batch
        dones = sorted(w.done_s for _, _, w, _ in successes)
        # Lower median: with two chunks the straggler is judged against
        # the faster one, otherwise no two-card cluster could ever hedge.
        median = dones[(len(dones) - 1) // 2]
        order = sorted(
            range(len(successes)), key=lambda i: -successes[i][2].done_s
        )
        for i in order:
            if budget <= 0:
                break
            chunk_rows, card, window, _ = successes[i]
            if not self.hedge.should_hedge(
                window.done_s, median, state.batch.formed_s
            ):
                continue
            alt = next((c for c in by_busy if c != card), None)
            if alt is None:
                continue
            budget -= 1
            self.counters.n_hedges += 1
            n_cells = sum(state.weight[r] for r in chunk_rows)
            hedged, issued_s = self._dispatch_chunk(
                chunk_rows, alt, t, n_cells, factor
            )
            if hedged is None:
                continue
            if hedged.done_s < window.done_s:
                # The hedge won: the primary window becomes the waste.
                self.counters.n_hedge_wins += 1
                self.counters.useful_work_s -= window.service_s
                self.counters.wasted_work_s += window.service_s
                successes[i] = (chunk_rows, alt, hedged, issued_s)
            else:
                self.counters.useful_work_s -= hedged.service_s
                self.counters.wasted_work_s += hedged.service_s

    # ------------------------------------------------------------------
    def _retry_or_fail(self, state: _BatchState, rows: Sequence[int], t: float,
                       attempt: int, reason: ShedReason) -> None:
        """Back off and re-dispatch, or mark the rows' requests failed."""
        next_attempt = attempt + 1
        if self.retry.exhausted(next_attempt):
            for r in rows:
                state.failed[r] = (t, reason)
            state.left -= len(rows)
            state.attempts = max(state.attempts, next_attempt)
            self._maybe_finalise(state)
            return
        delay = self.retry.backoff_s(next_attempt)
        self.counters.n_retries += 1
        # Batches can form (and fail) at instants the coalescer flushed
        # retroactively, so the retry must not land before the clock.
        retry_s = max(t + delay, self.sim.clock.now)
        self.sim.schedule_at(
            retry_s,
            self._on_retry,
            payload=(state, tuple(rows), retry_s, next_attempt),
            label="fault-retry",
        )

    def _on_retry(self, payload) -> None:
        state, rows, t, attempt = payload
        self._dispatch(state, rows, t, attempt)

    def _maybe_finalise(self, state: _BatchState) -> None:
        """Emit terminal records once every row is done or failed."""
        if state.left or state.finalised:
            return
        state.finalised = True
        batch = state.batch
        done, failed = state.done, state.failed
        tracing = self.recorder.enabled
        for req, value in zip(batch.requests, state.values):
            lost = [r for r in req.rows if r in failed] if failed else None
            if lost:
                last = max(lost, key=lambda r: failed[r][0])
                self.fails.append(
                    FailRecord(
                        request=req,
                        time_s=failed[last][0],
                        attempts=state.attempts,
                        reason=failed[last][1],
                    )
                )
                self.counters.n_failed_requests += 1
                continue
            completion = max(done[r][0] for r in req.rows)
            if tracing:
                self._record_phases(req, batch, done, completion)
            self.responses.append(
                PricingResponse(
                    request_id=req.request_id,
                    kind=req.kind,
                    value=value,
                    arrival_s=req.arrival_s,
                    formed_s=batch.formed_s,
                    completion_s=completion,
                    latency_s=completion - req.arrival_s,
                    met_deadline=completion <= req.deadline_s,
                    batch_id=batch.batch_id,
                    cards=tuple(sorted({done[r][1] for r in req.rows})),
                    tenant=req.tenant,
                )
            )
            self.in_flight.push(completion)
        self.n_outstanding -= len(batch.requests)

    def _record_phases(self, req, batch: MicroBatch, done,
                       completion: float) -> None:
        """Phase spans for the request's critical row.

        The critical row is the one whose card window completes last.
        The four phases tile ``[arrival, completion]`` with no gaps, so
        their durations sum exactly to the reported latency.
        """
        crit = max(req.rows, key=lambda r: (done[r][0], r))
        _, card, issued_s, start_s = done[crit]
        tid = req.request_id
        record = self.recorder.record
        record(
            "coalesce", req.arrival_s, batch.formed_s,
            track="requests", category="request", trace_id=tid,
            kind=req.kind, args={"batch": batch.batch_id},
        )
        for name, begin, end in (
            ("host_link", batch.formed_s, issued_s),
            ("card_queue", issued_s, start_s),
            ("card_service", start_s, completion),
        ):
            record(
                name, begin, end, track="requests", category="request",
                trace_id=tid, kind=req.kind, args={"card": card},
            )
