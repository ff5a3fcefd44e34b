"""The quote server: micro-batched request coalescing onto the cluster.

:class:`QuoteServer` is the online counterpart of the overnight risk
batch.  A stream of :class:`~repro.serving.request.PricingRequest`
objects (quotes, revals, VaR refreshes) arrives in simulated time; the
server coalesces them into micro-batches under a size-or-linger policy
(:class:`~repro.serving.coalescer.MicroBatchCoalescer`, carrying the
cluster layer's :class:`~repro.cluster.batching.BatchQueue`), answers
each batch from the server's quote surfaces, and shards the batch's rows
for *timing* across cluster cards with the existing
:class:`~repro.cluster.scheduler.ClusterScheduler` policies, weighted by
each row's kernel-cell cost.  Only ``supports_streaming`` backends are
accepted — the capability flag of the unified API.

Two clocks run side by side, exactly as in the risk subsystem:

* **numerics** execute on the host, for real, and run once per tape row —
  a batch's rows this server has not yet priced for its tape go through
  **one** negotiated call on the pricing session's base backend (via
  :meth:`~repro.risk.engine.ScenarioRiskEngine.quote_rows`), and every
  row already priced is read back from the server's memo.  Every
  response value is a genuine kernel output, bit-identical to pricing
  each request alone (rows are independent inside the kernel, and the
  tape is frozen);
* **timing** runs on the unified :mod:`repro.sim` core: request arrivals
  are events on one :class:`~repro.sim.Simulation`, the host thread and
  every card are :class:`~repro.sim.Resource` busy-window surfaces on a
  :class:`~repro.api.cost.ClusterTimingRig` obtained through the pricing
  session's ``timing_rig`` hook, linger timers fire as the event loop
  reaches them, and concurrent card transfers stretch by the
  :class:`~repro.cluster.interconnect.HostLinkModel` contention factor.
  The timing-conformance suite pins this event-driven replay
  bit-identical to the pre-``repro.sim`` per-card ``busy_until``
  bookkeeping it replaced.

The dispatch cost model (:class:`~repro.api.cost.DispatchCostModel`,
re-exported here for compatibility) comes from the backend's cost-model
hook on the pricing session — by default calibrated from one
representative :class:`~repro.cluster.node.ClusterNode` batch, the same
discrete-event engines behind every other layer — split into the fixed
per-dispatch overhead (kernel invocation + PCIe setup) and the marginal
per-row / per-cell costs.  That split is the entire economics of
micro-batching: dispatching requests one at a time pays the fixed
overhead per request, coalescing amortises it across the batch.

Admission control is a bounded outstanding-work queue: a request arriving
while ``queue_depth`` admitted requests are still pending or in flight is
shed immediately (backpressure), and pending requests whose deadline
expires before their batch forms are shed by the coalescer.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.api import PricingBackend, create_backend
from repro.api.cost import ClusterTimingRig, DispatchCostModel
from repro.cluster.batching import BatchQueue
from repro.cluster.interconnect import HostLinkModel
from repro.cluster.scheduler import (
    ClusterScheduler,
    make_scheduler,
    validate_partition,
)
from repro.errors import CapabilityError, ValidationError
from repro.risk.engine import Portfolio, ScenarioRiskEngine
from repro.risk.measures import value_at_risk
from repro.risk.tensor import ScenarioTensor
from repro.serving.coalescer import MicroBatch, MicroBatchCoalescer
from repro.serving.metrics import (
    CardLoad,
    CardTallies,
    LatencyStats,
    ServingResult,
)
from repro.serving.request import (
    PricingRequest,
    PricingResponse,
    ShedReason,
    ShedRecord,
)
from repro.sim import CompletionTracker
from repro.telemetry import NULL_TELEMETRY, MetricsRegistry, Telemetry
from repro.workloads.scenarios import PaperScenario

if TYPE_CHECKING:  # fault types are optional at runtime (lazy import)
    from repro.faults import FaultPlan, FaultReport, HedgePolicy, RetryPolicy

__all__ = ["DispatchCostModel", "QuoteServer", "VAR_CONFIDENCE"]

#: Confidence level of the VaR-refresh request family.
VAR_CONFIDENCE = 0.95


class QuoteServer:
    """Simulated-time online pricing service over the cluster.

    Parameters
    ----------
    book:
        The signed book the server quotes and revalues.
    tape:
        The live market tape: a :class:`~repro.risk.tensor.
        ScenarioTensor` whose rows are the market states requests
        reference.  Each row is priced at most once per server; assign a
        new tensor to :attr:`tape` to serve new market states.
    scenario:
        Experimental configuration (default
        :class:`~repro.workloads.scenarios.PaperScenario`).
    n_cards / n_engines:
        Cluster shape.
    scheduler:
        Row-sharding policy per micro-batch (name or
        :class:`~repro.cluster.scheduler.ClusterScheduler` instance);
        rows are weighted by their kernel-cell cost, so the cost-aware
        policies balance mixed quote/reval/var batches.
    link:
        Host-path timing model (default :class:`HostLinkModel`).
    queue:
        Size-or-linger coalescing policy (default
        ``BatchQueue(max_batch=128, linger_s=1e-3)``).
    queue_depth:
        Bound on admitted-but-incomplete requests (pending + in flight);
        arrivals beyond it are shed (backpressure).
    chunk_size:
        Kernel chunk size for the host numerics (``None`` = automatic).
    backend:
        Base pricing backend behind the risk engine's session (registry
        name or :class:`~repro.api.PricingBackend` instance).  Must
        advertise ``supports_streaming``.
    cost_model:
        Reuse an already-calibrated
        :class:`~repro.api.cost.DispatchCostModel` for the same backend,
        scenario, book and engine count, instead of calibrating one here
        (calibration runs a dataflow simulation of the whole book).
        Replicas of one server share it this way, as
        :meth:`~repro.api.PricingSession.timing_rig` does.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` handle.  With a
        recording handle every replay emits resource busy-window spans
        (host + cards, via the timing rig) and four per-request phase
        spans — ``coalesce``, ``host_link``, ``card_queue``,
        ``card_service`` — keyed by the request id as trace id, whose
        durations sum exactly to the request's reported latency.  Run
        tallies are published into ``telemetry.metrics`` after each
        :meth:`serve`.  Default: the process-wide no-op handle (reports
        are byte-identical either way).
    """

    #: Default coalescing policy: micro-batches, not overnight batches.
    DEFAULT_QUEUE = BatchQueue(max_batch=128, linger_s=1e-3)

    def __init__(
        self,
        book: Portfolio,
        tape: ScenarioTensor,
        *,
        scenario: PaperScenario | None = None,
        n_cards: int = 4,
        n_engines: int = 5,
        scheduler: ClusterScheduler | str = "least-loaded",
        link: HostLinkModel | None = None,
        queue: BatchQueue | None = None,
        queue_depth: int = 4096,
        chunk_size: int | None = None,
        backend: str | PricingBackend = "vectorized",
        cost_model: DispatchCostModel | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        if n_cards < 1:
            raise ValidationError(f"n_cards must be >= 1, got {n_cards}")
        if queue_depth < 1:
            raise ValidationError(f"queue_depth must be >= 1, got {queue_depth}")
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.tape = tape
        self.n_cards = n_cards
        self.scheduler = (
            make_scheduler(scheduler) if isinstance(scheduler, str) else scheduler
        )
        self.link = link if link is not None else HostLinkModel()
        self.queue = queue if queue is not None else self.DEFAULT_QUEUE
        self.queue_depth = queue_depth
        self.chunk_size = chunk_size
        # Gate on the streaming capability BEFORE the engine binds the
        # backend: the server's requirement is the one the user should
        # see (the engine would otherwise fail first on its own legs
        # check with a "risk revaluation" message), and nothing is bound
        # yet so a caller-supplied instance stays reusable.
        if isinstance(backend, str):
            backend = create_backend(backend)
        if not backend.capabilities.supports_streaming:
            raise CapabilityError(
                "the quote server needs streaming quote serving, which "
                f"backend {backend.name!r} does not advertise; choose one "
                "with supports_streaming (`repro-cds backends` lists them)"
            )
        # The risk engine's pricing session binds the book once and owns
        # the base state; quote_rows() is the shared negotiated path.
        self.engine = ScenarioRiskEngine(
            book,
            scenario=scenario,
            n_cards=n_cards,
            n_engines=n_engines,
            scheduler=self.scheduler,
            link=self.link,
            backend=backend,
            telemetry=self.telemetry,
        )
        # Per-dispatch economics come from the backend's cost-model hook.
        if cost_model is None:
            cost_model = self.engine.session.dispatch_cost_model(
                self.engine.scenario,
                self.engine.yield_curve,
                self.engine.hazard_curve,
                n_engines=n_engines,
            )
        self.cost_model = cost_model
        self._notionals = book.notionals
        self._base_pv = self.engine.base_pv
        # Quote-surface memo, allocated on first use and keyed on the
        # tape by identity (see _surfaces).
        self._memo_tape: ScenarioTensor | None = None
        #: Resilience summary of the most recent faulted :meth:`serve`
        #: (``None`` after a fault-free replay).
        self.last_fault_report: FaultReport | None = None

    @property
    def book(self) -> Portfolio:
        """The served book."""
        return self.engine.portfolio

    @property
    def n_positions(self) -> int:
        """Book size."""
        return len(self.engine.portfolio)

    # ------------------------------------------------------------------
    def _check_request(self, req: PricingRequest) -> None:
        if any(r >= self.tape.n_scenarios for r in req.rows):
            raise ValidationError(
                f"request {req.request_id} references market row beyond the "
                f"{self.tape.n_scenarios}-state tape"
            )
        if req.option_index is not None and req.option_index >= self.n_positions:
            raise ValidationError(
                f"request {req.request_id} quotes option {req.option_index} "
                f"beyond the {self.n_positions}-position book"
            )

    def _values(
        self,
        requests: Sequence[PricingRequest],
        rows: Sequence[int],
        spreads: np.ndarray,
        pv: np.ndarray,
    ) -> list[float]:
        """Per-request answers from the batch's quote surfaces.

        Every value depends only on the request's own rows, so the batch
        decomposition never changes the numbers.
        """
        pos = {row: i for i, row in enumerate(rows)}
        pnl_rows = None
        if any(req.kind != "quote" for req in requests):
            # Per-row pairwise reduction, NOT a matrix-vector product:
            # BLAS picks different kernels for different matrix heights,
            # which would break the batched == individual bit-identity
            # pin.  Skipped entirely for all-quote batches.
            pnl_rows = np.sum(
                (pv - self._base_pv[None, :]) * self._notionals[None, :], axis=1
            )
        values: list[float] = []
        for req in requests:
            if req.kind == "quote":
                values.append(float(spreads[pos[req.rows[0]], req.option_index]))
            elif req.kind == "reval":
                values.append(float(pnl_rows[pos[req.rows[0]]]))
            else:  # var
                pnl = pnl_rows[[pos[r] for r in req.rows]]
                values.append(value_at_risk(pnl, confidence=VAR_CONFIDENCE))
        return values

    def _surfaces(self, rows: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """``(spreads_bps, unit_pv)`` rows for a batch, each priced once.

        Only the rows this server has not yet priced for :attr:`tape` go
        to the kernel, in one :meth:`~repro.risk.engine.
        ScenarioRiskEngine.quote_rows` call; the rest are read from the
        memo.  That is sound because the tape's arrays are frozen and a
        row's value does not depend on the batch that priced it (the
        batched == individual pin).  Rebinding :attr:`tape` drops the
        memo.
        """
        if self._memo_tape is not self.tape:
            shape = (self.tape.n_scenarios, self.n_positions)
            self._memo_tape = self.tape
            self._memo_spreads = np.empty(shape)
            self._memo_pv = np.empty(shape)
            self._memo_have = np.zeros(shape[0], dtype=bool)
        idx = np.asarray(rows, dtype=np.intp)
        missing = idx[~self._memo_have[idx]]
        if missing.size:
            spreads, pv = self.engine.quote_rows(
                self.tape, missing, chunk_size=self.chunk_size
            )
            self._memo_spreads[missing] = spreads
            self._memo_pv[missing] = pv
            self._memo_have[missing] = True
        return self._memo_spreads[idx], self._memo_pv[idx]

    def price_individually(
        self, requests: Sequence[PricingRequest]
    ) -> list[float]:
        """Reference path: one kernel call per request, no coalescing.

        Deliberately bypasses the quote-surface memo, so the property
        suite's pin of :meth:`serve`'s values bit-identical to this
        compares against fresh kernel output.
        """
        values: list[float] = []
        for req in requests:
            self._check_request(req)
            rows = tuple(sorted(set(req.rows)))
            spreads, pv = self.engine.quote_rows(
                self.tape, rows, chunk_size=self.chunk_size
            )
            values.extend(self._values([req], rows, spreads, pv))
        return values

    # ------------------------------------------------------------------
    def _batch_weights(self, batch: MicroBatch) -> dict[int, int]:
        """Row weights: the kernel cells each deduplicated row costs.

        The union of what the row's requests need (a reval/var wants the
        whole book, quotes want their distinct contracts), never a sum:
        the card prices each row once however many requests share it.
        """
        wanted: dict[int, set[int] | None] = {r: set() for r in batch.rows}
        for req in batch.requests:
            for r in req.rows:
                if req.kind == "quote" and wanted[r] is not None:
                    wanted[r].add(req.option_index)
                elif req.kind != "quote":
                    wanted[r] = None  # the whole book
        return {
            r: self.n_positions if opts is None else len(opts)
            for r, opts in wanted.items()
        }

    def _run_batch(
        self,
        batch: MicroBatch,
        rig: ClusterTimingRig,
        card_tallies: CardTallies,
    ) -> list[PricingResponse]:
        """Price one micro-batch and time it on the rig's resources."""
        rows = batch.rows
        weight = self._batch_weights(batch)
        assignment = self.scheduler.partition(
            [float(weight[r]) for r in rows], self.n_cards
        )
        validate_partition(assignment, len(rows))
        active = sum(1 for chunk in assignment if chunk)
        factor = self.link.contention_factor(active)

        # Host numerics: at most one kernel call, for the rows not yet
        # priced on this tape; the card sharding above is timing-only.
        spreads, pv = self._surfaces(rows)
        values = self._values(batch.requests, rows, spreads, pv)

        # Timing: heaviest chunks land on the least-busy cards (online
        # in-flight balancing), dispatches serialising through the host
        # resource before each card's busy-window reservation.
        chunks = sorted(
            (chunk for chunk in assignment if chunk),
            key=lambda chunk: -sum(weight[rows[i]] for i in chunk),
        )
        by_busy = sorted(
            range(self.n_cards), key=lambda c: (rig.cards[c].busy_until, c)
        )
        recorder = self.telemetry.recorder
        row_done: dict[int, float] = {}
        row_card: dict[int, int] = {}
        row_issued: dict[int, float] = {}
        row_start: dict[int, float] = {}
        for slot, chunk in enumerate(chunks):
            card_id = by_busy[slot]
            n_rows = len(chunk)
            n_cells = sum(weight[rows[i]] for i in chunk)
            window = rig.dispatch(
                batch.formed_s, card_id, n_rows, n_cells, contention=factor
            )
            issued_s = rig.last_host_window.done_s
            card_tallies.add(card_id, n_rows, n_cells)
            for i in chunk:
                row_done[rows[i]] = window.done_s
                row_card[rows[i]] = card_id
                if recorder.enabled:
                    row_issued[rows[i]] = issued_s
                    row_start[rows[i]] = window.start_s

        responses = []
        for req, value in zip(batch.requests, values):
            completion = max(row_done[r] for r in req.rows)
            if recorder.enabled:
                # Phase spans for the request's critical row — the one
                # whose card window completes last.  The four phases
                # tile [arrival, completion] with no gaps, so their
                # durations sum exactly to the reported latency.
                crit = max(req.rows, key=lambda r: (row_done[r], r))
                tid = req.request_id
                card = row_card[crit]
                recorder.record(
                    "coalesce", req.arrival_s, batch.formed_s,
                    track="requests", category="request", trace_id=tid,
                    kind=req.kind, args={"batch": batch.batch_id},
                )
                recorder.record(
                    "host_link", batch.formed_s, row_issued[crit],
                    track="requests", category="request", trace_id=tid,
                    kind=req.kind, args={"card": card},
                )
                recorder.record(
                    "card_queue", row_issued[crit], row_start[crit],
                    track="requests", category="request", trace_id=tid,
                    kind=req.kind, args={"card": card},
                )
                recorder.record(
                    "card_service", row_start[crit], completion,
                    track="requests", category="request", trace_id=tid,
                    kind=req.kind, args={"card": card},
                )
            responses.append(
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
                    cards=tuple(sorted({row_card[r] for r in req.rows})),
                    tenant=req.tenant,
                )
            )
        return responses

    def serve(
        self,
        requests: Sequence[PricingRequest],
        *,
        faults: "FaultPlan | None" = None,
        hedge: "HedgePolicy | None" = None,
        retry: "RetryPolicy | None" = None,
        monitor=None,
    ) -> ServingResult:
        """Replay a request trace through the server on the unified clock.

        Each request arrival is an event on one :class:`~repro.sim.
        Simulation`; its handler fires due linger timers, drains the
        in-flight window, reaps expired pending work, applies the
        admission bound, and offers the arrival to the coalescer.
        Dispatched batches reserve busy windows on the timing rig's host
        and card resources (see :meth:`_run_batch`).

        Parameters
        ----------
        requests:
            The offered load; sorted internally by arrival time.
        faults:
            Optional :class:`~repro.faults.FaultPlan`.  ``None`` or an
            empty plan takes exactly the legacy path (byte-identical
            output); a non-empty plan routes dispatch through the
            failure-aware layer (retries, breakers, degradation ladder
            — see :mod:`repro.serving.faulted`) and leaves the run's
            :class:`~repro.faults.FaultReport` on
            :attr:`last_fault_report`.
        hedge / retry:
            Fault-mode policies (ignored without an active plan);
            ``None`` picks defaults (hedging off, retry seeded from the
            plan).
        monitor:
            Optional :class:`~repro.monitor.Monitor`.  Attached to the
            replay's simulation before the event loop starts (the
            sampler rides trace hooks, so the event schedule — and
            therefore every reported number — is identical either way)
            and finalized against the result; the evaluation lands on
            ``monitor.result``.

        Returns
        -------
        ServingResult
            Latency/goodput/shed accounting plus the raw responses.
        """
        if not requests:
            raise ValidationError("request trace must be non-empty")
        trace = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
        for req in trace:
            self._check_request(req)

        # One timing rig per replay: fresh host/card resources on a fresh
        # clock, busy windows priced by the session backend's cost model
        # (already calibrated at construction).
        rig = self.engine.session.timing_rig(
            self.engine.scenario,
            self.engine.yield_curve,
            self.engine.hazard_curve,
            n_cards=self.n_cards,
            link=self.link,
            cost_model=self.cost_model,
        )
        self.last_fault_report = None
        if faults is not None and not faults.is_empty:
            return self._serve_faulted(
                trace, rig, faults, hedge=hedge, retry=retry, monitor=monitor
            )
        sim = rig.sim
        coalescer = MicroBatchCoalescer(self.queue)
        in_flight = CompletionTracker()
        responses: list[PricingResponse] = []
        queue_sheds: list[ShedRecord] = []
        # One registry per replay: the run's tallies are named metrics,
        # not loose integers, so the roll-up below and the telemetry
        # publish read the same counters.
        metrics = MetricsRegistry()
        n_batches = metrics.counter(
            "serving_batches_total", "micro-batches dispatched"
        )
        batch_requests = metrics.counter(
            "serving_batch_requests_total", "requests carried by batches"
        )
        batch_rows = metrics.counter(
            "serving_batch_rows_total", "deduplicated market rows batched"
        )
        shed_queue = metrics.counter(
            "serving_requests_shed_queue_total", "arrivals shed on backpressure"
        )
        card_tallies = CardTallies(metrics)
        recorder = self.telemetry.recorder
        if monitor is not None:
            monitor.attach(sim, metrics, n_cards=self.n_cards)

        def run(batches: list[MicroBatch]) -> None:
            for batch in batches:
                done = self._run_batch(batch, rig, card_tallies)
                responses.extend(done)
                for resp in done:
                    in_flight.push(resp.completion_s)
                n_batches.inc()
                batch_requests.inc(batch.n_requests)
                batch_rows.inc(len(batch.rows))

        def on_arrival(req: PricingRequest) -> None:
            now = req.arrival_s
            run(coalescer.advance(now))
            # Drain *after* the linger sweep: batches it dispatched may
            # already have completed by this arrival, and counting them
            # as in-flight would shed requests from an idle server.
            in_flight.drain(now)
            # Expired pending requests can never be priced; reap them so
            # dead work does not trip the admission bound below.
            coalescer.reap(now)
            # Outstanding work = requests still pending in the coalescer
            # plus dispatched responses whose completion lies in the
            # future; the bounded queue sheds on the sum (backpressure).
            if coalescer.n_pending + len(in_flight) >= self.queue_depth:
                queue_sheds.append(ShedRecord(req, now, "queue_full"))
                shed_queue.inc()
                if recorder.enabled:
                    recorder.record(
                        "shed", now, now, track="server", category="request",
                        trace_id=req.request_id, kind=req.kind,
                        args={"reason": "queue_full"},
                    )
                return
            run(coalescer.offer(req))

        for req in trace:
            sim.schedule_at(
                req.arrival_s, on_arrival, payload=req, label="arrival"
            )
        sim.run()
        # The trace has ended; remaining linger timers fire past the last
        # arrival, so tail batches keep honest formation times.
        run(coalescer.flush())

        sheds = sorted(
            queue_sheds + list(coalescer.sheds), key=lambda s: s.time_s
        )
        if recorder.enabled:
            for shed in coalescer.sheds:
                recorder.record(
                    "shed", shed.time_s, shed.time_s, track="server",
                    category="request", trace_id=shed.request.request_id,
                    kind=shed.request.kind, args={"reason": shed.reason},
                )

        result = self._summarise(trace, responses, sheds, rig, metrics)
        if monitor is not None:
            monitor.finalize(result, telemetry=self.telemetry)
        return result

    # ------------------------------------------------------------------
    def _serve_faulted(
        self,
        trace: list[PricingRequest],
        rig: ClusterTimingRig,
        faults: "FaultPlan",
        *,
        hedge: "HedgePolicy | None",
        retry: "RetryPolicy | None",
        monitor=None,
    ) -> ServingResult:
        """The fault-mode replay loop (see :mod:`repro.serving.faulted`).

        Mirrors :meth:`serve`'s event loop with three additions: the
        degradation ladder sheds low-priority kinds while capacity is
        reduced, requests awaiting retry count toward the admission
        bound, and a second ``sim.run()`` drains retry events scheduled
        by tail batches.  Builds the run's :class:`~repro.faults.
        FaultReport` into :attr:`last_fault_report`.
        """
        from repro.faults.report import build_fault_report
        from repro.serving.faulted import DEGRADE_FRACTIONS, FaultedDispatcher

        sim = rig.sim
        coalescer = MicroBatchCoalescer(self.queue)
        in_flight = CompletionTracker()
        metrics = MetricsRegistry()
        n_batches = metrics.counter(
            "serving_batches_total", "micro-batches dispatched"
        )
        batch_requests = metrics.counter(
            "serving_batch_requests_total", "requests carried by batches"
        )
        batch_rows = metrics.counter(
            "serving_batch_rows_total", "deduplicated market rows batched"
        )
        shed_queue = metrics.counter(
            "serving_requests_shed_queue_total", "arrivals shed on backpressure"
        )
        recorder = self.telemetry.recorder
        dispatcher = FaultedDispatcher(
            self, rig, faults, retry=retry, hedge=hedge,
            metrics=metrics, in_flight=in_flight,
        )
        if monitor is not None:
            monitor.attach(
                sim, metrics, n_cards=self.n_cards, health=dispatcher.health
            )
        queue_sheds: list[ShedRecord] = []

        def run(batches: list[MicroBatch]) -> None:
            for batch in batches:
                dispatcher.run_batch(batch)
                n_batches.inc()
                batch_requests.inc(batch.n_requests)
                batch_rows.inc(len(batch.rows))

        def shed(req: PricingRequest, now: float, reason: ShedReason) -> None:
            queue_sheds.append(ShedRecord(req, now, reason))
            if reason is ShedReason.BACKPRESSURE:
                shed_queue.inc()
            else:
                dispatcher.counters.n_shed_degraded += 1
            if recorder.enabled:
                recorder.record(
                    "shed", now, now, track="server", category="request",
                    trace_id=req.request_id, kind=req.kind,
                    args={"reason": reason.value},
                )

        def on_arrival(req: PricingRequest) -> None:
            now = req.arrival_s
            run(coalescer.advance(now))
            in_flight.drain(now)
            coalescer.reap(now)
            # Outstanding work now includes requests parked for retry:
            # they are in neither the coalescer nor the in-flight window,
            # but they hold real capacity.
            outstanding = (
                coalescer.n_pending + len(in_flight) + dispatcher.n_outstanding
            )
            if outstanding >= self.queue_depth:
                shed(req, now, ShedReason.BACKPRESSURE)
                return
            # Degradation ladder: while capacity is reduced, shed the
            # low-priority tiers at a fraction of the admission bound —
            # var refreshes go first, quotes keep the full queue.
            if dispatcher.health.capacity_reduced(now):
                frac = DEGRADE_FRACTIONS[req.kind]
                if frac < 1.0 and outstanding >= frac * self.queue_depth:
                    shed(req, now, ShedReason.DEGRADED)
                    return
            run(coalescer.offer(req))

        for req in trace:
            sim.schedule_at(
                req.arrival_s, on_arrival, payload=req, label="arrival"
            )
        sim.run()
        run(coalescer.flush())
        # Tail batches may have scheduled retries past the last arrival.
        sim.run()

        responses = dispatcher.responses
        fails = sorted(dispatcher.fails, key=lambda f: f.time_s)
        sheds = sorted(
            queue_sheds + list(coalescer.sheds), key=lambda s: s.time_s
        )
        if recorder.enabled:
            for rec in coalescer.sheds:
                recorder.record(
                    "shed", rec.time_s, rec.time_s, track="server",
                    category="request", trace_id=rec.request.request_id,
                    kind=rec.request.kind, args={"reason": str(rec.reason)},
                )

        counters = dispatcher.counters
        counters.n_breaker_trips = dispatcher.breakers.n_trips
        counters.n_breaker_probes = dispatcher.breakers.n_probes
        metrics.counter(
            "serving_retries_total", "failed dispatches re-dispatched"
        ).inc(counters.n_retries)
        metrics.counter(
            "serving_hedges_total", "duplicate straggler dispatches"
        ).inc(counters.n_hedges)
        metrics.counter(
            "serving_breaker_trips_total", "circuit-breaker open transitions"
        ).inc(counters.n_breaker_trips)
        metrics.counter(
            "serving_requests_failed_total", "requests failed after retries"
        ).inc(counters.n_failed_requests)
        metrics.counter(
            "serving_requests_shed_degraded_total",
            "arrivals shed by the degradation ladder",
        ).inc(counters.n_shed_degraded)

        result = self._summarise(
            trace, responses, sheds, rig, metrics,
            n_failed=len(fails), fails=fails,
        )
        # Phase boundaries live on the sim clock (t=0), so the report
        # span is the last completion instant, not the arrival-relative
        # span_seconds — otherwise the tail completions fall outside
        # every phase.
        span = max((r.completion_s for r in responses), default=0.0)
        self.last_fault_report = build_fault_report(
            faults,
            dispatcher.health,
            [(r.completion_s, r.latency_s) for r in responses],
            counters,
            span_s=span,
        )
        if monitor is not None:
            monitor.finalize(result, plan=faults, telemetry=self.telemetry)
        return result

    def _summarise(
        self,
        trace: list[PricingRequest],
        responses: list[PricingResponse],
        sheds: list[ShedRecord],
        rig: ClusterTimingRig,
        metrics: MetricsRegistry,
        n_failed: int = 0,
        fails: list = (),
    ) -> ServingResult:
        n_offered = len(trace)
        n_completed = len(responses)
        met = sum(1 for r in responses if r.met_deadline)
        shed_queue = int(
            metrics.counter("serving_requests_shed_queue_total").value
        )
        shed_deadline = sum(
            1 for s in sheds if s.reason is ShedReason.DEADLINE
        )
        if responses:
            span = max(r.completion_s for r in responses) - trace[0].arrival_s
        else:
            span = 0.0
        latency = LatencyStats.from_latencies(
            np.asarray([r.latency_s for r in responses])
        )
        card_loads = tuple(
            CardLoad(
                card_id=card_id,
                dispatches=resource.n_reservations,
                n_rows=int(
                    metrics.counter(
                        "serving_card_rows_total",
                        labels={"card": str(card_id)},
                    ).value
                ),
                n_cells=int(
                    metrics.counter(
                        "serving_card_cells_total",
                        labels={"card": str(card_id)},
                    ).value
                ),
                busy_seconds=resource.busy_seconds,
                utilisation=resource.utilisation(span),
            )
            for card_id, resource in enumerate(rig.cards)
        )
        n_batches = int(metrics.counter("serving_batches_total").value)
        batch_requests = metrics.counter("serving_batch_requests_total").value
        batch_rows = metrics.counter("serving_batch_rows_total").value
        result = ServingResult(
            n_offered=n_offered,
            n_completed=n_completed,
            n_shed_queue=shed_queue,
            n_shed_deadline=shed_deadline,
            n_deadline_met=met,
            n_late=n_completed - met,
            span_seconds=span,
            throughput_rps=n_completed / span if span > 0 else 0.0,
            goodput_rps=met / span if span > 0 else 0.0,
            shed_rate=len(sheds) / n_offered,
            deadline_hit_rate=met / n_completed if n_completed else 0.0,
            latency=latency,
            n_dispatches=n_batches,
            mean_batch_requests=batch_requests / n_batches if n_batches else 0.0,
            mean_batch_rows=batch_rows / n_batches if n_batches else 0.0,
            cards=card_loads,
            responses=tuple(responses),
            sheds=tuple(sheds),
            n_failed=n_failed,
            fails=tuple(fails),
        )
        self._publish(result, metrics, rig)
        return result

    def _publish(
        self,
        result: ServingResult,
        metrics: MetricsRegistry,
        rig: ClusterTimingRig,
    ) -> None:
        """Fold a replay's tallies into the server's telemetry handle.

        Skipped for the shared no-op handle so un-instrumented runs
        leave no global state behind.  Counters add across replays;
        gauges describe the latest one.
        """
        if self.telemetry is NULL_TELEMETRY:
            return
        out = self.telemetry.metrics
        out.absorb(metrics)
        out.counter(
            "serving_requests_offered_total", "requests offered to the server"
        ).inc(result.n_offered)
        out.counter(
            "serving_requests_completed_total", "requests answered"
        ).inc(result.n_completed)
        out.counter(
            "serving_requests_shed_deadline_total", "pending requests expired"
        ).inc(result.n_shed_deadline)
        out.counter(
            "serving_deadline_met_total", "responses inside their deadline"
        ).inc(result.n_deadline_met)
        out.histogram(
            "serving_latency_seconds", "per-request latency (simulated)"
        ).observe_many(r.latency_s for r in result.responses)
        out.gauge(
            "serving_span_seconds", "first arrival to last completion"
        ).set(result.span_seconds)
        out.gauge("serving_throughput_rps", "completions per second").set(
            result.throughput_rps
        )
        out.gauge("serving_goodput_rps", "in-deadline completions per second").set(
            result.goodput_rps
        )
        out.gauge("serving_shed_rate", "shed fraction of offered load").set(
            result.shed_rate
        )
        out.gauge(
            "serving_host_busy_seconds", "simulated host-thread busy time"
        ).set(rig.host.busy_seconds)
        for card_id, resource in enumerate(rig.cards):
            out.gauge(
                "serving_card_busy_seconds",
                "simulated card busy time",
                labels={"card": str(card_id)},
            ).set(resource.busy_seconds)
            out.gauge(
                "serving_card_utilisation",
                "busy fraction of the serving span",
                labels={"card": str(card_id)},
            ).set(resource.utilisation(result.span_seconds))
