"""Sharding the scenario x portfolio grid across cluster cards.

A scenario-revaluation run is "embarrassingly parallel the other way
round" from the PR-1 cluster: instead of one market state and a portfolio
sharded across cards, the *portfolio* is broadcast to every card and the
*scenarios* are sharded.  Each scenario costs one full portfolio batch on
its card (bump-and-reprice re-sends the shocked rate tables and reprices
every contract), so the per-scenario cost is uniform and known — which is
exactly the regime where the PR-1 schedulers, host-link contention model
and batching queue compose cleanly:

* the scenario indices are partitioned by any
  :class:`~repro.cluster.scheduler.ClusterScheduler` (uniform costs make
  all policies near-equivalent, but the interface stays pluggable);
* one representative card batch is timed with the card's own
  :meth:`ClusterNode.time <repro.cluster.node.ClusterNode.time>` — a
  value-free replay of its dataflow networks, cycle-identical to the
  discrete-event run — to get the per-scenario kernel and PCIe seconds;
  identical scenarios never need re-timing;
* each card's scenario chunk is coalesced into host dispatches by a
  :class:`~repro.cluster.batching.BatchQueue`, and PCIe time is stretched
  by the :class:`~repro.cluster.interconnect.HostLinkModel` contention
  factor, exactly as in a portfolio-sharded batch.

Timing replay runs on the unified :mod:`repro.sim` core as one walk for
every fault plan: each card is a :class:`~repro.sim.Resource` and its
scenario queue is reserved in closed-form runs between fault
boundaries.  With no faults that is one busy window per card, pinned
bit-identical to the pre-``repro.sim`` roll-up by the timing-conformance
suite.

Numerical results never depend on the sharding — only the simulated
timing and power roll-up (:class:`ClusterTiming`) do.  Under batched
revaluation the shard boundaries double as kernel chunk boundaries: each
card's scenario indices become one :func:`~repro.core.vector_pricing.
price_packed_many` call (optionally sub-chunked to bound memory), so this
module's timing simulation is unchanged by the batching layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cluster.batching import BatchQueue
from repro.workloads.cluster import Arrival
from repro.cluster.interconnect import HostLinkModel
from repro.cluster.node import ClusterNode
from repro.cluster.scheduler import (
    ClusterScheduler,
    make_scheduler,
    partition_healthy,
    validate_partition,
)
from repro.core.curves import HazardCurve, YieldCurve
from repro.core.types import CDSOption
from repro.errors import ValidationError
from repro.faults.health import ClusterHealth
from repro.faults.plan import FaultPlan
from repro.sim import Resource, Simulation
from repro.workloads.scenarios import PaperScenario

__all__ = [
    "CardShard",
    "ClusterTiming",
    "FaultedClusterTiming",
    "shard_scenarios",
    "simulate_grid_run",
]


@dataclass(frozen=True)
class CardShard:
    """One card's share of the scenario grid.

    Attributes
    ----------
    card_id:
        Which card.
    n_scenarios:
        Scenarios revalued on this card (0 for idle cards).
    dispatches:
        Host dispatches that fed this card (batch-queue chunks).
    seconds:
        Card busy time across all its scenario batches.
    utilisation:
        Busy fraction of the run makespan.
    watts:
        Card power during the run (idle cards draw shell power).
    """

    card_id: int
    n_scenarios: int
    dispatches: int
    seconds: float
    utilisation: float
    watts: float

    @property
    def idle(self) -> bool:
        """Whether this card received no scenarios."""
        return self.n_scenarios == 0


@dataclass(frozen=True)
class ClusterTiming:
    """Simulated timing and power roll-up for one scenario-grid run.

    Attributes
    ----------
    n_scenarios / n_positions:
        Grid shape: every scenario reprices every position.
    n_cards / n_active_cards / policy:
        Cluster shape and the scheduling policy that sharded the grid.
    batch_seconds:
        One scenario's portfolio batch on one card (kernel + contended
        PCIe) — the uniform cost quantum of the grid.
    makespan_seconds:
        End of the last busy window on any card (wasted windows
        included) plus serial host dispatch.
    scenarios_per_second / repricings_per_second:
        Aggregate throughput of the completed scenarios; a "repricing"
        is one contract under one scenario (the grid cell), the unit
        comparable to the paper's options/second.
    total_watts / repricings_per_watt:
        Power roll-up across all cards.
    dispatches:
        Total host dispatches (sum of per-card batch-queue chunks).
    cards:
        Per-card roll-ups, including idle cards.
    """

    n_scenarios: int
    n_positions: int
    n_cards: int
    n_active_cards: int
    policy: str
    batch_seconds: float
    makespan_seconds: float
    scenarios_per_second: float
    repricings_per_second: float
    total_watts: float
    repricings_per_watt: float
    dispatches: int
    cards: tuple[CardShard, ...]

    def summary(self) -> str:
        """One-line aggregate summary."""
        return (
            f"grid[{self.n_scenarios} scenarios x {self.n_positions} positions, "
            f"{self.n_cards} cards, {self.policy}]: "
            f"{self.repricings_per_second:,.0f} repricings/s, "
            f"{self.total_watts:.1f} W, "
            f"{self.repricings_per_watt:,.1f} repricings/W"
        )


@dataclass(frozen=True)
class FaultedClusterTiming(ClusterTiming):
    """A grid roll-up that survived a fault plan.

    A subclass (not extra fields on :class:`ClusterTiming`) because the
    risk report serialises timing via ``dataclasses.asdict`` — the fault
    keys may only exist when faults were actually injected, or zero-fault
    reports would stop matching their goldens.

    Attributes
    ----------
    fault_spec:
        The plan, in ``--faults`` spec grammar.
    n_repartitions:
        Card deaths that triggered a re-shard of the surviving work.
    n_rescheduled:
        Scenario revaluations moved off a dead card onto survivors.
    n_failed_scenarios:
        Scenarios that could not be completed anywhere: no card was
        healthy when a crash stranded them, or their card never came
        back.
    wasted_seconds:
        Card busy time burned on work a crash destroyed.
    """

    fault_spec: str = ""
    n_repartitions: int = 0
    n_rescheduled: int = 0
    n_failed_scenarios: int = 0
    wasted_seconds: float = 0.0


def shard_scenarios(
    n_scenarios: int,
    n_cards: int,
    scheduler: ClusterScheduler | str = "least-loaded",
) -> list[list[int]]:
    """Partition scenario indices across cards with a cluster policy.

    Every scenario reprices the same portfolio, so the cost vector is
    uniform; the policies then differ only in chunk shape (contiguity,
    dispatch counts), not balance.

    Parameters
    ----------
    n_scenarios:
        Scenarios to shard.
    n_cards:
        Cards available.
    scheduler:
        Policy instance or registry name.

    Returns
    -------
    list[list[int]]
        One scenario-index list per card, jointly covering the grid.
    """
    if n_scenarios < 1:
        raise ValidationError(f"n_scenarios must be >= 1, got {n_scenarios}")
    sched = (
        make_scheduler(scheduler) if isinstance(scheduler, str) else scheduler
    )
    assignment = sched.partition([1.0] * n_scenarios, n_cards)
    validate_partition(assignment, n_scenarios)
    for chunk in assignment:
        chunk.sort()
    return assignment


def simulate_grid_run(
    assignment: list[list[int]],
    options: list[CDSOption],
    yield_curve: YieldCurve,
    hazard_curve: HazardCurve,
    *,
    scenario: PaperScenario,
    policy: str,
    n_engines: int = 5,
    link: HostLinkModel | None = None,
    queue: BatchQueue | None = None,
    telemetry=None,
    faults: FaultPlan | None = None,
) -> ClusterTiming:
    """Simulate the cluster timing of a sharded scenario-grid run.

    One representative portfolio batch is simulated on a card's
    discrete-event engine system; every scenario then costs exactly that
    batch (same contracts, same table sizes — only the table *values*
    differ, which the timing model is invariant to).

    Each card is a :class:`~repro.sim.Resource` with the plan's outages
    registered as downtime, and its scenario queue advances in
    closed-form runs: one ``k * batch_seconds`` reservation covers every
    scenario that fits before the card's next fault boundary
    (:meth:`~repro.faults.health.ClusterHealth.nominal_until`).  Only a
    scenario that meets a boundary is stepped alone: straggler windows
    stretch it through
    :meth:`~repro.faults.health.ClusterHealth.service_factor`, and a crash
    landing inside it burns the window up to the crash instant as wasted
    work.  Crashes are taken in time order; the scenarios a crash strands
    are re-partitioned across the cards healthy at the crash instant, and
    fail when no card is (or when their card never comes back).  An
    empty plan has no boundary, so each card makes one ``len(chunk) *
    batch_seconds`` reservation from t=0.

    The makespan is the end of the last busy window, wasted windows
    included, plus the serial host dispatch time.  The roll-up is a
    :class:`ClusterTiming` for an empty plan and a
    :class:`FaultedClusterTiming` otherwise.

    Parameters
    ----------
    assignment:
        Scenario indices per card, from :func:`shard_scenarios`.
    options:
        The portfolio every card reprices per scenario.
    yield_curve / hazard_curve:
        Base rate tables (sizes drive the simulated batch cost).
    scenario:
        Experimental configuration shared by every card.
    policy:
        Scheduling policy name, for the roll-up and for re-partitioning
        the work a crash strands.
    n_engines:
        CDS engines per card (floorplan-validated).
    link:
        Host-path timing model (default :class:`HostLinkModel`).
    queue:
        Host batching queue that chunks each card's scenario stream into
        dispatches (default :class:`BatchQueue`).
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` handle: card busy
        windows are recorded as spans when it records
        (``scenario_shard``, or ``scenario_wasted`` for work a crash
        destroyed), and the grid roll-up is published into its registry
        (``risk_grid_*`` metrics).  The roll-up itself is identical
        either way.
    faults:
        Optional :class:`~repro.faults.FaultPlan`; ``None`` is the empty
        plan.
    """
    if not options:
        raise ValidationError("grid run needs at least one position")
    if not assignment:
        raise ValidationError("grid run needs at least one card")
    link = link if link is not None else HostLinkModel()
    queue = queue if queue is not None else BatchQueue()
    plan = faults if faults is not None else FaultPlan()
    recorder = telemetry.recorder if telemetry is not None else None

    n_scenarios = sum(len(chunk) for chunk in assignment)
    n_cards = len(assignment)
    factor = link.contention_factor(sum(1 for chunk in assignment if chunk))

    # One representative batch on card 0; all scenarios share its cost.
    node = ClusterNode(0, scenario, n_engines=n_engines)
    timing = node.time(options, yield_curve, hazard_curve)
    kernel = scenario.clock.seconds(timing.kernel_cycles)
    batch_seconds = kernel + timing.pcie_seconds * factor

    # Unified-clock replay: one sim Resource per card, outages registered
    # as downtime so reservation starts are pushed past them.
    health = ClusterHealth(plan, n_cards)
    sim = Simulation()
    cards = [
        Resource(f"card{card}", sim=sim, recorder=recorder)
        for card in range(n_cards)
    ]
    health.apply_downtime(cards)

    # Per-card FIFO of [ready_s, scenarios, dispatches] segments; counts
    # are all that matter — scenario cost is uniform.
    queues: list[list[list]] = [[] for _ in range(n_cards)]
    dispatches = [0] * n_cards
    completed = [0] * n_cards
    token = options[0]

    def enqueue(card: int, ready_s: float, count: int) -> None:
        # Scenario revaluation requests coalesce into host dispatches
        # under the standard size-or-linger rule; a segment's requests
        # are all present at once, so only the size cap shapes it.
        n_disp = len(
            queue.coalesce([Arrival(time_s=0.0, options=[token] * count)])
        )
        dispatches[card] += n_disp
        queues[card].append([ready_s, count, n_disp])

    for card, chunk in enumerate(assignment):
        if chunk:
            enqueue(card, 0.0, len(chunk))

    wasted = 0.0

    def run_until(card: int, limit: float) -> int:
        """Walk ``card``'s queue up to ``limit``; returns the stranded count.

        ``limit`` is the card's next crash instant (``inf`` once every
        crash is behind it): work that cannot start before it, or would
        still be running at it, is stranded.
        """
        nonlocal wasted
        res = cards[card]
        segs = queues[card]
        while segs:
            seg = segs[0]
            ready, count, n_disp = seg
            start = res.peek_start(ready)
            if start >= limit:
                break
            bound = health.nominal_until(card, start)
            if bound == math.inf:
                k = count
            else:
                k = min(count, int((bound - start) // batch_seconds))
                while k and start + k * batch_seconds > bound:
                    k -= 1
            if k:
                service = k * batch_seconds
            else:
                # A boundary falls inside the next scenario: step it alone.
                k = 1
                service = batch_seconds * health.service_factor(
                    card, start, batch_seconds
                )
                if start + service > limit:
                    # The crash lands mid-scenario: burn the partial window.
                    res.reserve(
                        ready,
                        limit - start,
                        span_name="scenario_wasted",
                        span_kind="grid",
                        span_args={"scenarios": 0, "dispatches": n_disp},
                    )
                    wasted += limit - start
                    break
            res.reserve(
                ready,
                service,
                span_name="scenario_shard",
                span_kind="grid",
                span_args={"scenarios": k, "dispatches": n_disp},
            )
            completed[card] += k
            # A segment's dispatches are charged to its first window.
            seg[1:] = [count - k, 0]
            if not seg[1]:
                segs.pop(0)
        stranded = sum(seg[1] for seg in segs)
        segs.clear()
        return stranded

    n_repartitions = n_rescheduled = n_failed = 0
    for crash in plan.crashes:
        stranded = run_until(crash.card, crash.at_s)
        if not stranded:
            continue
        healthy = health.healthy_cards(crash.at_s)
        if not healthy:
            n_failed += stranded
            continue
        n_repartitions += 1
        n_rescheduled += stranded
        sub = partition_healthy(
            make_scheduler(policy), [1.0] * stranded, n_cards, healthy
        )
        for card, chunk in enumerate(sub):
            if chunk:
                enqueue(card, crash.at_s, len(chunk))
    for card in range(n_cards):
        # Work still queued on a card that never comes back fails.
        n_failed += run_until(card, math.inf)

    n_dispatches = sum(dispatches)
    makespan = max(res.busy_until for res in cards) + link.dispatch_seconds(
        n_dispatches
    )
    shards = tuple(
        CardShard(
            card_id=card,
            n_scenarios=completed[card],
            dispatches=dispatches[card],
            seconds=res.busy_seconds,
            utilisation=res.utilisation(makespan),
            watts=node.active_watts if res.busy_seconds > 0 else node.idle_watts,
        )
        for card, res in enumerate(cards)
    )
    n_completed = sum(completed)
    repricings = n_completed * len(options)
    watts = sum(s.watts for s in shards)

    def per_second(count: float) -> float:
        return count / makespan if makespan > 0 else 0.0

    rollup = dict(
        n_scenarios=n_scenarios,
        n_positions=len(options),
        n_cards=n_cards,
        n_active_cards=sum(1 for s in shards if s.n_scenarios),
        policy=policy,
        batch_seconds=batch_seconds,
        makespan_seconds=makespan,
        scenarios_per_second=per_second(n_completed),
        repricings_per_second=per_second(repricings),
        total_watts=watts,
        repricings_per_watt=per_second(repricings) / watts,
        dispatches=n_dispatches,
        cards=shards,
    )
    fault_fields = (
        dict(
            fault_spec=plan.spec(),
            n_repartitions=n_repartitions,
            n_rescheduled=n_rescheduled,
            n_failed_scenarios=n_failed,
            wasted_seconds=wasted,
        )
        if plan.events
        else {}
    )
    timing_cls = FaultedClusterTiming if fault_fields else ClusterTiming
    timing = timing_cls(**rollup, **fault_fields)
    if telemetry is not None:
        _publish_grid_metrics(telemetry.metrics, timing)
    return timing


def _publish_grid_metrics(out, timing: ClusterTiming) -> None:
    """Publish a grid roll-up as ``risk_grid_*`` metrics.

    Every run publishes the same counters and gauges; a faulted run adds
    its fault tallies.
    """
    completed = sum(s.n_scenarios for s in timing.cards)
    out.counter(
        "risk_grid_scenarios_total", "scenarios revalued on the grid"
    ).inc(completed)
    out.counter(
        "risk_grid_dispatches_total", "host dispatches feeding the grid"
    ).inc(timing.dispatches)
    out.counter(
        "risk_grid_repricings_total", "grid cells (scenario x position)"
    ).inc(completed * timing.n_positions)
    out.gauge(
        "risk_grid_makespan_seconds", "slowest card plus serial dispatch"
    ).set(timing.makespan_seconds)
    out.gauge(
        "risk_grid_batch_seconds", "one scenario's batch cost quantum"
    ).set(timing.batch_seconds)
    out.gauge(
        "risk_grid_repricings_per_watt", "power efficiency of the run"
    ).set(timing.repricings_per_watt)
    if not isinstance(timing, FaultedClusterTiming):
        return
    out.counter(
        "risk_grid_repartitions_total", "card deaths that re-sharded work"
    ).inc(timing.n_repartitions)
    out.counter(
        "risk_grid_rescheduled_total", "scenarios moved off dead cards"
    ).inc(timing.n_rescheduled)
    out.counter(
        "risk_grid_failed_scenarios_total", "scenarios stranded by faults"
    ).inc(timing.n_failed_scenarios)
    out.gauge(
        "risk_grid_wasted_seconds", "busy time destroyed by crashes"
    ).set(timing.wasted_seconds)
