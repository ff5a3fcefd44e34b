"""The chaos harness: a resilience matrix over fault scenarios.

One call replays the same seeded serving workload under a matrix of
fault plans — card crash with repair, crash under a straggler, hedged
straggler, correlated multi-card loss, host-link brownout — and rolls
each run up into one resilience row: goodput, tail latency, retries,
hedges, breaker trips, duplicate work and recovery time.

The first row is always the **zero-fault baseline**: it runs the one
serving path with an empty fault plan, so its report must stay
byte-identical to the committed serving goldens — the harness doubles as
a regression pin that fault injection changes nothing when no fault is
injected.

Follows the :mod:`repro.analysis.serving` pattern: one ``generate_*``
call, a deterministic text rendering, a JSON-friendly dict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.serving import (
    ServingReport,
    generate_serving_report,
    serving_report_dict,
)
from repro.errors import ValidationError
from repro.faults import FaultPlan, HedgePolicy
from repro.workloads.scenarios import PaperScenario

__all__ = [
    "DEFAULT_CHAOS_MATRIX",
    "GATEWAY_CELL",
    "GATEWAY_CELL_SPEC",
    "ChaosScenario",
    "ChaosRow",
    "ChaosReport",
    "generate_chaos_report",
    "render_chaos_report",
    "chaos_report_dict",
]

#: Goodput ratio (after-phase over before-phase) a fault scenario with a
#: repair must reach to count as recovered.
RECOVERY_GOODPUT_RATIO = 0.95

#: Name and fault plan of the optional monitored gateway cell: one card
#: crash (with repair) on the first server behind a two-server gateway,
#: scored against per-tenant SLOs.
GATEWAY_CELL = "gateway-crash-1of4"
GATEWAY_CELL_SPEC = "crash:card=1,at=0.1,repair=0.1"


@dataclass(frozen=True)
class ChaosScenario:
    """One cell of the chaos matrix: a named fault plan.

    Attributes
    ----------
    name:
        Row label in the resilience table.
    spec:
        Fault plan in ``--faults`` grammar (empty = zero-fault baseline).
    hedge:
        Whether to enable hedged dispatch of the slowest straggler.
    """

    name: str
    spec: str
    hedge: bool = False


#: The default matrix: the failure modes the robustness layer exists
#: for.  Crash instants sit mid-run for the default half-second replay;
#: the crash-under-straggler cell overlaps a heavy slowdown with the
#: crash so busy windows straddle the failure instant and the retry and
#: breaker paths actually exercise (bare crashes on microsecond batches
#: mostly just steer dispatch away from the dead card).
DEFAULT_CHAOS_MATRIX: tuple[ChaosScenario, ...] = (
    ChaosScenario("baseline", ""),
    ChaosScenario("crash-1of4", "crash:card=1,at=0.1,repair=0.1"),
    ChaosScenario(
        "crash-straggler",
        "slow:card=1,at=0.05,for=0.1,factor=60;crash:card=1,at=0.1,repair=0.1",
    ),
    ChaosScenario("straggler-hedged", "slow:card=2,at=0.1,for=0.2,factor=6", hedge=True),
    ChaosScenario("correlated-2of4", "correlated:cards=1+2,at=0.1,repair=0.15"),
    ChaosScenario("link-brownout", "link:at=0.1,for=0.1,factor=4"),
)


@dataclass(frozen=True)
class ChaosRow:
    """One resilience-table row: a fault scenario's aggregate outcome.

    Attributes
    ----------
    name / spec / hedged:
        The scenario that produced this row.
    n_completed / n_failed / n_shed:
        Request outcomes (offered = completed + shed + failed).
    goodput_rps / p99_ms:
        Whole-run goodput and tail latency.
    n_retries / n_hedges / n_breaker_trips:
        Failure-handling activity.
    duplicate_work_ratio:
        Wasted card-seconds over total card-seconds.
    goodput_before_rps / goodput_during_rps / goodput_after_rps:
        Phase goodputs around the fault envelope (0 for the baseline).
    recovery_ms:
        Time from first fault to sustained pre-fault goodput; ``None``
        when the run never recovers, 0 when goodput never dipped.
    recovered:
        Whether the run rode out the faults: every request accounted
        for, and — when anything actually recovers (faults all repaired
        by end of run) — after-phase goodput within 5% of before-phase.
    """

    name: str
    spec: str
    hedged: bool
    n_completed: int
    n_failed: int
    n_shed: int
    goodput_rps: float
    p99_ms: float
    n_retries: int
    n_hedges: int
    n_breaker_trips: int
    duplicate_work_ratio: float
    goodput_before_rps: float
    goodput_during_rps: float
    goodput_after_rps: float
    recovery_ms: float | None
    recovered: bool


@dataclass(frozen=True)
class ChaosReport:
    """Everything the ``repro-cds chaos`` subcommand prints.

    Attributes
    ----------
    seed / n_requests / rate_hz / n_states / n_cards / max_batch /
    queue_depth:
        The shared workload configuration every scenario replays.
    rows:
        One :class:`ChaosRow` per matrix cell, baseline first.
    baseline:
        The zero-fault :class:`~repro.analysis.serving.ServingReport`
        (the golden-pin row; excluded from equality — its measured
        wall-clock fields differ run to run).
    monitor:
        Per-cell :class:`~repro.monitor.MonitorResult` mapping (cell
        name → result) when the harness ran with monitoring on;
        ``None`` otherwise (the default — reports stay byte-identical).
    """

    seed: int
    n_requests: int
    rate_hz: float
    n_states: int
    n_cards: int
    max_batch: int
    queue_depth: int
    rows: tuple[ChaosRow, ...]
    baseline: ServingReport = field(compare=False, repr=False, default=None)
    monitor: dict | None = field(compare=False, repr=False, default=None)


def _row_from_report(sc: ChaosScenario, report: ServingReport) -> ChaosRow:
    r = report.result
    fr = report.fault_report
    if fr is None:
        return ChaosRow(
            name=sc.name,
            spec="",
            hedged=sc.hedge,
            n_completed=r.n_completed,
            n_failed=0,
            n_shed=r.n_shed,
            goodput_rps=r.goodput_rps,
            p99_ms=r.latency.p99_s * 1e3,
            n_retries=0,
            n_hedges=0,
            n_breaker_trips=0,
            duplicate_work_ratio=0.0,
            goodput_before_rps=0.0,
            goodput_during_rps=0.0,
            goodput_after_rps=0.0,
            recovery_ms=0.0,
            recovered=True,
        )
    phases = {p.name: p for p in fr.phases}
    before = phases.get("before")
    during = phases.get("during")
    after = phases.get("after")
    accounted = r.n_offered == r.n_completed + r.n_shed + r.n_failed
    # "Recovered" asks two things: nothing fell through the accounting,
    # and — when the plan actually ends (an after phase with traffic
    # exists) — post-repair goodput is back within 5% of pre-fault.
    recovered = accounted and fr.recovery_time_s is not None
    if before is not None and after is not None and after.n_completed:
        recovered = recovered and (
            after.goodput_rps >= RECOVERY_GOODPUT_RATIO * before.goodput_rps
        )
    return ChaosRow(
        name=sc.name,
        spec=fr.spec,
        hedged=sc.hedge,
        n_completed=r.n_completed,
        n_failed=r.n_failed,
        n_shed=r.n_shed,
        goodput_rps=r.goodput_rps,
        p99_ms=r.latency.p99_s * 1e3,
        n_retries=fr.counters.n_retries,
        n_hedges=fr.counters.n_hedges,
        n_breaker_trips=fr.counters.n_breaker_trips,
        duplicate_work_ratio=fr.counters.duplicate_work_ratio,
        goodput_before_rps=before.goodput_rps if before is not None else 0.0,
        goodput_during_rps=during.goodput_rps if during is not None else 0.0,
        goodput_after_rps=after.goodput_rps if after is not None else 0.0,
        recovery_ms=(
            fr.recovery_time_s * 1e3 if fr.recovery_time_s is not None else None
        ),
        recovered=recovered,
    )


def _gateway_cell(
    scenario,
    *,
    seed,
    n_requests,
    rate_hz,
    n_cards,
    max_batch,
    queue_depth,
    n_states,
    telemetry,
    monitor_config,
):
    """Run the monitored gateway crash cell and return its MonitorResult.

    The chaos workload replays through a two-server gateway (the matrix
    card budget split across the servers) while :data:`GATEWAY_CELL_SPEC`
    crashes one card on the first server — one card of four under the
    default matrix shape, hence the cell name.
    """
    from repro.analysis.gateway import generate_gateway_report
    from repro.gateway import DEFAULT_TENANTS
    from repro.monitor import Monitor, MonitorConfig, tenant_objectives

    config = monitor_config
    if config is None:
        config = MonitorConfig(
            objectives=tenant_objectives(tuple(p.name for p in DEFAULT_TENANTS))
        )
    cell_monitor = Monitor(config)
    plan = FaultPlan.from_spec(GATEWAY_CELL_SPEC, seed=seed)
    generate_gateway_report(
        scenario,
        n_requests=n_requests,
        rate_hz=rate_hz,
        n_servers=2,
        n_cards=max(1, n_cards // 2),
        max_batch=max_batch,
        queue_depth=queue_depth,
        n_states=n_states,
        seed=seed,
        telemetry=telemetry,
        faults=plan,
        fault_server=0,
        monitor=cell_monitor,
    )
    return cell_monitor.result


def generate_chaos_report(
    scenario: PaperScenario | None = None,
    *,
    seed: int = 7,
    n_requests: int = 2000,
    rate_hz: float = 4000.0,
    n_cards: int = 4,
    max_batch: int = 64,
    queue_depth: int = 512,
    n_states: int = 64,
    matrix: tuple[ChaosScenario, ...] = DEFAULT_CHAOS_MATRIX,
    telemetry=None,
    monitor: bool = False,
    monitor_config=None,
    gateway: bool = False,
) -> ChaosReport:
    """Replay one seeded workload under every fault scenario in the matrix.

    Deterministic in ``seed``: every scenario reuses the same book, tape
    and request stream, and the fault machinery draws its jitter from a
    ``seed``-keyed generator, so the whole resilience table reproduces
    exactly.

    Parameters
    ----------
    scenario:
        Experimental configuration (default: the paper scenario).
    seed / n_requests / rate_hz / n_cards / max_batch / queue_depth /
    n_states:
        The shared serving workload (defaults match the committed
        chaos baseline golden).
    matrix:
        Fault scenarios to run; must contain at least one cell.  A cell
        with an empty spec is the zero-fault baseline; the first such
        cell's report is attached as :attr:`ChaosReport.baseline`.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` handle, forwarded
        to every underlying serving run.
    monitor / monitor_config:
        With ``monitor=True`` every cell replays under a fresh
        :class:`~repro.monitor.Monitor` (policy ``monitor_config``,
        default :class:`~repro.monitor.MonitorConfig`) and the report's
        :attr:`ChaosReport.monitor` maps cell names to their
        :class:`~repro.monitor.MonitorResult` — SLO budgets, burn-rate
        alerts, and detection scoring against each cell's fault plan.
        The resilience rows themselves are identical either way.
    gateway:
        With ``gateway=True`` one extra monitored cell
        (:data:`GATEWAY_CELL`) replays the same seed through a
        two-server :class:`~repro.gateway.Gateway` while a card on the
        first server crashes and repairs, and its
        :class:`~repro.monitor.MonitorResult` — judged against
        per-tenant :func:`~repro.monitor.tenant_objectives` unless
        ``monitor_config`` overrides them — joins
        :attr:`ChaosReport.monitor`.  Implies monitoring for that cell;
        the resilience rows and the baseline stay untouched.
    """
    if not matrix:
        raise ValidationError("chaos matrix must contain at least one scenario")
    rows: list[ChaosRow] = []
    baseline: ServingReport | None = None
    monitor_results: dict | None = {} if monitor else None
    for cell in matrix:
        plan = (
            FaultPlan.from_spec(cell.spec, seed=seed) if cell.spec else None
        )
        hedge = HedgePolicy(enabled=True) if cell.hedge else None
        cell_monitor = None
        if monitor:
            from repro.monitor import Monitor

            cell_monitor = Monitor(monitor_config)
        report = generate_serving_report(
            scenario,
            n_requests=n_requests,
            rate_hz=rate_hz,
            n_cards=n_cards,
            max_batch=max_batch,
            queue_depth=queue_depth,
            n_states=n_states,
            seed=seed,
            telemetry=telemetry,
            faults=plan,
            hedge=hedge,
            monitor=cell_monitor,
        )
        if plan is None and baseline is None:
            baseline = report
        if cell_monitor is not None:
            monitor_results[cell.name] = cell_monitor.result
        rows.append(_row_from_report(cell, report))
    if gateway:
        if monitor_results is None:
            monitor_results = {}
        monitor_results[GATEWAY_CELL] = _gateway_cell(
            scenario,
            seed=seed,
            n_requests=n_requests,
            rate_hz=rate_hz,
            n_cards=n_cards,
            max_batch=max_batch,
            queue_depth=queue_depth,
            n_states=n_states,
            telemetry=telemetry,
            monitor_config=monitor_config,
        )
    return ChaosReport(
        seed=seed,
        n_requests=n_requests,
        rate_hz=rate_hz,
        n_states=n_states,
        n_cards=n_cards,
        max_batch=max_batch,
        queue_depth=queue_depth,
        rows=tuple(rows),
        baseline=baseline,
        monitor=monitor_results,
    )


def render_chaos_report(report: ChaosReport) -> str:
    """Text rendering of the resilience table (byte-deterministic)."""
    lines = [
        f"Chaos matrix — {report.n_requests} requests at "
        f"{report.rate_hz:,.0f} req/s, {report.n_cards} card(s), "
        f"seed {report.seed}",
        f"  {'Scenario':<18} {'Done':>5} {'Fail':>4} {'Shed':>4} "
        f"{'Goodput':>8} {'p99(ms)':>8} {'Retry':>5} {'Hedge':>5} "
        f"{'Trips':>5} {'Dup':>6} {'Recovery':>9} {'OK':>3}",
    ]
    for row in report.rows:
        recovery = (
            f"{row.recovery_ms:.1f}ms" if row.recovery_ms is not None else "never"
        )
        lines.append(
            f"  {row.name:<18} {row.n_completed:>5} {row.n_failed:>4} "
            f"{row.n_shed:>4} {row.goodput_rps:>8,.0f} {row.p99_ms:>8.3f} "
            f"{row.n_retries:>5} {row.n_hedges:>5} {row.n_breaker_trips:>5} "
            f"{row.duplicate_work_ratio:>6.1%} {recovery:>9} "
            f"{'yes' if row.recovered else 'NO':>3}"
        )
    if report.monitor is not None:
        from repro.monitor import render_monitor_result

        lines.append("  Monitoring (per cell):")
        for name, result in report.monitor.items():
            lines.append(f"  - {name}:")
            lines.append(render_monitor_result(result))
    return "\n".join(lines)


def chaos_report_dict(report: ChaosReport) -> dict:
    """JSON-friendly dict of the resilience table.

    The ``baseline`` block is the zero-fault serving report verbatim
    (same schema as ``repro-cds serve --json``), so CI can diff it
    against the committed serving golden.
    """
    out = {
        "seed": report.seed,
        "n_requests": report.n_requests,
        "rate_hz": report.rate_hz,
        "n_states": report.n_states,
        "n_cards": report.n_cards,
        "max_batch": report.max_batch,
        "queue_depth": report.queue_depth,
        "rows": [
            {
                "name": row.name,
                "spec": row.spec,
                "hedged": row.hedged,
                "n_completed": row.n_completed,
                "n_failed": row.n_failed,
                "n_shed": row.n_shed,
                "goodput_rps": row.goodput_rps,
                "p99_ms": row.p99_ms,
                "n_retries": row.n_retries,
                "n_hedges": row.n_hedges,
                "n_breaker_trips": row.n_breaker_trips,
                "duplicate_work_ratio": row.duplicate_work_ratio,
                "goodput_before_rps": row.goodput_before_rps,
                "goodput_during_rps": row.goodput_during_rps,
                "goodput_after_rps": row.goodput_after_rps,
                "recovery_ms": row.recovery_ms,
                "recovered": row.recovered,
            }
            for row in report.rows
        ],
    }
    if report.baseline is not None:
        out["baseline"] = serving_report_dict(report.baseline)
    if report.monitor is not None:
        from repro.monitor import monitor_result_dict

        out["monitor"] = {
            name: monitor_result_dict(result)
            for name, result in report.monitor.items()
        }
    return out
