"""Common engine interface and result type."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.core.curves import HazardCurve, YieldCurve
from repro.core.schedule import PaymentSchedule, build_schedule
from repro.core.types import CDSOption
from repro.dataflow.engine import SimulationResult
from repro.dataflow.replay import ReplayResult
from repro.errors import ValidationError
from repro.hls.resources import ResourceUsage
from repro.workloads.scenarios import PaperScenario

__all__ = ["EngineResult", "EngineTiming", "CDSEngineBase", "EngineWorkload"]


@dataclass(frozen=True)
class EngineWorkload:
    """One priced batch: options with precomputed schedules plus curves.

    The dataflow kernels receive this object so every stage shares the same
    precomputed schedules — mirroring the FPGA engines, where each stage "is
    aware of the overall number of options" (paper Section III).
    """

    options: list[CDSOption]
    schedules: list[PaymentSchedule]
    yield_curve: YieldCurve
    hazard_curve: HazardCurve

    @classmethod
    def build(
        cls,
        options: list[CDSOption],
        yield_curve: YieldCurve,
        hazard_curve: HazardCurve,
    ) -> "EngineWorkload":
        """Precompute schedules for ``options``."""
        if not options:
            raise ValidationError("workload needs at least one option")
        return cls(
            options=options,
            schedules=[build_schedule(o) for o in options],
            yield_curve=yield_curve,
            hazard_curve=hazard_curve,
        )

    @property
    def n_options(self) -> int:
        """Batch size."""
        return len(self.options)

    @property
    def total_time_points(self) -> int:
        """Sum of schedule lengths over the batch."""
        return sum(len(s) for s in self.schedules)


@dataclass(frozen=True)
class EngineResult:
    """Numerical and performance outcome of one engine run.

    Attributes
    ----------
    engine:
        Engine variant name.
    spreads_bps:
        Par spreads in input order (verified against the reference pricer
        by the integration tests).
    kernel_cycles:
        Simulated cycles on the FPGA fabric (compute + invocation
        overheads; excludes PCIe).
    pcie_seconds:
        Host transfer time added on top (paper results include it).
    seconds:
        End-to-end seconds: kernel cycles at the kernel clock + PCIe.
    options_per_second:
        The paper's headline metric.
    invocations:
        Kernel invocations performed (per-option engines: one per option).
    n_engines:
        Engine instances used (1 except for the multi-engine system).
    resources:
        Estimated fabric resources of the deployed configuration.
    sim_results:
        Raw discrete-event results (one per invocation or engine), for
        stall/utilisation analysis.  Excluded from equality comparisons.
    """

    engine: str
    spreads_bps: np.ndarray
    kernel_cycles: float
    pcie_seconds: float
    seconds: float
    options_per_second: float
    invocations: int
    n_engines: int
    resources: ResourceUsage
    sim_results: list[SimulationResult] = field(default_factory=list, compare=False)

    def summary(self) -> str:
        """One-line result summary."""
        return (
            f"{self.engine}: {self.options_per_second:,.0f} options/s "
            f"({len(self.spreads_bps)} options, {self.kernel_cycles:,.0f} cycles, "
            f"{self.n_engines} engine(s), {self.invocations} invocation(s))"
        )


@dataclass(frozen=True)
class EngineTiming:
    """Cycle and PCIe accounting of one batch, without its spreads.

    Attributes
    ----------
    kernel_cycles / pcie_seconds:
        As in :class:`EngineResult` for the same batch.
    replays:
        Raw timing replay per engine chunk.  Excluded from equality
        comparisons.
    """

    kernel_cycles: float
    pcie_seconds: float
    replays: tuple[ReplayResult, ...] = field(compare=False)

    @property
    def commands(self) -> int:
        """Dataflow commands replayed: the DES's count for the batch."""
        return sum(r.commands for r in self.replays)


class CDSEngineBase(abc.ABC):
    """Shared machinery for all engine variants.

    Subclasses implement :meth:`_execute` returning
    ``(spreads, kernel_cycles, invocations, sim_results)``; the base class
    handles workload assembly, PCIe accounting and rate computation.

    Parameters
    ----------
    scenario:
        Experimental configuration and calibration constants.
    """

    #: Variant name; subclasses override.
    name = "abstract"

    def __init__(self, scenario: PaperScenario | None = None) -> None:
        self.scenario = scenario if scenario is not None else PaperScenario()

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _execute(
        self, workload: EngineWorkload
    ) -> tuple[np.ndarray, float, int, list[SimulationResult]]:
        """Run the engine over ``workload``.

        Returns
        -------
        (spreads_bps, kernel_cycles, invocations, sim_results)
        """

    @abc.abstractmethod
    def resources(self) -> ResourceUsage:
        """Estimated fabric resources of one deployed instance."""

    @property
    def n_engines(self) -> int:
        """Engine instances (overridden by the multi-engine system)."""
        return 1

    # ------------------------------------------------------------------
    def run(
        self,
        options: list[CDSOption] | None = None,
        yield_curve: YieldCurve | None = None,
        hazard_curve: HazardCurve | None = None,
    ) -> EngineResult:
        """Price a batch and report throughput.

        All arguments default to the scenario's workload, so
        ``engine.run()`` reproduces the paper configuration.
        """
        sc = self.scenario
        options = options if options is not None else sc.options()
        yc = yield_curve if yield_curve is not None else sc.yield_curve()
        hc = hazard_curve if hazard_curve is not None else sc.hazard_curve()
        workload = EngineWorkload.build(options, yc, hc)

        spreads, cycles, invocations, sims = self._execute(workload)
        if spreads.shape != (workload.n_options,):
            raise ValidationError(
                f"{self.name}: expected {workload.n_options} spreads, "
                f"got shape {spreads.shape}"
            )
        pcie = sc.pcie_seconds(workload.n_options)
        seconds = sc.clock.seconds(cycles) + pcie
        return EngineResult(
            engine=self.name,
            spreads_bps=spreads,
            kernel_cycles=cycles,
            pcie_seconds=pcie,
            seconds=seconds,
            options_per_second=workload.n_options / seconds,
            invocations=invocations,
            n_engines=self.n_engines,
            resources=self.resources().scale(self.n_engines),
            sim_results=sims,
        )
