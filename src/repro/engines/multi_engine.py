"""Variant 5: scaling up the number of CDS engines (paper Section IV).

"We scaled up the number of CDS engines on the FPGA, being able to fit five
onto the Alveo U280.  There are no dependencies between calculations
involving different options, and as such we decomposed based upon the
options themselves, splitting the entire set up into N chunks ... All
engines require the full interest and hazard rate data, which is read in
upon initialisation of the engine and stored in UltraRAM."

Model: each engine instance runs the vectorised engine's free-running
network over its contiguous option chunk (independent discrete-event
simulations — the chunks share no data); the batch completes when the
slowest chunk finishes, stretched by a shared-interface contention factor
(all engines arbitrate for the same HBM/PCIe shell):

``makespan(n) = max_chunk_makespan * (1 + contention * (n - 1))``

Construction validates the floorplan: requesting more engines than fit
under the device's routable ceiling raises
:class:`~repro.errors.ResourceError` (six of the paper's engines do not fit
— that is why Table II stops at five).
"""

from __future__ import annotations

import numpy as np

from repro.core.curves import HazardCurve, YieldCurve
from repro.core.types import CDSOption
from repro.cpu.engine import chunk_options
from repro.dataflow.engine import SimulationResult
from repro.dataflow.replay import replay
from repro.engines.base import CDSEngineBase, EngineTiming, EngineWorkload
from repro.engines.builder import compile_dataflow_network, engine_resources
from repro.engines.interoption import run_streaming
from repro.engines.stages import StageModels
from repro.engines.xilinx_baseline import _sink_to_array
from repro.errors import ValidationError
from repro.fpga.floorplan import Floorplan
from repro.hls.resources import ResourceUsage

__all__ = ["MultiEngineSystem"]


class MultiEngineSystem(CDSEngineBase):
    """N vectorised engines with option-chunk decomposition (Table II).

    Parameters
    ----------
    scenario:
        Experimental configuration.
    n_engines:
        Engine instances to deploy; validated against the device floorplan
        at construction.
    """

    name = "multi_engine"

    def __init__(self, scenario=None, *, n_engines: int = 1) -> None:
        super().__init__(scenario)
        if n_engines < 1:
            raise ValidationError(f"n_engines must be >= 1, got {n_engines}")
        self._n_engines = n_engines
        # Validates the fit; raises ResourceError when the count is too
        # large for the device (e.g. 6 paper engines on the U280).
        self.floorplan = Floorplan(
            device=self.scenario.device,
            engine_resources=self.resources(),
            n_engines=n_engines,
        )
        self.name = f"multi_engine[{n_engines}]"

    @property
    def n_engines(self) -> int:
        """Deployed engine instances."""
        return self._n_engines

    def _execute(
        self, workload: EngineWorkload
    ) -> tuple[np.ndarray, float, int, list[SimulationResult]]:
        n = workload.n_options
        merged: dict[int, float] = {}
        sims: list[SimulationResult] = []
        for ei, chunk in enumerate(chunk_options(list(range(n)), self._n_engines)):
            sink, res = run_streaming(
                self.scenario,
                workload,
                chunk,
                replication=self.scenario.replication_factor,
                sim_name=f"engine[{ei}]",
            )
            merged.update(sink)
            sims.append(res)
        cycles = self._kernel_cycles([res.makespan_cycles for res in sims])
        spreads = _sink_to_array(merged, n, self.name)
        return spreads, cycles, len(sims), sims

    def _kernel_cycles(self, makespans: list[float]) -> float:
        """Batch cycles: the slowest chunk stretched by shell contention,
        plus one invocation overhead."""
        worst = 0.0
        for makespan in makespans:
            worst = max(worst, makespan)
        contention = 1.0 + self.scenario.multi_engine_contention * (
            len(makespans) - 1
        )
        return worst * contention + self.scenario.invocation_overhead_cycles

    def time(
        self,
        options: list[CDSOption],
        yield_curve: YieldCurve,
        hazard_curve: HazardCurve,
    ) -> EngineTiming:
        """The ``kernel_cycles`` and ``pcie_seconds`` :meth:`run` reports
        for this batch, without pricing it.

        Each engine's chunk network is compiled to value-free programs
        and timed by :func:`~repro.dataflow.replay.replay`, which matches
        the discrete-event run cycle for cycle; no spread is computed, so
        the ``combine`` stage's annuity check does not run.
        """
        sc = self.scenario
        workload = EngineWorkload.build(options, yield_curve, hazard_curve)
        models = StageModels.for_scenario(sc, interleaved=True)
        replays = tuple(
            replay(
                *compile_dataflow_network(
                    workload,
                    chunk,
                    models,
                    stream_depth=sc.stream_depth,
                    replication=sc.replication_factor,
                    uram_ports=sc.effective_uram_ports,
                ),
                name=f"engine[{ei}]",
            )
            for ei, chunk in enumerate(
                chunk_options(list(range(workload.n_options)), self._n_engines)
            )
        )
        return EngineTiming(
            kernel_cycles=self._kernel_cycles(
                [r.makespan_cycles for r in replays]
            ),
            pcie_seconds=sc.pcie_seconds(workload.n_options),
            replays=replays,
        )

    def resources(self) -> ResourceUsage:
        """One engine instance (the base class scales by ``n_engines``)."""
        return engine_resources(
            self.scenario,
            replication=self.scenario.replication_factor,
            interleaved=True,
        )

    def power_watts(self) -> float:
        """Card power for this configuration (Table II column 3)."""
        return self.scenario.fpga_power.watts(self._n_engines)
