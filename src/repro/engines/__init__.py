"""The five FPGA CDS engine variants of the paper.

Each engine prices the same option batch against the same rate curves and
returns both *numerical results* (par spreads, verified against the
reference pricer) and *performance results* (simulated cycles, wall-clock
seconds at the kernel clock including PCIe, options/second).

Variants, in the order Table I introduces them:

=====================================  =========================================
:class:`~repro.engines.xilinx_baseline.XilinxBaselineEngine`
                                       The open-source Vitis library engine:
                                       phases sequential, hazard accumulation
                                       at II=7, invoked per option.
:class:`~repro.engines.dataflow_engine.OptimisedDataflowEngine`
                                       Concurrent dataflow stages (Fig. 2),
                                       Listing-1 accumulators, but the region
                                       still restarts per option.
:class:`~repro.engines.interoption.InterOptionDataflowEngine`
                                       Free-running region streaming the whole
                                       option batch.
:class:`~repro.engines.vectorized.VectorizedDataflowEngine`
                                       Hazard/interpolation stages replicated
                                       behind round-robin schedulers (Fig. 3).
:class:`~repro.engines.multi_engine.MultiEngineSystem`
                                       N engines with option-chunk
                                       decomposition (Table II).
=====================================  =========================================
"""

from repro.engines.base import CDSEngineBase, EngineResult, EngineTiming
from repro.engines.xilinx_baseline import XilinxBaselineEngine
from repro.engines.dataflow_engine import OptimisedDataflowEngine
from repro.engines.interoption import InterOptionDataflowEngine
from repro.engines.vectorized import VectorizedDataflowEngine
from repro.engines.multi_engine import MultiEngineSystem

__all__ = [
    "CDSEngineBase",
    "EngineResult",
    "EngineTiming",
    "XilinxBaselineEngine",
    "OptimisedDataflowEngine",
    "InterOptionDataflowEngine",
    "VectorizedDataflowEngine",
    "MultiEngineSystem",
]
