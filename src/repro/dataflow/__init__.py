"""Cycle-level discrete-event simulator for HLS-style dataflow designs.

This package is the software substitute for the Vitis HLS + Alveo U280
execution substrate of the paper.  It models the execution semantics that the
paper's optimisations manipulate:

* **bounded streams** (:mod:`~repro.dataflow.stream`) — HLS ``hls::stream``
  FIFOs with blocking read/write and back-pressure;
* **processes** (:mod:`~repro.dataflow.process`) — concurrently-running
  dataflow functions, written as Python generators that yield
  :class:`~repro.dataflow.process.Read` / :class:`~repro.dataflow.process.Write`
  / :class:`~repro.dataflow.process.Delay` commands;
* **the scheduler** (:mod:`~repro.dataflow.engine`) — a deterministic
  Kahn-process-network simulator with per-process cycle clocks; token
  timestamps propagate via ``max`` constraints, and a write is admitted on
  FIFO room in execution order, so cycle counts can depend on the order
  processes are registered (token values never do);
* **the timing replay** (:mod:`~repro.dataflow.replay`) — the same
  scheduling rules over precomputed, value-free process programs, which
  times a network cycle-identically without computing its values;
* **pipelined-loop helpers** (:mod:`~repro.dataflow.pipeline`) — initiation
  interval (II) and latency modelling for ``#pragma HLS PIPELINE`` loops;
* **dataflow regions** (:mod:`~repro.dataflow.region`) — ``#pragma HLS
  DATAFLOW`` region start/stop overhead and per-invocation fill/drain;
* **analysis** (:mod:`~repro.dataflow.graph`, :mod:`~repro.dataflow.analytic`,
  :mod:`~repro.dataflow.stats`, :mod:`~repro.dataflow.tracing`) — topology
  export (paper Figs. 1-3), closed-form throughput models cross-validated
  against the simulator, stall statistics and event traces.

The simulator is *cycle-level*, not RTL-accurate: each stage's arithmetic is
computed functionally (ordinary Python/NumPy), while its timing follows the
II/latency/occupancy rules of HLS.  That is exactly the level at which the
paper reasons about its optimisations (II=7 accumulations, fill/drain,
round-robin replication), so the performance *shape* is preserved while
results stay numerically checkable.
"""

from repro.dataflow.stream import Stream, StreamStats
from repro.dataflow.process import Delay, Process, ProcessState, Read, Write
from repro.dataflow.engine import SimulationResult, Simulator
from repro.dataflow.replay import ReplayResult, replay
from repro.dataflow.pipeline import LoopTiming, pipelined_loop_cycles
from repro.dataflow.region import DataflowRegion, RegionTiming
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.analytic import (
    AnalyticStage,
    dataflow_region_cycles,
    replicated_stage_cycles,
    sequential_cycles,
    streaming_cycles,
)

__all__ = [
    "Stream",
    "StreamStats",
    "Process",
    "ProcessState",
    "Read",
    "Write",
    "Delay",
    "Simulator",
    "SimulationResult",
    "ReplayResult",
    "replay",
    "LoopTiming",
    "pipelined_loop_cycles",
    "DataflowRegion",
    "RegionTiming",
    "DataflowGraph",
    "AnalyticStage",
    "sequential_cycles",
    "dataflow_region_cycles",
    "streaming_cycles",
    "replicated_stage_cycles",
]
