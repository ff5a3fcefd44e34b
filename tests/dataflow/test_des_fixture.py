"""Pin every simulated number of the dataflow DES against a committed fixture.

The fixture ``golden/des_results.json`` holds, for the 100-position
heterogeneous book (seed 7) under the paper scenario:

* every engine variant's ``spreads_bps``, ``kernel_cycles`` and full
  :class:`~repro.dataflow.engine.SimulationResult` per invocation
  (makespan, command count, per-process finish/busy/stall cycles and
  per-stream :class:`~repro.dataflow.stream.StreamStats`), in double and
  single precision.  ``multi_engine[5]`` in double precision is the risk
  grid's representative card batch (151,430 commands);
* bare networks over both accumulator models and replication 1 and 6;
* the scheduler's tracer record sequence for a small replicated network.

Comparison is exact: a host-side speed-up of the scheduler or the stage
kernels must not move a single cycle.

Regenerate only for a deliberate change of the simulated model::

    PYTHONPATH=src python tests/dataflow/test_des_fixture.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.dataflow.engine import SimulationResult, Simulator
from repro.engines import (
    InterOptionDataflowEngine,
    MultiEngineSystem,
    OptimisedDataflowEngine,
    VectorizedDataflowEngine,
    XilinxBaselineEngine,
)
from repro.engines.base import EngineWorkload
from repro.engines.builder import build_dataflow_network
from repro.engines.stages import StageModels
from repro.risk import make_book
from repro.workloads.scenarios import PaperScenario

FIXTURE = Path(__file__).parent / "golden" / "des_results.json"
BOOK_SEED = 7
N_POSITIONS = 100
PRECISIONS = ("double", "single")
#: Options and replicas of the traced network (kept small: every
#: committed transfer is one record).
TRACED_OPTIONS = 2
TRACED_REPLICATION = 3


class _Tape:
    """Minimal tracer: the scheduler's ``record`` calls, in order."""

    def __init__(self) -> None:
        self.records: list[list] = []

    def record(self, kind: str, time: float, process: str, stream: str) -> None:
        self.records.append([kind, time, process, stream])


def _sim_record(res: SimulationResult) -> dict:
    return {
        "makespan_cycles": res.makespan_cycles,
        "commands": res.commands,
        "process_times": res.process_times,
        "process_busy": res.process_busy,
        "process_stall_read": res.process_stall_read,
        "process_stall_write": res.process_stall_write,
        "stream_stats": {
            name: [
                st.tokens,
                st.max_occupancy,
                st.reader_stall_cycles,
                st.writer_stall_cycles,
            ]
            for name, st in res.stream_stats.items()
        },
    }


def _engines(scenario: PaperScenario) -> list:
    return [
        XilinxBaselineEngine(scenario),
        OptimisedDataflowEngine(scenario),
        InterOptionDataflowEngine(scenario),
        VectorizedDataflowEngine(scenario),
        MultiEngineSystem(scenario, n_engines=5),
    ]


def _options() -> list:
    return make_book("heterogeneous", N_POSITIONS, seed=BOOK_SEED).options


def _workload(scenario: PaperScenario, n: int = N_POSITIONS) -> EngineWorkload:
    return EngineWorkload.build(
        _options()[:n], scenario.yield_curve(), scenario.hazard_curve()
    )


def _network(
    scenario: PaperScenario,
    wl: EngineWorkload,
    *,
    interleaved: bool,
    replication: int,
    tracer=None,
) -> SimulationResult:
    sim = Simulator("fixture")
    sim.tracer = tracer
    build_dataflow_network(
        sim,
        wl,
        list(range(wl.n_options)),
        StageModels.for_scenario(scenario, interleaved=interleaved),
        stream_depth=scenario.stream_depth,
        replication=replication,
        uram_ports=scenario.effective_uram_ports,
    )
    return sim.run()


def engine_cases() -> dict:
    """Every engine variant at both precisions."""
    out = {}
    for precision in PRECISIONS:
        scenario = PaperScenario(n_options=N_POSITIONS, precision=precision)
        for engine in _engines(scenario):
            res = engine.run(_options())
            out[f"{engine.name}/{precision}"] = {
                "spreads_bps": [float(s) for s in res.spreads_bps],
                "kernel_cycles": res.kernel_cycles,
                "invocations": res.invocations,
                "sims": [_sim_record(s) for s in res.sim_results],
            }
    return out


def network_cases() -> dict:
    """Bare networks: naive/Listing-1 accumulators x replication 1/6."""
    out = {}
    for precision in PRECISIONS:
        scenario = PaperScenario(n_options=N_POSITIONS, precision=precision)
        wl = _workload(scenario)
        for interleaved in (False, True):
            for replication in (1, 6):
                acc = "listing1" if interleaved else "naive"
                res = _network(
                    scenario, wl, interleaved=interleaved, replication=replication
                )
                out[f"{acc}/rep{replication}/{precision}"] = _sim_record(res)
    return out


def traced_case() -> list[list]:
    """Tracer records of a small replicated network."""
    scenario = PaperScenario(n_options=N_POSITIONS)
    tape = _Tape()
    _network(
        scenario,
        _workload(scenario, TRACED_OPTIONS),
        interleaved=True,
        replication=TRACED_REPLICATION,
        tracer=tape,
    )
    return tape.records


def capture() -> dict:
    return {
        "engines": engine_cases(),
        "networks": network_cases(),
        "trace": traced_case(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


# JSON round-trips floats exactly (``repr``), so plain ``==`` is bit-exact.
def test_engine_variants_match_fixture(golden):
    fresh = json.loads(json.dumps(engine_cases()))
    assert fresh.keys() == golden["engines"].keys()
    for key, want in golden["engines"].items():
        got = fresh[key]
        assert got["spreads_bps"] == want["spreads_bps"], key
        assert got["kernel_cycles"] == want["kernel_cycles"], key
        assert got["invocations"] == want["invocations"], key
        assert len(got["sims"]) == len(want["sims"]), key
        for i, (g, w) in enumerate(zip(got["sims"], want["sims"])):
            assert g == w, f"{key} invocation {i}"


def test_networks_match_fixture(golden):
    fresh = json.loads(json.dumps(network_cases()))
    assert fresh.keys() == golden["networks"].keys()
    for key, want in golden["networks"].items():
        assert fresh[key] == want, key


def test_trace_records_match_fixture(golden):
    assert json.loads(json.dumps(traced_case())) == golden["trace"]


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    if "--write" not in sys.argv[1:]:
        sys.exit(__doc__)
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(capture(), separators=(",", ":")) + "\n")
    print(f"wrote {FIXTURE} ({FIXTURE.stat().st_size:,} bytes)")
