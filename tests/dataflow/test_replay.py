"""Conformance of the value-free timing replay with the generator DES.

:func:`repro.dataflow.replay.replay` must reproduce
:meth:`Simulator.run <repro.dataflow.engine.Simulator.run>` exactly: the
makespan, every process's finish time and the command count, and the
same deadlock and budget errors.  Comparison is ``==`` throughout — the
replay performs the DES's float operations in the DES's order.

The engine-variant networks are checked against the committed DES
fixture (``golden/des_results.json``, see ``test_des_fixture.py``); the
parameter sweep and the hand-written networks against a fresh DES run.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.cluster.node import ClusterNode
from repro.dataflow.engine import SimulationResult, Simulator
from repro.dataflow.process import Delay, Read, Write
from repro.dataflow.replay import ReplayResult, replay
from repro.engines import MultiEngineSystem
from repro.engines.base import EngineWorkload
from repro.engines.builder import build_dataflow_network, compile_dataflow_network
from repro.engines.stages import StageModels
from repro.errors import DeadlockError, SimulationError, ValidationError
from repro.risk import make_book
from repro.workloads.scenarios import PaperScenario

FIXTURE = Path(__file__).parent / "golden" / "des_results.json"
BOOK_SEED = 7
N_POSITIONS = 100
PRECISIONS = ("double", "single")


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def options() -> list:
    return make_book("heterogeneous", N_POSITIONS, seed=BOOK_SEED).options


def _workload(scenario: PaperScenario, options: list) -> EngineWorkload:
    return EngineWorkload.build(
        options, scenario.yield_curve(), scenario.hazard_curve()
    )


def _compiled(scenario, wl, indices, *, interleaved=True, replication=None,
              stream_depth=None) -> ReplayResult:
    """Replay of the network the engines build (scenario defaults)."""
    if replication is None:
        replication = scenario.replication_factor
    if stream_depth is None:
        stream_depth = scenario.stream_depth
    return replay(
        *compile_dataflow_network(
            wl,
            indices,
            StageModels.for_scenario(scenario, interleaved=interleaved),
            stream_depth=stream_depth,
            replication=replication,
            uram_ports=scenario.effective_uram_ports,
        )
    )


def _simulated(scenario, wl, indices, *, interleaved, replication,
               stream_depth) -> SimulationResult:
    sim = Simulator("oracle")
    build_dataflow_network(
        sim,
        wl,
        indices,
        StageModels.for_scenario(scenario, interleaved=interleaved),
        stream_depth=stream_depth,
        replication=replication,
        uram_ports=scenario.effective_uram_ports,
    )
    return sim.run()


def _assert_same(got: ReplayResult, want) -> None:
    """``want`` is a SimulationResult or a fixture ``_sim_record`` dict."""
    if isinstance(want, SimulationResult):
        want = {
            "makespan_cycles": want.makespan_cycles,
            "commands": want.commands,
            "process_times": want.process_times,
        }
    assert got.makespan_cycles == want["makespan_cycles"]
    assert got.commands == want["commands"]
    # Same processes, same registration order, same finish times.
    assert list(got.process_times.items()) == list(want["process_times"].items())


# ---------------------------------------------------------------------------
# Engine variants and bare networks, against the committed DES fixture.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("precision", PRECISIONS)
class TestFixtureNetworks:
    """Every network an engine variant builds.  (The Xilinx baseline is a
    single sequential process, not a network, so it has no program.)"""

    def test_optimised_per_option_networks(self, golden, options, precision):
        scenario = PaperScenario(n_options=N_POSITIONS, precision=precision)
        wl = _workload(scenario, options)
        sims = golden["engines"][f"optimised_dataflow/{precision}"]["sims"]
        for oi, want in enumerate(sims):
            _assert_same(_compiled(scenario, wl, [oi], replication=1), want)

    def test_interoption_network(self, golden, options, precision):
        scenario = PaperScenario(n_options=N_POSITIONS, precision=precision)
        wl = _workload(scenario, options)
        (want,) = golden["engines"][f"dataflow_interoption/{precision}"]["sims"]
        _assert_same(
            _compiled(scenario, wl, list(range(N_POSITIONS)), replication=1), want
        )

    def test_vectorised_network(self, golden, options, precision):
        scenario = PaperScenario(n_options=N_POSITIONS, precision=precision)
        wl = _workload(scenario, options)
        (want,) = golden["engines"][f"vectorised_dataflow/{precision}"]["sims"]
        _assert_same(_compiled(scenario, wl, list(range(N_POSITIONS))), want)

    def test_multi_engine_time_matches_run(self, golden, options, precision):
        scenario = PaperScenario(n_options=N_POSITIONS, precision=precision)
        want = golden["engines"][f"multi_engine[5]/{precision}"]
        timing = MultiEngineSystem(scenario, n_engines=5).time(
            options, scenario.yield_curve(), scenario.hazard_curve()
        )
        assert timing.kernel_cycles == want["kernel_cycles"]
        assert timing.pcie_seconds == scenario.pcie_seconds(N_POSITIONS)
        assert len(timing.replays) == len(want["sims"])
        for got, sim in zip(timing.replays, want["sims"]):
            _assert_same(got, sim)

    @pytest.mark.parametrize("interleaved", [False, True], ids=["naive", "listing1"])
    @pytest.mark.parametrize("replication", [1, 6])
    def test_bare_networks(self, golden, options, precision, interleaved,
                           replication):
        scenario = PaperScenario(n_options=N_POSITIONS, precision=precision)
        wl = _workload(scenario, options)
        acc = "listing1" if interleaved else "naive"
        want = golden["networks"][f"{acc}/rep{replication}/{precision}"]
        got = _compiled(
            scenario,
            wl,
            list(range(N_POSITIONS)),
            interleaved=interleaved,
            replication=replication,
        )
        _assert_same(got, want)


# ---------------------------------------------------------------------------
# Parameter sweep, against a fresh DES run.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("interleaved", [False, True], ids=["naive", "listing1"])
@pytest.mark.parametrize("replication", [1, 3, 6])
@pytest.mark.parametrize("n_options", [1, 2, 20, 100])
@pytest.mark.parametrize("stream_depth", [2, 4])
def test_replay_matches_des(options, precision, interleaved, replication,
                            n_options, stream_depth):
    scenario = PaperScenario(n_options=N_POSITIONS, precision=precision)
    wl = _workload(scenario, options[:n_options])
    indices = list(range(n_options))
    kw = dict(
        interleaved=interleaved, replication=replication, stream_depth=stream_depth
    )
    _assert_same(
        _compiled(scenario, wl, indices, **kw),
        _simulated(scenario, wl, indices, **kw),
    )


def test_risk_grid_card_batch_is_pinned():
    """The grid walk's representative batch: the ``risk_grid`` book on a
    five-engine card."""
    scenario = PaperScenario(n_options=N_POSITIONS)
    book = make_book("heterogeneous", N_POSITIONS, seed=BOOK_SEED)
    args = (book.options, scenario.yield_curve(), scenario.hazard_curve())
    node = ClusterNode(0, scenario, n_engines=5)
    timing = node.time(*args)
    assert timing.kernel_cycles == 420_078
    assert timing.commands == 151_430
    priced = node.price(*args)
    assert (timing.kernel_cycles, timing.pcie_seconds) == (
        priced.kernel_cycles,
        priced.pcie_seconds,
    )


def test_empty_chunk_is_rejected():
    with pytest.raises(ValidationError, match="cannot time an empty chunk"):
        ClusterNode(0, PaperScenario()).time([], None, None)


# ---------------------------------------------------------------------------
# Hand-written networks: both forms from one command listing.
# ---------------------------------------------------------------------------
def _both(streams: dict[str, int], procs: dict[str, list[tuple]], name="net"):
    """A Simulator and replay programs for the same command listing.

    Commands are ``("R", stream)``, ``("W", stream, latency)`` or
    ``("D", cycles)``.
    """
    sim = Simulator(name)
    handles = {s: sim.stream(s, depth=d) for s, d in streams.items()}

    def kernel(cmds):
        for cmd in cmds:
            if cmd[0] == "R":
                yield Read(handles[cmd[1]])
            elif cmd[0] == "W":
                yield Write(handles[cmd[1]], None, delay=cmd[2])
            else:
                yield Delay(cmd[1])

    index = {s: k for k, s in enumerate(streams)}

    def program(cmds):
        return [
            index[c[1]] if c[0] == "R"
            else (index[c[1]], float(c[2])) if c[0] == "W"
            else float(c[1])
            for c in cmds
        ]

    for p, cmds in procs.items():
        sim.process(p, kernel(cmds))
    return sim, {p: program(cmds) for p, cmds in procs.items()}


def _outcome(run):
    """A run's result, or its error type and message."""
    try:
        res = run()
    except (DeadlockError, SimulationError) as err:
        return type(err), str(err)
    return res.makespan_cycles, res.commands, list(res.process_times.items())


def _agree(streams, procs, max_commands=10_000):
    sim, programs = _both(streams, procs)
    des = _outcome(lambda: sim.run(max_commands=max_commands))
    rep = _outcome(
        lambda: replay(programs, streams, name="net", max_commands=max_commands)
    )
    assert rep == des
    return rep


#: The back-pressure reproduction: depth-1 streams ``s`` and ``u``.
ABC_STREAMS = {"s": 1, "u": 1}
ABC = {
    "A": [("W", "s", 0), ("R", "u"), ("W", "s", 0)],
    "B": [("D", 1000), ("R", "s"), ("R", "s")],
    "C": [("D", 10), ("W", "u", 0)],
}


def _abc(order: str) -> dict:
    return {p: ABC[p] for p in order}


class TestBackPressureOrder:
    """A write is admitted when its FIFO has room *in execution order*,
    never against the time of the pop that freed the slot, so a finish
    time can depend on registration order.  The replay reproduces the
    DES in both orders."""

    @pytest.mark.parametrize("order,a_finish", [("ABC", 10.0), ("CAB", 1000.0)])
    def test_replay_reproduces_both_orders(self, order, a_finish):
        _, _, times = _agree(ABC_STREAMS, _abc(order))
        assert dict(times)["A"] == a_finish

    @pytest.mark.xfail(
        strict=True,
        reason="DES admits a write on FIFO room in execution order, not at "
        "the time of the pop that freed the slot",
    )
    def test_des_finish_time_is_order_independent(self):
        def finish(order):
            sim, _ = _both(ABC_STREAMS, _abc(order))
            return sim.run().process_times["A"]

        assert finish("ABC") == finish("CAB")


class TestErrors:
    def test_reader_without_writer_deadlocks(self):
        err = _agree({"s": 2}, {"r": [("R", "s")]})
        assert err[0] is DeadlockError

    def test_writer_without_reader_deadlocks(self):
        err = _agree({"s": 1}, {"w": [("W", "s", 0), ("W", "s", 0)]})
        assert err[0] is DeadlockError

    def test_cycle_deadlocks(self):
        err = _agree(
            {"a": 2, "b": 2},
            {
                "p1": [("R", "a"), ("W", "b", 0)],
                "p2": [("R", "b"), ("W", "a", 0)],
            },
        )
        assert err == (
            DeadlockError,
            "dataflow network 'net' deadlocked with 2 blocked process(es): "
            "p1 blocked-read on a; p2 blocked-read on b",
        )

    def test_mixed_deadlock_message(self):
        err = _agree(
            {"a": 2, "b": 1},
            {"r": [("R", "a")], "w": [("W", "b", 0), ("W", "b", 0)]},
        )
        assert err == (
            DeadlockError,
            "dataflow network 'net' deadlocked with 2 blocked process(es): "
            "r blocked-read on a; w blocked-write on b",
        )

    def test_budget_boundary(self):
        assert _agree({}, {"p": [("D", 1)] * 100}, max_commands=100)[1] == 100
        err = _agree({}, {"p": [("D", 1)] * 101}, max_commands=100)
        assert err == (
            SimulationError,
            "command budget exceeded in 'net'; likely a non-terminating kernel",
        )

    def test_budget_spans_processes(self):
        err = _agree(
            {}, {"a": [("D", 1)] * 60, "b": [("D", 1)] * 60}, max_commands=100
        )
        assert err[0] is SimulationError

    def test_budget_before_deadlock(self):
        """A network that would deadlock after passing the budget raises
        the budget error, as the DES does."""
        err = _agree(
            {"s": 2}, {"p": [("D", 1)] * 101 + [("R", "s")]}, max_commands=100
        )
        assert err[0] is SimulationError

    def test_two_readers_rejected(self):
        programs = {"w": [(0, 0.0)], "r1": [0], "r2": [0]}
        with pytest.raises(SimulationError, match="'r2' read from 's' owned by 'r1'"):
            replay(programs, {"s": 4})

    def test_unknown_op_rejected(self):
        with pytest.raises(SimulationError, match="unknown op"):
            replay({"p": [1.0, "delay"]}, {})


def test_random_networks_agree():
    """Seeded random layered networks with fan-out and fan-in, random
    depths, delays and latencies, registered in a shuffled order: the
    replay equals the DES (result or error) on every one."""
    rng = random.Random(20240614)
    for _ in range(60):
        layers = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
        names = [[f"p{li}_{k}" for k in range(n)] for li, n in enumerate(layers)]
        tokens = rng.randint(1, 12)
        streams: dict[str, int] = {}
        ins: dict[str, list[str]] = {p: [] for layer in names for p in layer}
        outs: dict[str, list[str]] = {p: [] for layer in names for p in layer}
        for upper, lower in zip(names, names[1:]):
            for dst in lower:
                for src in rng.sample(upper, rng.randint(1, len(upper))):
                    s = f"{src}->{dst}"
                    streams[s] = rng.randint(1, 3)
                    outs[src].append(s)
                    ins[dst].append(s)
        procs = {}
        for p in ins:
            cmds = []
            for _ in range(tokens):
                cmds += [("R", s) for s in ins[p]]
                cmds.append(("D", rng.choice([0, 1, 2.5, 7, 40])))
                cmds += [("W", s, rng.choice([0, 3, 11])) for s in outs[p]]
                cmds.append(("D", rng.choice([0, 1, 5])))
            procs[p] = cmds
        order = list(procs)
        rng.shuffle(order)
        _agree(streams, {p: procs[p] for p in order})
