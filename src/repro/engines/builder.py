"""Dataflow network construction and resource estimation.

:func:`build_dataflow_network` wires the stage kernels of
:mod:`repro.engines.stages` into a :class:`~repro.dataflow.engine.Simulator`
— the programmatic form of paper Fig. 2 (and, with ``replication > 1``, of
Fig. 3's round-robin clusters).  The same builder serves the per-option
restart engine (one option index) and the free-running engines (all
indices).  :func:`compile_dataflow_network` emits the same network as
value-free programs for :func:`~repro.dataflow.replay.replay`, which
times it without computing a spread.

:func:`engine_resources` estimates the fabric cost of one engine instance.
Per-stage operator sums follow the HLS op table; the per-engine
``_INFRASTRUCTURE`` constant covers what op-level sums cannot see (AXI/HBM
interface adapters, dataflow FIFOs, control FSMs, routing margin) and is
sized so that the vectorised engine reproduces the paper's observed fit of
**five** engines on the U280 — the op-level sum alone is a lower bound that
would misleadingly suggest ten or more.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dataflow.engine import Simulator
from repro.dataflow.stream import Stream
from repro.engines.base import EngineWorkload
from repro.engines.stages import (
    GRID_LATENCY,
    StageModels,
    port_contention_factor,
    replica_points,
)
from repro.errors import ValidationError
from repro.hls.ops import op
from repro.hls.resources import ResourceUsage
from repro.workloads.scenarios import PaperScenario

__all__ = [
    "build_dataflow_network",
    "compile_dataflow_network",
    "engine_resources",
    "NetworkHandles",
]


@dataclass
class NetworkHandles:
    """Handles into a built network the caller needs afterwards."""

    results_sink: dict[int, float]
    result_stream: Stream


def build_dataflow_network(
    sim: Simulator,
    wl: EngineWorkload,
    indices: list[int],
    models: StageModels,
    *,
    stream_depth: int = 4,
    replication: int = 1,
    uram_ports: int = 2,
) -> NetworkHandles:
    """Populate ``sim`` with the full CDS dataflow network.

    Parameters
    ----------
    sim:
        Fresh simulator to build into.
    wl:
        Workload (options, schedules, curves).
    indices:
        Option indices this invocation processes (``[i]`` for per-option
        restart, ``range(n)`` for free-running).
    models:
        Stage timing models.
    stream_depth:
        FIFO depth for per-time-point streams.
    replication:
        Replica count for the hazard and interpolation stages (1 = Fig. 2,
        >1 = Fig. 3).
    uram_ports:
        Read ports of the URAM holding each rate table (shared by
        replicas).
    """
    if replication < 1:
        raise ValidationError(f"replication must be >= 1, got {replication}")
    d = stream_depth
    n_opts = len(indices)

    # Streams ----------------------------------------------------------
    tg_hz = sim.stream("tg->hazard", depth=d)
    tg_in = sim.stream("tg->interp", depth=d)
    tg_par = sim.stream("tg->combine.params", depth=max(2, n_opts), per_option=True)
    hz_dp = sim.stream("hazard->defprob", depth=d)
    dp_tee = sim.stream("defprob->teeS", depth=d)
    in_dc = sim.stream("interp->discount", depth=d)
    dc_tee = sim.stream("discount->teeD", depth=d)
    s_pay = sim.stream("teeS->payment", depth=d)
    s_poff = sim.stream("teeS->payoff", depth=d)
    s_acc = sim.stream("teeS->accrual", depth=d)
    d_pay = sim.stream("teeD->payment", depth=d)
    d_poff = sim.stream("teeD->payoff", depth=d)
    d_acc = sim.stream("teeD->accrual", depth=d)
    leg_pay = sim.stream("payment->accum", depth=d)
    leg_poff = sim.stream("payoff->accum", depth=d)
    leg_acc = sim.stream("accrual->accum", depth=d)
    c_pay = sim.stream("accum.payment->combine", depth=2, per_option=True)
    c_poff = sim.stream("accum.payoff->combine", depth=2, per_option=True)
    c_acc = sim.stream("accum.accrual->combine", depth=2, per_option=True)
    results = sim.stream("combine->drain", depth=max(2, n_opts), per_option=True)

    # Front of the graph.  Every process pre-declares its stream
    # connections so the topology (paper Figs. 2/3) is complete before the
    # network ever runs.
    sim.process(
        "timegrid",
        models.timegrid(wl, indices, tg_hz, tg_in, tg_par),
        writes=(tg_hz, tg_in, tg_par),
    )

    # Hazard / interpolation paths (replicated or not) -------------------
    if replication == 1:
        sim.process(
            "hazard_acc",
            models.hazard_accumulate(wl, indices, tg_hz, hz_dp),
            group="hazard",
            reads=(tg_hz,),
            writes=(hz_dp,),
        )
        sim.process(
            "interp",
            models.interpolate(wl, indices, tg_in, in_dc),
            group="interp",
            reads=(tg_in,),
            writes=(in_dc,),
        )
    else:
        factor = port_contention_factor(replication, uram_ports)
        hz_ins = tuple(
            sim.stream(f"rr->hazard[{k}]", depth=d) for k in range(replication)
        )
        hz_outs = tuple(
            sim.stream(f"hazard[{k}]->rr", depth=d) for k in range(replication)
        )
        sim.process(
            "hazard_rr_sched",
            models.rr_distribute(wl, indices, tg_hz, hz_ins),
            reads=(tg_hz,),
            writes=hz_ins,
        )
        for k in range(replication):
            sim.process(
                f"hazard_acc[{k}]",
                models.hazard_accumulate(
                    wl,
                    indices,
                    hz_ins[k],
                    hz_outs[k],
                    stride=replication,
                    offset=k,
                    port_factor=factor,
                ),
                group="hazard",
                reads=(hz_ins[k],),
                writes=(hz_outs[k],),
            )
        sim.process(
            "hazard_rr_collect",
            models.rr_collect(wl, indices, hz_outs, hz_dp),
            reads=hz_outs,
            writes=(hz_dp,),
        )

        in_ins = tuple(
            sim.stream(f"rr->interp[{k}]", depth=d) for k in range(replication)
        )
        in_outs = tuple(
            sim.stream(f"interp[{k}]->rr", depth=d) for k in range(replication)
        )
        sim.process(
            "interp_rr_sched",
            models.rr_distribute(wl, indices, tg_in, in_ins),
            reads=(tg_in,),
            writes=in_ins,
        )
        for k in range(replication):
            sim.process(
                f"interp[{k}]",
                models.interpolate(
                    wl,
                    indices,
                    in_ins[k],
                    in_outs[k],
                    stride=replication,
                    offset=k,
                    port_factor=factor,
                ),
                group="interp",
                reads=(in_ins[k],),
                writes=(in_outs[k],),
            )
        sim.process(
            "interp_rr_collect",
            models.rr_collect(wl, indices, in_outs, in_dc),
            reads=in_outs,
            writes=(in_dc,),
        )

    # Remainder of the graph ---------------------------------------------
    sim.process(
        "defprob",
        models.default_probability(wl, indices, hz_dp, dp_tee),
        reads=(hz_dp,),
        writes=(dp_tee,),
    )
    sim.process(
        "discount",
        models.discount(wl, indices, in_dc, dc_tee),
        reads=(in_dc,),
        writes=(dc_tee,),
    )
    sim.process(
        "tee_S",
        models.tee(wl, indices, dp_tee, (s_pay, s_poff, s_acc)),
        reads=(dp_tee,),
        writes=(s_pay, s_poff, s_acc),
    )
    sim.process(
        "tee_D",
        models.tee(wl, indices, dc_tee, (d_pay, d_poff, d_acc)),
        reads=(dc_tee,),
        writes=(d_pay, d_poff, d_acc),
    )
    sim.process(
        "payment",
        models.payment(wl, indices, s_pay, d_pay, leg_pay),
        reads=(s_pay, d_pay),
        writes=(leg_pay,),
    )
    sim.process(
        "payoff",
        models.payoff(wl, indices, s_poff, d_poff, leg_poff),
        reads=(s_poff, d_poff),
        writes=(leg_poff,),
    )
    sim.process(
        "accrual",
        models.accrual(wl, indices, s_acc, d_acc, leg_acc),
        reads=(s_acc, d_acc),
        writes=(leg_acc,),
    )
    sim.process(
        "accum_payment",
        models.leg_accumulator(wl, indices, leg_pay, c_pay),
        reads=(leg_pay,),
        writes=(c_pay,),
    )
    sim.process(
        "accum_payoff",
        models.leg_accumulator(wl, indices, leg_poff, c_poff),
        reads=(leg_poff,),
        writes=(c_poff,),
    )
    sim.process(
        "accum_accrual",
        models.leg_accumulator(wl, indices, leg_acc, c_acc),
        reads=(leg_acc,),
        writes=(c_acc,),
    )
    sim.process(
        "combine",
        models.combine(wl, indices, tg_par, c_pay, c_poff, c_acc, results),
        reads=(tg_par, c_pay, c_poff, c_acc),
        writes=(results,),
    )
    sink: dict[int, float] = {}
    sim.process(
        "drain",
        models.result_drain(n_opts, results, sink),
        reads=(results,),
    )
    return NetworkHandles(results_sink=sink, result_stream=results)


def compile_dataflow_network(
    wl: EngineWorkload,
    indices: list[int],
    models: StageModels,
    *,
    stream_depth: int = 4,
    replication: int = 1,
    uram_ports: int = 2,
) -> tuple[dict[str, list], dict[str, int]]:
    """The network :func:`build_dataflow_network` builds, as programs.

    Takes the same arguments (minus the simulator) and returns
    ``(programs, depths)`` for :func:`~repro.dataflow.replay.replay`: one
    op list per process, in the builder's registration order, and every
    stream's depth.  Each program issues the reads, writes and delays its
    stage kernel would, with the same latencies and the per-point cycles
    of the :class:`StageModels` delay model, but carries no values.
    """
    if replication < 1:
        raise ValidationError(f"replication must be >= 1, got {replication}")
    d = stream_depth
    n_opts = len(indices)
    depths: dict[str, int] = {}

    def stream(name: str, depth: int = d) -> int:
        depths[name] = depth
        return len(depths) - 1

    tg_hz = stream("tg->hazard")
    tg_in = stream("tg->interp")
    tg_par = stream("tg->combine.params", max(2, n_opts))
    hz_dp = stream("hazard->defprob")
    dp_tee = stream("defprob->teeS")
    in_dc = stream("interp->discount")
    dc_tee = stream("discount->teeD")
    s_pay = stream("teeS->payment")
    s_poff = stream("teeS->payoff")
    s_acc = stream("teeS->accrual")
    d_pay = stream("teeD->payment")
    d_poff = stream("teeD->payoff")
    d_acc = stream("teeD->accrual")
    leg_pay = stream("payment->accum")
    leg_poff = stream("payoff->accum")
    leg_acc = stream("accrual->accum")
    c_pay = stream("accum.payment->combine", 2)
    c_poff = stream("accum.payoff->combine", 2)
    c_acc = stream("accum.accrual->combine", 2)
    results = stream("combine->drain", max(2, n_opts))

    counts = [len(wl.schedules[oi]) for oi in indices]
    total = sum(counts)
    tick = 1.0  # the kernels' one-cycle step (combine's is two cycles)
    programs: dict[str, list] = {}

    ops: list = []
    point = [(tg_hz, GRID_LATENCY), (tg_in, GRID_LATENCY), tick]
    for n in counts:
        ops.append((tg_par, GRID_LATENCY))
        ops += point * n
    programs["timegrid"] = ops

    def unit(cycles_of, curve, inp, out, latency, stride=1, offset=0, factor=1.0):
        """A hazard or interpolation unit: read, per-point delay, write."""
        shares = list(replica_points(wl, indices, stride, offset))
        mine = np.concatenate(shares) if shares else np.empty(0)
        cycles = cycles_of(curve, mine, factor)
        ops = [inp, 0.0, (out, latency)] * len(cycles)
        ops[1::3] = cycles
        return ops

    def cyclic(ops: list, n: int) -> list:
        """``ops`` dealt round-robin over ``n`` points."""
        return (ops * (n // len(ops) + 1))[:n]

    hc, yc = wl.hazard_curve, wl.yield_curve
    arith = models.interpolator.arithmetic_latency
    if replication == 1:
        programs["hazard_acc"] = unit(
            models.hazard_cycles, hc, tg_hz, hz_dp, models.add_latency
        )
        programs["interp"] = unit(models.interp_cycles, yc, tg_in, in_dc, arith)
    else:
        factor = port_contention_factor(replication, uram_ports)
        for path, replica, src, dst, cycles_of, curve, latency in (
            ("hazard", "hazard_acc", tg_hz, hz_dp, models.hazard_cycles, hc,
             models.add_latency),
            ("interp", "interp", tg_in, in_dc, models.interp_cycles, yc, arith),
        ):
            ins = [stream(f"rr->{path}[{k}]") for k in range(replication)]
            outs = [stream(f"{path}[{k}]->rr") for k in range(replication)]
            ops = [src, None, tick] * total
            ops[1::3] = cyclic([(k, 0.0) for k in ins], total)
            programs[f"{path}_rr_sched"] = ops
            for k in range(replication):
                programs[f"{replica}[{k}]"] = unit(
                    cycles_of, curve, ins[k], outs[k], latency,
                    replication, k, factor,
                )
            ops = [None, (dst, 0.0), tick] * total
            ops[0::3] = cyclic(outs, total)
            programs[f"{path}_rr_collect"] = ops

    programs["defprob"] = [
        hz_dp, (dp_tee, models.exp_latency + models.add_latency), tick
    ] * total
    programs["discount"] = [
        in_dc, (dc_tee, models.mul_latency + models.exp_latency), tick
    ] * total
    programs["tee_S"] = [
        dp_tee, (s_pay, 0.0), (s_poff, 0.0), (s_acc, 0.0), tick
    ] * total
    programs["tee_D"] = [
        dc_tee, (d_pay, 0.0), (d_poff, 0.0), (d_acc, 0.0), tick
    ] * total
    programs["payment"] = [
        s_pay, d_pay, (leg_pay, 2 * models.mul_latency), tick
    ] * total
    programs["payoff"] = [s_poff, d_poff, (leg_poff, models.mul_latency), tick] * total
    programs["accrual"] = [
        s_acc, d_acc, (leg_acc, 2 * models.mul_latency), tick
    ] * total
    ii = models.accumulator.ii
    for leg, inp, out in (
        ("payment", leg_pay, c_pay),
        ("payoff", leg_poff, c_poff),
        ("accrual", leg_acc, c_acc),
    ):
        ops = []
        for n in counts:
            ops += [inp, ii] * n
            ops.append(models.leg_tail_cycles(n))
            ops.append((out, models.add_latency))
        programs[f"accum_{leg}"] = ops
    programs["combine"] = [
        tg_par,
        c_pay,
        c_poff,
        c_acc,
        (results, models.div_latency + models.mul_latency),
        2.0,
    ] * n_opts
    programs["drain"] = [results, tick] * n_opts
    return programs, depths


# ======================================================================
# Resource estimation
# ======================================================================

#: Per-engine infrastructure beyond the op-level stage sums: AXI/HBM
#: interface adapters, DATAFLOW FIFO fabric, control FSMs and the routing
#: margin of a timing-closed build.  Sized so the vectorised engine's total
#: (~179 k LUT) reproduces the paper's observed capacity of five engines on
#: the U280 under its 90% routable ceiling (a sixth exceeds the LUT budget).
_INFRASTRUCTURE = ResourceUsage(lut=80_000, ff=110_000, bram36=32, uram=0, dsp=12)


def _stage_sum(names: list[str]) -> ResourceUsage:
    total = ResourceUsage()
    for n in names:
        spec = op(n)
        total = total + ResourceUsage(lut=spec.lut, ff=spec.ff, dsp=spec.dsp)
    return total


def engine_resources(
    scenario: PaperScenario,
    *,
    replication: int = 1,
    interleaved: bool = True,
) -> ResourceUsage:
    """Estimated fabric resources of one engine instance.

    Composition: replicated hazard accumulators (one partial-sum adder per
    Listing-1 lane when interleaved, one otherwise), replicated
    interpolators, the fixed stage set, per-table URAM copies (one copy
    serves ``effective_uram_ports`` replicas), and the per-engine
    infrastructure constant.  ``scenario.precision`` selects the operator
    family; single-precision operators are markedly cheaper, which is how
    the reduced-precision study fits more engines per card.
    """
    if replication < 1:
        raise ValidationError(f"replication must be >= 1, got {replication}")

    p = "d" if scenario.precision == "double" else "s"
    lanes = op(p + "add").latency
    hazard_unit = _stage_sum([p + "add"] * (lanes if interleaved else 1))
    interp_unit = _stage_sum(
        [p + "div", p + "mul", p + "sub", p + "sub", p + "add", p + "cmp"]
    )
    fixed = (
        _stage_sum([p + "exp", p + "sub"])  # defprob
        + _stage_sum([p + "exp", p + "mul"])  # discount
        + _stage_sum([p + "mul", p + "mul"])  # payment
        + _stage_sum([p + "mul"])  # payoff
        + _stage_sum([p + "mul", p + "mul"])  # accrual
        + _stage_sum([p + "add"] * (3 * lanes))  # interleaved leg accumulators
        + _stage_sum([p + "div", p + "mul", p + "sub"])  # combine
    )
    entry_bytes = 16 if scenario.precision == "double" else 8
    table_bytes = scenario.n_rates * entry_bytes  # (time, value) per entry
    copies = -(-replication // scenario.effective_uram_ports)
    tables = ResourceUsage.for_table_bytes(table_bytes, in_uram=True).scale(2 * copies)

    total = (
        hazard_unit.scale(replication)
        + interp_unit.scale(replication)
        + fixed
        + tables
        + _INFRASTRUCTURE
    )
    return total
