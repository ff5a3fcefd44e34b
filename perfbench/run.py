"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_quotes --seed 7 --seconds 36 --trace 0

A run replays the workload's ``TRACES`` independent traces, each made
from its own seed derived from ``--seed``, in *rounds* for ``--seconds``
(a round that would overrun is not started; at least :data:`MIN_ROUNDS`).  Each iteration
makes one trace's inputs and builds a fresh system around them (the
set-up, timed as ``setup_s``), collects garbage, then times one call of
the workload (``serve``, or ``revalue`` plus tail measures).  Fresh
objects per iteration mean no cache carries answers from one iteration
to the next.  Every set-up and timed call is bracketed by the fixed
reference mix of :mod:`reference`, and reported host times are rescaled
to its nominal speed.  After every iteration the outputs are checked:
conservation, causality, a seeded sample of values bit-for-bit against
the program's unbatched reference path, and simulated outputs identical
to the trace's first replay.

``--trace 0`` prints the end-to-end metrics: host throughput from the
median round, the median set-up, peak memory, and the simulated outputs
pooled over the traces.  ``--trace 1`` spends the first half of the run
untraced and the second half traced (every layer boundary in
:mod:`tracing` wrapped), prints the per-layer metrics (medians over the
traced iterations) and the tracing overhead, and writes the last traced
iteration's spans to ``perfbench/out/``.  The line before the result
holds the run's detail: raw samples, fail rate and problems found.  The
last line of standard output is always the result object; a failed
check exits 1, a missing program exits 2.
"""

from __future__ import annotations

import os

# One process, one thread: pin every BLAS/OpenMP pool before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from reference import NOMINAL_S, reference_seconds  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MIN_ROUNDS = 3
MIN_TRACED = 2
TENANTS = ("gold", "silver", "bronze")


def _iterate(cls, seed: int, tracer=None):
    """One set-up plus one timed call, each bracketed by the reference.

    Returns ``(case, sample)`` with the raw set-up and timed seconds and
    the reference time measured around each of them.
    """
    gc.collect()
    ref0 = reference_seconds()
    t0 = time.perf_counter()
    if tracer is None:
        case = cls(seed)
    else:
        with tracer.span("bench.setup"):
            case = cls(seed, trace=tracer)
    setup_s = time.perf_counter() - t0
    ref1 = reference_seconds()
    gc.collect()
    t1 = time.perf_counter()
    if tracer is None:
        case.run()
    else:
        with tracer.span("bench.timed"):
            case.run()
    timed_s = time.perf_counter() - t1
    ref2 = reference_seconds()
    return case, {
        "setup_s": setup_s,
        "timed_s": timed_s,
        "setup_ref_s": (ref0 + ref1) / 2,
        "timed_ref_s": (ref1 + ref2) / 2,
    }


def normalised(sample: dict, phase: str) -> float:
    """A sample's ``setup`` or ``timed`` seconds at the reference's
    nominal speed."""
    return sample[f"{phase}_s"] * NOMINAL_S / sample[f"{phase}_ref_s"]


class Checker:
    """Runs every iteration's checks and keeps the tallies."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.first: dict[int, dict] = {}
        self.problems: list[str] = []
        self.attempted = 0

    def __call__(self, trace: int, case) -> dict:
        """Check one iteration of trace ``trace``; return its outputs."""
        outputs = case.sim_outputs()
        self.attempted += case.n_ops
        found = case.check(self.rng)
        if self.first.setdefault(trace, outputs) != outputs:
            found.append(f"determinism: trace {trace} gave other simulated "
                         "outputs than its first replay")
        self.problems.extend(found)
        return outputs


def end_to_end(pooled: dict, rounds: list[float], ops_per_round: int,
               samples: list[dict]) -> dict:
    """The end-to-end metrics of an untraced run."""
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        ("host_ops_per_s", "ops/s"): ops_per_round / statistics.median(rounds),
        ("setup_s", "s"): statistics.median(normalised(s, "setup") for s in samples),
        ("peak_rss_mb", "MiB"): rss_mib,
        ("sim_goodput_rps", "req/s"): pooled["sim_goodput_rps"],
        ("sim_p50_ms", "ms_sim"): pooled["sim_p50_ms"],
        ("sim_p999_ms", "ms_sim"): pooled["sim_p999_ms"],
        ("sim_repricings_per_s", "repricings/s"): pooled["sim_repricings_per_s"],
        ("served_frac", "fraction"): 1.0 - pooled["fail_rate"],
    }
    return {name: {"value": v, "unit": unit} for (name, unit), v in values.items()}


def per_layer(case, tracer, traced_s: float) -> dict:
    """Per-layer metrics of one traced iteration."""
    from tracing import aggregate

    spans = tracer.spans
    roots = {s[0]: i for i, s in enumerate(spans) if s[3] < 0}
    setup = aggregate(spans, roots["bench.setup"])
    timed = aggregate(spans, roots["bench.timed"])
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def get(agg, name, field):
        return agg.get(name, zero)[field]

    def self_s(agg, prefix):
        return sum(
            v["self_s"] for k, v in agg.items()
            if k == prefix or k.startswith(prefix + ".")
        )

    ops = case.n_ops
    counts = case.layer_counts()
    outputs = case.sim_outputs()
    lost = outputs["shed"] + outputs["failed"]
    dispatches = counts["dispatches"]
    kernel = timed["_kernel"]
    kernel_s = get(timed, "core.kernel", "total_s")
    row_keys = timed["_row_keys"]
    rows_priced = sum(len(rows) for _, rows in row_keys)
    distinct = len({(t, r) for t, rows in row_keys for r in rows})
    lookups = get(timed, "gateway.cache.get", "calls")
    m = {
        ("workloads.gen_s", "s"): get(setup, "workloads.gen", "total_s"),
        ("api.calibrate_s", "s"): get(setup, "api.calibrate", "total_s"),
        ("api.calibrate_calls", "count"): get(setup, "api.calibrate", "calls"),
        ("setup.construct_self_s", "s"): get(setup, "bench.setup", "self_s"),
        ("sim.events", "count"): get(timed, "sim.step", "calls"),
        ("sim.run_s", "s"): get(timed, "sim.run", "total_s"),
        ("sim.self_s", "s"): self_s(timed, "sim"),
        ("serving.serve_self_s", "s"): get(timed, "serving.serve", "self_s"),
        ("gateway.serve_self_s", "s"): get(timed, "gateway.serve", "self_s"),
        ("serving.coalescer.reap_per_request", "count"):
            get(timed, "serving.coalescer.reap", "calls") / ops,
        ("serving.coalescer.advance_per_request", "count"):
            get(timed, "serving.coalescer.advance", "calls") / ops,
        ("serving.coalescer.self_s", "s"): self_s(timed, "serving.coalescer"),
        ("serving.dispatches", "count"): dispatches,
        ("serving.batch_requests_mean", "count"):
            counts["batch_requests"] / dispatches if dispatches else 0.0,
        ("serving.batch_rows_mean", "count"):
            counts["batch_rows"] / dispatches if dispatches else 0.0,
        ("risk.quote_rows_calls", "count"):
            get(timed, "risk.quote_rows", "calls"),
        ("risk.quote_rows_s", "s"): get(timed, "risk.quote_rows", "total_s"),
        ("risk.quote_rows_self_s", "s"): get(timed, "risk.quote_rows", "self_s"),
        ("risk.rows_priced", "count"): rows_priced,
        ("risk.rows_per_distinct_state", "ratio"):
            rows_priced / distinct if distinct else 0.0,
        ("core.kernel.calls", "count"): get(timed, "core.kernel.entry", "calls"),
        ("core.kernel.chunks", "count"): get(timed, "core.kernel", "calls"),
        ("core.kernel.rows", "count"): kernel["rows"],
        ("core.kernel.cells", "count"): kernel["cells"],
        ("core.kernel.s", "s"): kernel_s,
        ("core.kernel.cells_per_s", "cells/s"):
            kernel["cells"] / kernel_s if kernel_s else 0.0,
        # Computed, not measured: the discount and survival layouts of
        # shape (cells, max_len) in float64 that every chunk materialises.
        ("core.kernel.bytes_computed", "B"):
            2 * 8 * kernel["cells"] * counts["max_len"],
        ("core.kernel.useful_cell_ratio", "ratio"):
            counts["needed_cells"] / kernel["cells"] if kernel["cells"] else 0.0,
        ("risk.revalue_self_s", "s"): get(timed, "risk.revalue", "self_s"),
        ("risk.sharding.grid_sim_s", "s"):
            get(timed, "risk.sharding.grid_sim", "total_s"),
        ("risk.measures_s", "s"): get(timed, "risk.measures", "total_s"),
        ("gateway.cache.hit_rate", "ratio"): counts.get("cache_hits", 0) / lookups
            if lookups else 0.0,
        ("gateway.cache.join_rate", "ratio"): counts.get("cache_joins", 0) / lookups
            if lookups else 0.0,
        ("gateway.cache.invalidations", "count"):
            counts.get("cache_invalidations", 0),
        ("gateway.cache_s", "s"): sum(
            v["total_s"] for k, v in timed.items()
            if k.startswith("gateway.cache.")
        ),
        ("gateway.admit_s", "s"): get(timed, "gateway.admit", "total_s"),
        ("gateway.route_s", "s"): get(timed, "gateway.route", "total_s"),
        ("telemetry.metric_lookups_per_request", "count"):
            get(timed, "telemetry.lookup", "calls") / ops,
        ("telemetry.s", "s"): get(timed, "telemetry.lookup", "total_s"),
        ("fail_rate", "fraction"): lost / ops,
        ("trace.traced_s", "s"): traced_s,
        ("trace.spans", "count"): len(spans),
    }
    tenants = counts.get("tenants", {})
    for t in TENANTS:
        stats = tenants.get(t, {})
        m[(f"gateway.tenant.{t}.goodput_rps", "req/s")] = stats.get("goodput_rps", 0.0)
        m[(f"gateway.tenant.{t}.p99_ms", "ms_sim")] = stats.get("p99_ms", 0.0)
        m[(f"gateway.tenant.{t}.shed", "count")] = stats.get("shed", 0)
    return {name: {"value": v, "unit": unit} for (name, unit), v in m.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SRC})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS, pooled_outputs

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    # A run replays TRACES independent traces, each from its own seed
    # derived from --seed, and pools their simulated outputs.
    seeds = [args.seed * cls.TRACES + j for j in range(cls.TRACES)]
    check = Checker(args.seed)
    start = time.perf_counter()
    untraced_until = start + (args.seconds / 2 if args.trace else args.seconds)
    min_rounds = MIN_TRACED if args.trace else MIN_ROUNDS
    samples: list[dict] = []
    rounds: list[float] = []
    parts: dict[int, dict] = {}
    while True:
        round_start = time.perf_counter()
        round_s = 0.0
        ops_per_round = 0
        for j, seed in enumerate(seeds):
            case, sample = _iterate(cls, seed)
            sample["trace"] = j
            samples.append(sample)
            round_s += normalised(sample, "timed")
            ops_per_round += case.n_ops
            parts[j] = check(j, case)
            del case
        rounds.append(round_s)
        # Stop when another round would overrun the measuring time.
        now = time.perf_counter()
        if len(rounds) >= min_rounds and 2 * now - round_start > untraced_until:
            break
    pooled = pooled_outputs([parts[j] for j in range(cls.TRACES)])

    if args.trace:
        from tracing import Tracer, installed, write_spans

        traced = []
        overheads = []
        while (time.perf_counter() < start + args.seconds
               or len(traced) < MIN_TRACED):
            j = len(traced) % cls.TRACES
            tracer = Tracer()
            with installed(tracer):
                case, sample = _iterate(cls, seeds[j], tracer)
            traced_s = normalised(sample, "timed")
            traced.append(per_layer(case, tracer, traced_s))
            overheads.append(traced_s - statistics.median(
                normalised(s, "timed") for s in samples if s["trace"] == j
            ))
            check(j, case)
            del case
        write_spans(tracer.spans, OUT / f"spans-{args.workload}-seed{args.seed}.json")
        metrics = {
            name: {"value": statistics.median(t[name]["value"] for t in traced),
                   "unit": entry["unit"]}
            for name, entry in traced[0].items()
        }
        metrics["trace.overhead_s"] = {
            "value": statistics.median(overheads), "unit": "s"
        }
    else:
        metrics = end_to_end(pooled, rounds, ops_per_round, samples)

    failed = len(check.problems)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace_seeds": seeds,
        "rounds": len(rounds),
        "round_s": rounds,
        "samples": samples,
        "setup_cold_s": samples[0]["setup_s"],
        "ops_attempted": check.attempted,
        "ops_failed": failed,
        # Shed and failed requests of the simulated replay plus wrong values.
        "fail_rate": pooled["fail_rate"] + failed / check.attempted,
        "latency_samples": pooled["latency_samples"],
        "problems": check.problems[:20],
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": check.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
