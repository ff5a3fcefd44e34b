"""Span tracing for the benchmark's traced run.

The traced run wraps the public entry points of each layer from the
benchmark's own files — no program code changes.  Every wrapped call
records one span ``[name, start, end, parent, info]`` in memory; the
spans are aggregated into per-layer totals and self times when the run
ends and written out as one JSON file.

A layer's self time is its span's duration minus the part covered by
its child spans.  The kernel is observed through the program's own
kernel profile hook (:class:`repro.telemetry.KernelProfiler`), which
reports each internal chunk's wall time after the fact; the chunk span
is reconstructed as ``[end - wall, end]`` under the span that was open.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from repro.api.cost import DispatchCostModel
from repro.core import vector_pricing
from repro.gateway.cache import QuoteCache
from repro.gateway.engine import Gateway
from repro.gateway.routing import HashRing
from repro.gateway.tenancy import TenantBook
from repro.risk import engine as risk_engine
from repro.risk.engine import ScenarioRiskEngine
from repro.serving.coalescer import MicroBatchCoalescer
from repro.serving.engine import QuoteServer
from repro.sim.engine import Simulation
from repro.telemetry import KernelProfiler
from repro.telemetry.metrics import MetricsRegistry

#: ``(owner, attribute, span name)`` for every wrapped layer boundary.
#: Module-level functions are patched on the module that calls them.
BOUNDARIES = (
    (DispatchCostModel, "calibrate", "api.calibrate"),
    (Simulation, "run", "sim.run"),
    (Simulation, "step", "sim.step"),
    (QuoteServer, "serve", "serving.serve"),
    (MicroBatchCoalescer, "advance", "serving.coalescer.advance"),
    (MicroBatchCoalescer, "reap", "serving.coalescer.reap"),
    (MicroBatchCoalescer, "offer", "serving.coalescer.offer"),
    (MicroBatchCoalescer, "flush", "serving.coalescer.flush"),
    (ScenarioRiskEngine, "quote_rows", "risk.quote_rows"),
    (ScenarioRiskEngine, "revalue", "risk.revalue"),
    (risk_engine, "simulate_grid_run", "risk.sharding.grid_sim"),
    (Gateway, "serve", "gateway.serve"),
    (QuoteCache, "get", "gateway.cache.get"),
    (QuoteCache, "begin", "gateway.cache.begin"),
    (QuoteCache, "fulfil", "gateway.cache.fulfil"),
    (QuoteCache, "invalidate_row", "gateway.cache.invalidate_row"),
    (TenantBook, "admit", "gateway.admit"),
    (HashRing, "route_request", "gateway.route"),
    (MetricsRegistry, "counter", "telemetry.lookup"),
    (MetricsRegistry, "gauge", "telemetry.lookup"),
    (MetricsRegistry, "histogram", "telemetry.lookup"),
)

KERNEL_CHUNK = "core.kernel"
KERNEL_ENTRY = "core.kernel.entry"

NAME, START, END, PARENT, INFO = range(5)


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        """``fn`` with one span recorded around every call."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][END] = clock()

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][END] = time.perf_counter()

    def record(self, name: str, start: float, end: float, info=None) -> None:
        """A finished span under whatever span is open now."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, info])


class _KernelHook(KernelProfiler):
    """The program's kernel profiler, also recording one span per chunk."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer

    def on_call(self) -> None:
        super().on_call()
        now = time.perf_counter()
        self.tracer.record(KERNEL_ENTRY, now, now)

    def on_chunk(self, n_rows: int, n_cells: int, wall_s: float) -> None:
        super().on_chunk(n_rows, n_cells, wall_s)
        end = time.perf_counter()
        self.tracer.record(KERNEL_CHUNK, end - wall_s, end, (n_rows, n_cells))


@contextmanager
def installed(tracer: Tracer):
    """Wrap every boundary in :data:`BOUNDARIES` for the block's duration."""
    saved = []
    try:
        for owner, attr, name in BOUNDARIES:
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(tracer.wrap(name, raw.__func__))
            elif name == "risk.quote_rows":
                new = _quote_rows_wrapper(tracer, raw)
            else:
                new = tracer.wrap(name, raw)
            saved.append((owner, attr, raw))
            setattr(owner, attr, new)
        with _KernelHook(tracer):
            yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def _quote_rows_wrapper(tracer: Tracer, raw):
    """``quote_rows`` span that also remembers which tape rows it priced."""
    traced = tracer.wrap("risk.quote_rows", raw)

    @functools.wraps(raw)
    def wrapper(engine, tensor, indices, **kwargs):
        n = len(tracer.spans)
        out = traced(engine, tensor, indices, **kwargs)
        tracer.spans[n][INFO] = (id(tensor), tuple(int(i) for i in indices))
        return out

    return wrapper


# ----------------------------------------------------------------------
def aggregate(spans: list[list], root: int) -> dict:
    """Per-name call counts, totals and self times under span ``root``.

    Returns ``{name: {"calls", "total_s", "self_s"}}`` plus the kernel's
    ``rows``/``cells`` tallies and the ``quote_rows`` row keys, counting
    only descendants of ``root`` (and ``root`` itself).
    """
    n = len(spans)
    inside = [False] * n
    child_s = [0.0] * n
    for i, s in enumerate(spans):
        inside[i] = i == root or (s[PARENT] >= 0 and inside[s[PARENT]])
    for s in spans:
        if s[PARENT] >= 0:
            child_s[s[PARENT]] += s[END] - s[START]
    out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    kernel_rows = kernel_cells = 0
    row_keys = []
    for i, s in enumerate(spans):
        if not inside[i]:
            continue
        dur = s[END] - s[START]
        agg = out[s[NAME]]
        agg["calls"] += 1
        agg["total_s"] += dur
        agg["self_s"] += dur - child_s[i]
        if s[NAME] == KERNEL_CHUNK:
            kernel_rows += s[INFO][0]
            kernel_cells += s[INFO][1]
        elif s[NAME] == "risk.quote_rows":
            row_keys.append(s[INFO])
    out = dict(out)
    out["_kernel"] = {"rows": kernel_rows, "cells": kernel_cells}
    out["_row_keys"] = row_keys
    return out


def write_spans(spans: list[list], path: Path) -> None:
    """Write spans as ``[name, start_us, end_us, parent]`` rows."""
    t0 = spans[0][START] if spans else 0.0
    names = sorted({s[NAME] for s in spans})
    index = {name: i for i, name in enumerate(names)}
    rows = [
        [
            index[s[NAME]],
            round((s[START] - t0) * 1e6, 3),
            round((s[END] - t0) * 1e6, 3),
            s[PARENT],
        ]
        for s in spans
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"names": names, "fields": ["name", "start_us", "end_us",
                                               "parent"], "spans": rows},
                   separators=(",", ":"))
    )
