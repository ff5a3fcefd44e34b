"""Value-free timing replay of a dataflow network.

In a Kahn process network every process issues the same sequence of
reads, writes and delays whatever the timing, and in the CDS network
every ``Delay`` depends only on token *shapes* (accumulation lengths,
table positions, option counts), never on rate values.  So the cycle
counts of a run can be computed from a precomputed *program* per process,
without carrying a single value: :func:`replay` runs such programs under
exactly the scheduling rules of :meth:`Simulator.run
<repro.dataflow.engine.Simulator.run>` and ``Simulator._step``:

* the same ready queue, in registration order, with woken processes
  appended in the order the running process wakes them;
* the same admission test for a write, ``len(fifo) >= depth`` at the
  moment the write executes (see :mod:`repro.dataflow.engine` on why that
  makes results depend on scheduling order);
* the same float operations in the same order, each ``max`` of two
  timestamps keeping its first operand on ties.

It therefore returns the makespan, the finish time of every process and
the command count the generator DES reports for the same network, bit
for bit.  The DES stays the value-carrying engine and the oracle
(``tests/dataflow/test_replay.py`` pins the two together).

Program encoding
----------------
A program is a list of ops; streams are referred to by their position in
the ``depths`` mapping:

* a ``float`` ``c`` is ``Delay(c)``;
* an ``int`` ``k`` is ``Read(stream k)``;
* a tuple ``(k, latency)`` is ``Write(stream k, delay=latency)``.

Delays must be floats (``1.0``, not ``1``): an ``int`` is a read.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import length_hint

from repro.dataflow.engine import DEFAULT_MAX_COMMANDS
from repro.errors import DeadlockError, SimulationError

__all__ = ["ReplayResult", "replay"]


@dataclass(frozen=True)
class ReplayResult:
    """Timing outcome of one :func:`replay`.

    Attributes
    ----------
    makespan_cycles:
        Completion time of the slowest process (cycles).
    commands:
        Ops executed: the DES's command count for the same network.
    process_times:
        Finish time per process name.
    """

    makespan_cycles: float
    commands: int
    process_times: dict[str, float]


def _bind(owners: list[int], k: int, p: int, names, streams, verb: str) -> None:
    """Make ``p`` the single reader (or writer) of stream ``k``."""
    if owners[k] != -1 and owners[k] != p:
        raise SimulationError(
            f"{names[p]!r} {verb} {streams[k]!r} owned by {names[owners[k]]!r}"
        )
    owners[k] = p


def replay(
    programs: dict[str, list],
    depths: dict[str, int],
    *,
    name: str = "replay",
    max_commands: int = DEFAULT_MAX_COMMANDS,
) -> ReplayResult:
    """Run value-free process programs to completion.

    Parameters
    ----------
    programs:
        Process name -> op list, in registration order (the DES's ready
        queue order).
    depths:
        Stream name -> FIFO depth; ops name a stream by its position here.
    name:
        Network name for diagnostics.
    max_commands:
        Command budget, as for :meth:`Simulator.run
        <repro.dataflow.engine.Simulator.run>`.

    Raises
    ------
    DeadlockError
        When processes stay blocked with none runnable, with the DES's
        diagnostic.
    SimulationError
        When more than ``max_commands`` ops execute, when two processes
        read (or write) the same stream, or when an op is not one of the
        three kinds.
    """
    names = list(programs)
    progs = list(programs.values())
    streams = list(depths)
    depth = list(depths.values())
    n_streams = len(streams)

    # SPSC binding, checked up front: a program's streams are fixed.
    reader = [-1] * n_streams
    writer = [-1] * n_streams
    for p, ops in enumerate(progs):
        for op in set(ops):
            kind = type(op)
            if kind is int:
                _bind(reader, op, p, names, streams, "read from")
            elif kind is tuple:
                _bind(writer, op[0], p, names, streams, "wrote to")
            elif kind is not float:
                raise SimulationError(
                    f"program {names[p]!r} has unknown op {op!r}"
                )

    fifos = [deque() for _ in range(n_streams)]
    # Whether stream k's reader (writer) is blocked reading (writing) k.
    read_waiting = [False] * n_streams
    write_waiting = [False] * n_streams

    n = len(progs)
    iters = [iter(ops) for ops in progs]
    times = [0.0] * n
    pending: list = [None] * n  # the op a process is blocked on
    issued = [0.0] * n  # first-attempt time of a blocked write
    ready = deque(range(n))

    while ready:
        p = ready.popleft()
        now = times[p]
        op = pending[p]
        if op is not None:
            # Retry the op this process blocked on; its wake-up
            # guarantees it succeeds (only p pops / pushes its side).
            pending[p] = None
            if type(op) is int:
                rt = fifos[op].popleft()
                if rt > now:
                    now = rt
                if write_waiting[op]:
                    write_waiting[op] = False
                    w = writer[op]
                    if now > times[w]:
                        times[w] = now
                    ready.append(w)
            else:
                k, latency = op
                # The value was computed at issue time; readiness is issue
                # + latency or the moment the slot freed, whichever later.
                rt = issued[p] + latency
                if now > rt:
                    rt = now
                fifos[k].append(rt)
                if read_waiting[k]:
                    read_waiting[k] = False
                    ready.append(reader[k])
        it = iters[p]
        for op in it:
            kind = type(op)
            if kind is float:
                now += op
            elif kind is int:
                fifo = fifos[op]
                if not fifo:
                    read_waiting[op] = True
                    pending[p] = op
                    break
                rt = fifo.popleft()
                if rt > now:
                    now = rt
                if write_waiting[op]:
                    write_waiting[op] = False
                    w = writer[op]
                    if now > times[w]:
                        times[w] = now
                    ready.append(w)
            else:
                k, latency = op
                fifo = fifos[k]
                if len(fifo) >= depth[k]:
                    write_waiting[k] = True
                    pending[p] = op
                    issued[p] = now
                    break
                # First attempt: issue time is now, and now + latency >= now.
                fifo.append(now + latency)
                if read_waiting[k]:
                    read_waiting[k] = False
                    ready.append(reader[k])
        times[p] = now

    # Every op taken from a program counts once, a blocked one included
    # (its retry does not), as the DES counts fetched commands.  The
    # count only grows, so checking the budget once at the end raises
    # exactly when the DES would have raised part-way.
    commands = sum(len(ops) - length_hint(it) for ops, it in zip(progs, iters))
    if commands > max_commands:
        raise SimulationError(
            f"command budget exceeded in {name!r}; likely a non-terminating kernel"
        )
    blocked = [p for p in range(n) if pending[p] is not None]
    if blocked:
        detail = "; ".join(
            f"{names[p]} blocked-read on {streams[pending[p]]}"
            if type(pending[p]) is int
            else f"{names[p]} blocked-write on {streams[pending[p][0]]}"
            for p in blocked
        )
        raise DeadlockError(
            f"dataflow network {name!r} deadlocked with "
            f"{len(blocked)} blocked process(es): {detail}"
        )

    return ReplayResult(
        makespan_cycles=max(times, default=0.0),
        commands=commands,
        process_times=dict(zip(names, times)),
    )
