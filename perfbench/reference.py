"""A fixed reference workload that gauges the host's speed right now.

Shared machines change speed by tens of percent within seconds (other
tenants, frequency scaling, memory bandwidth), which swamps the
differences a benchmark must resolve.  Timing this fixed mix next to
every measured iteration and scaling the iteration by
``NOMINAL_S / reference`` cancels most of that drift: the normalised
times read as if the host always ran the reference in
:data:`NOMINAL_S`.  The mix has the three costs the workloads pay:
interpreter work on dicts, small cache-resident NumPy kernels, and
fresh multi-megabyte arrays that fault in pages and stream through
memory.  The raw wall times are reported alongside.
"""

from __future__ import annotations

import time

import numpy as np

#: Median reference time on the 2-core x86-64 VM the baseline in
#: NOTES.md was recorded on; the unit that normalised times are
#: expressed in.  Changing it rescales every normalised figure.
NOMINAL_S = 0.025

_SMALL = np.random.default_rng(0).random((64, 256))
_LARGE_ELEMENTS = 1 << 20  # 8 MiB of float64


def reference_seconds() -> float:
    """Wall time of one pass of the reference mix (about 25 ms).

    The three parts take roughly equal time on an idle host.
    """
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    items = []
    for i in range(25_000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        items.append((key, i))
    items.sort()
    for _ in range(300):
        np.exp(_SMALL).sum(axis=1)
    for _ in range(3):
        fresh = np.full(_LARGE_ELEMENTS, 1.5)
        np.exp(fresh, out=fresh).sum()
    return time.perf_counter() - t0
