"""Multi-card cluster scaling of the CDS engine system.

The paper scales to five CDS engines on one Alveo U280 and stops there —
six do not fit under the device's routable ceiling (Table II).  This
package models the next axis: a host node with ``N`` cards, each running
the full multi-engine configuration, in the same discrete-event style as
the single-card system.

``node``
    :class:`~repro.cluster.node.ClusterNode` — one card: engines
    (floorplan-validated), PCIe accounting, active/idle power.
``scheduler``
    Pluggable portfolio sharding: round-robin, greedy least-loaded (LPT),
    and work-stealing chunk policies.  All produce identical numerical
    results; only the load balance differs.
``interconnect``
    :class:`~repro.cluster.interconnect.HostLinkModel` — host-path
    contention between cards (the ``multi_engine_contention`` idiom one
    level up) plus serial per-chunk dispatch latency.
``cluster``
    :class:`~repro.cluster.cluster.CDSCluster` — shard, price, roll up:
    aggregate options/second, per-card utilisation, total power.
``batching``
    Host-side size-or-linger request coalescing (the policy the serving
    layer's micro-batcher runs online).
"""

from repro.cluster.batching import BatchQueue, DispatchBatch
from repro.cluster.cluster import CDSCluster, ClusterResult, option_costs
from repro.cluster.interconnect import HostLinkModel
from repro.cluster.node import CardReport, ClusterNode
from repro.cluster.scheduler import (
    SCHEDULERS,
    ClusterScheduler,
    LeastLoadedScheduler,
    RoundRobinScheduler,
    WorkStealingScheduler,
    make_scheduler,
    validate_partition,
)

__all__ = [
    "CDSCluster",
    "ClusterResult",
    "ClusterNode",
    "CardReport",
    "HostLinkModel",
    "ClusterScheduler",
    "RoundRobinScheduler",
    "LeastLoadedScheduler",
    "WorkStealingScheduler",
    "SCHEDULERS",
    "make_scheduler",
    "validate_partition",
    "option_costs",
    "BatchQueue",
    "DispatchBatch",
]
