"""Extension — participant fan-out over a sharded namespace.

The paper's transactions touch two MDSs (§I: CREATE and DELETE involve
at most two servers).  Once the namespace is sharded over N metadata
servers and operations are batched (§VI), a single transaction can
span *k* worker shards: one hot directory's dentries live on the
coordinator shard while the files inside it stripe across the worker
shards, so a batch of ``k`` creates is one atomic transaction with
exactly ``k`` workers.

This cell measures that regime on a
:func:`~repro.mds.scenarios.fanout_cluster`: the workload batches
consecutive creates in one hot directory with
:class:`~repro.core.batching.BatchPlanner` so each transaction spans
exactly ``fanout`` distinct workers (consecutive inode numbers visit
consecutive stripe shards).  Throughput is counted in *files* per
second, not transactions — the interesting trade-off is how much
protocol overhead a wider transaction amortises per file.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.config import SimulationParams
from repro.core.batching import BatchPlanner
from repro.mds.scenarios import HOT_DIR, fanout_cluster
from repro.workloads.cell import Measurement, drain, measure


def run_fanout_cell(
    protocol: str,
    fanout: int,
    n_files: int = 16,
    n_shards: Optional[int] = None,
    params: Optional[SimulationParams] = None,
) -> Measurement:
    """Create ``n_files`` in one hot directory, ``fanout`` per batch.

    Each batch is a single atomic transaction spanning exactly
    ``fanout`` worker shards (``n_shards`` defaults to ``fanout``, the
    tightest cluster that can host the requested width).  ``attempted``
    and ``committed`` count batches, ``throughput`` files per second.
    """
    shards = fanout if n_shards is None else n_shards
    if fanout < 1:
        raise ValueError(f"fanout must be >= 1, got {fanout}")
    if fanout > shards:
        raise ValueError(f"fanout {fanout} cannot exceed n_shards {shards}")
    cluster = fanout_cluster(protocol, shards, params=params)
    client = cluster.new_client()
    # Consecutive inode numbers visit consecutive stripe shards, so a
    # window of `fanout` consecutive creates spans `fanout` distinct
    # workers; the greedy partitioner cuts exactly those windows.
    plans = [client.plan_create(f"{HOT_DIR}/f{i}") for i in range(n_files)]
    batches = BatchPlanner(max_batch=fanout, max_workers=None).partition(plans)

    start = cluster.sim.now
    for batch in batches:
        client.submit(batch)
    drain(cluster, len(batches), f"fanout cell fanout={fanout}")
    m = measure(cluster, cluster.outcomes, start)
    if m.committed != len(batches):
        raise RuntimeError(
            f"{m.committed}/{len(batches)} batches committed at fanout={fanout}"
        )
    violations = cluster.check_invariants()
    if violations:
        raise RuntimeError(f"invariant violations at fanout={fanout}: {violations}")
    # Like scaling cells, fan-out cell documents pin ``latency: null``.
    return replace(m, throughput=m.per_second(n_files), latency=None)
