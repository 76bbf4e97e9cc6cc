"""The §IV evaluation workload.

    "we have generated a synthetic workload where 100 distributed
    transactions are submitted at the same time to the same acp
    server.  This workload intends to reproduce the behavior of HPC
    applications that create many files in the same directory."

``run_burst`` submits N CREATEs at t=0 into one directory whose parent
lives on the coordinator while all inodes live on the worker, runs the
simulation until all replies arrive, and reports throughput.
``run_batched_burst`` groups the burst into batches first (§VI) and
``run_abort_burst`` has the worker refuse a fraction of the votes
(§II-D).

Two extensions drive the same burst into other cluster shapes.
``run_scaling_cell`` spreads it over K directories on a 2K-server
cluster (directory on server 2i, inodes on 2i+1: still two-MDS
transactions), the §I motivation.  ``run_fanout_cell`` batches it on a
:func:`~repro.mds.scenarios.fanout_cluster`, whose hot directory's
files stripe over worker shards, so one batch of ``k`` creates is one
transaction with exactly ``k`` workers; it counts *files* per second,
the protocol overhead a wider transaction amortises.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import repeat
from typing import Iterator, Optional

from repro.config import SimulationParams
from repro.core.batching import BatchPlanner
from repro.fs.placement import StripedPlacement
from repro.mds.cluster import Cluster
from repro.mds.scenarios import HOT_DIR, distributed_create_cluster, fanout_cluster
from repro.sim.kernel import Simulator
from repro.workloads.cell import TRACE, Measurement, drain, drive, measure

#: ``_FILE(i)``: the burst's ``i``-th file, all in the one directory.
_FILE = "/dir1/f{}".format


def run_burst(
    protocol: str,
    n: int = 100,
    params: Optional[SimulationParams] = None,
    op: str = "create",
    trace: str = TRACE,
) -> Measurement:
    """Submit ``n`` simultaneous distributed operations, run to completion.

    ``op`` is ``"create"`` or ``"delete"`` (deletes pre-create the
    files in an unmeasured create burst first, then measure the burst
    of deletes).
    ``trace`` is the hub's mode (``"off"``, ``"attribute"`` or
    ``"full"``).
    """
    if op not in ("create", "delete"):
        raise ValueError(f"unsupported burst op {op!r}")
    cluster, client = distributed_create_cluster(protocol, params=params, trace=trace)
    if op == "delete":
        drive(cluster, zip(repeat(client), map(client.plan_create, map(_FILE, range(n)))))
        drain(cluster, n, "burst seeding")
        cluster.outcomes.clear()

    start = cluster.sim.now
    planner = client.plan_create if op == "create" else client.plan_delete
    drive(cluster, zip(repeat(client), map(planner, map(_FILE, range(n)))))
    drain(cluster, n, "burst")
    return measure(cluster, cluster.outcomes, start)


def run_batched_burst(
    protocol: str,
    n: int = 100,
    batch_size: int = 8,
    params: Optional[SimulationParams] = None,
) -> Measurement:
    """The §VI future-work aggregation: the burst is grouped into
    batches of ``batch_size`` before submission; each batch commits as
    one transaction.  Counts and throughput are in files."""
    cluster, client = distributed_create_cluster(protocol, params=params, trace=TRACE)
    plans = list(map(client.plan_create, map(_FILE, range(n))))
    batches = BatchPlanner(max_batch=batch_size, max_workers=None).partition(plans)

    start = cluster.sim.now
    drive(cluster, zip(repeat(client), batches))
    drain(cluster, len(batches), "batched burst")
    m = measure(cluster, cluster.outcomes, start)
    # Outcomes arrive in completion order; key batch sizes by the
    # batch's (unique) first-member path.
    size_of = {b.path: b.detail.get("size", 1) for b in batches}
    files = sum(size_of[o.path] for o in cluster.outcomes if o.committed)
    return replace(m, attempted=n, committed=files, throughput=m.per_second(files))


def run_abort_burst(
    protocol: str,
    n: int = 100,
    abort_rate: float = 0.0,
    params: Optional[SimulationParams] = None,
    trace: str = TRACE,
) -> Measurement:
    """Burst with a fraction of worker-refused votes (§II-D ablation).

    Refusals are injected deterministically through the worker's
    ``fail_next_vote`` hook and spread evenly over the burst: refusal
    ``k`` is armed once ``floor(k / abort_rate)`` transactions have
    been answered, so ``ceil(n * abort_rate)`` are armed in all and the
    realised fraction is within ``1/n`` of the request (taken to the
    nearest per mille).  An armed refusal takes the worker's *next*
    vote, so a protocol that lets that vote in before the previous
    reply cannot refuse back to back: measured at ``n=40``, PrN and PC
    follow every rate, the one-phase family and PrA up to 0.65, PrC
    and EP up to 0.5 (they saturate there).  Throughput counts
    committed transactions over the whole makespan.
    """
    cluster, client = distributed_create_cluster(protocol, params=params, trace=trace)
    worker = cluster.servers["mds2"]
    # The rate to the nearest per mille, in integers: 0.1 is 1/10, not
    # the float next to it, so the arming points are exact.
    per_mille = round(abort_rate * 1000)
    refusals = -(-n * per_mille // 1000)

    start = cluster.sim.now
    drive(cluster, zip(repeat(client), map(client.plan_create, map(_FILE, range(n)))))

    def arm_failures(sim: Simulator) -> Iterator[object]:
        for k in range(refusals):
            target = k * 1000 // per_mille
            while len(cluster.outcomes) < target:
                yield sim.timeout(1e-4)
            worker.fail_next_vote = True

    if refusals:
        cluster.sim.process(arm_failures(cluster.sim), name="abort-injector")
    # No settle: this cell has always counted log writes at the last
    # reply, trailing lazy appends excluded.
    drain(cluster, n, "abort burst", settle=0.0)
    m = measure(cluster, cluster.outcomes, start)
    return replace(m, throughput=m.per_second(m.committed))


def run_scaling_cell(
    protocol: str,
    n_pairs: int,
    ops_per_dir: int = 25,
    params: Optional[SimulationParams] = None,
    trace: str = TRACE,
) -> Measurement:
    """Aggregate throughput with ``n_pairs`` coordinator/worker pairs."""
    cluster = Cluster(
        protocol=protocol,
        server_names=[f"mds{i}" for i in range(1, 2 * n_pairs + 1)],
        placement=StripedPlacement(n_pairs),
        params=params,
        trace=trace,
    )
    clients = []
    for d in range(1, n_pairs + 1):
        cluster.mkdir(f"/dir{d}")
        clients.append(cluster.new_client())

    total = n_pairs * ops_per_dir
    start = cluster.sim.now
    drive(
        cluster,
        (
            (client, client.plan_create(f"/dir{d}/f{i}"))
            for d, client in enumerate(clients, start=1)
            for i in range(ops_per_dir)
        ),
    )
    m = _all_committed(cluster, total, start, f"scaling cell n_pairs={n_pairs}")
    # Scaling cell documents have never carried latency.
    return replace(m, throughput=m.per_second(total), latency=None)


def run_fanout_cell(
    protocol: str,
    fanout: int,
    n_files: int = 16,
    n_shards: Optional[int] = None,
    params: Optional[SimulationParams] = None,
    trace: str = TRACE,
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
    cluster = fanout_cluster(protocol, shards, params=params, trace=trace)
    client = cluster.new_client()
    # Consecutive inode numbers visit consecutive stripe shards, so a
    # window of `fanout` consecutive creates spans `fanout` distinct
    # workers; the greedy partitioner cuts exactly those windows.
    plans = [client.plan_create(f"{HOT_DIR}/f{i}") for i in range(n_files)]
    batches = BatchPlanner(max_batch=fanout, max_workers=None).partition(plans)

    start = cluster.sim.now
    drive(cluster, zip(repeat(client), batches))
    m = _all_committed(cluster, len(batches), start, f"fanout cell fanout={fanout}")
    # Like scaling cells, fan-out cell documents pin ``latency: null``.
    return replace(m, throughput=m.per_second(n_files), latency=None)


def _all_committed(cluster: Cluster, expected: int, start: float, what: str) -> Measurement:
    """Drain and measure a cell that must commit everything on a
    consistent namespace; ``RuntimeError`` naming the cell otherwise."""
    drain(cluster, expected, what)
    m = measure(cluster, cluster.outcomes, start)
    if m.committed != expected:
        raise RuntimeError(f"{what}: {m.committed}/{expected} committed")
    violations = cluster.check_invariants()
    if violations:
        raise RuntimeError(f"{what}: invariant violations {violations}")
    return m
