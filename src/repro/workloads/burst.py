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
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterator, Optional

from repro.config import SimulationParams
from repro.core.batching import BatchPlanner
from repro.mds.client import Client
from repro.mds.cluster import Cluster
from repro.mds.scenarios import distributed_create_cluster
from repro.sim.kernel import Simulator
from repro.workloads.cell import SETTLE, Measurement, drain, measure


def run_burst(
    protocol: str,
    n: int = 100,
    params: Optional[SimulationParams] = None,
    op: str = "create",
    trace: bool = False,
) -> Measurement:
    """Submit ``n`` simultaneous distributed operations, run to completion.

    ``op`` is ``"create"`` or ``"delete"`` (deletes pre-create the
    files quietly first, then measure the burst of deletes).
    ``trace`` turns the observability layer on (spans, metrics, trace
    log — off by default to keep long simulations lean).
    """
    if op not in ("create", "delete"):
        raise ValueError(f"unsupported burst op {op!r}")
    cluster, client = distributed_create_cluster(protocol, params=params, trace=trace)
    paths = [f"/dir1/f{i}" for i in range(n)]

    if op == "delete":
        _populate(cluster, client, paths)

    start = cluster.sim.now
    planner = client.plan_create if op == "create" else client.plan_delete
    for path in paths:
        client.submit(planner(path))
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
    cluster, client = distributed_create_cluster(protocol, params=params, trace=False)
    plans = [client.plan_create(f"/dir1/f{i}") for i in range(n)]
    planner = BatchPlanner(max_batch=batch_size, max_workers=None)
    batches = planner.partition(plans)

    start = cluster.sim.now
    for batch in batches:
        client.submit(batch)
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
    cluster, client = distributed_create_cluster(protocol, params=params, trace=False)
    worker = cluster.servers["mds2"]
    # The rate to the nearest per mille, in integers: 0.1 is 1/10, not
    # the float next to it, so the arming points are exact.
    per_mille = round(abort_rate * 1000)
    refusals = -(-n * per_mille // 1000)

    start = cluster.sim.now
    for i in range(n):
        client.submit(client.plan_create(f"/dir1/f{i}"))

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


def _populate(cluster: Cluster, client: Client, paths: list[str]) -> None:
    """Create ``paths`` sequentially before the measured phase."""
    sim = cluster.sim

    def seed(sim):
        for path in paths:
            result = yield from client.create(path)
            if not result["committed"]:
                raise RuntimeError(f"seeding create failed for {path}")

    proc = sim.process(seed(sim), name="seed")
    sim.run(until=proc)
    # Settle trailing seed-phase activity, then start fresh.
    sim.run(until=sim.now + SETTLE)
    cluster.outcomes.clear()
