"""Declarative grid builders for the paper's experiment families.

Each builder expands an experiment axis into the flat ``RunSpec`` list
the executor fans out on.  Specs are emitted point-major (all
protocols of one point before the next point), matching the historical
serial iteration order so refactored harness entry points return their
tables in the same order as before.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.campaign.schedule import generate_schedule
from repro.config import SimulationParams
from repro.exec.spec import RunSpec
from repro.protocols.registry import default_protocols, fanout_capable
from repro.workloads.composite import CompositeConfig


def figure6_grid(
    n: int = 100,
    protocols: Optional[Sequence[str]] = None,
    params: Optional[SimulationParams] = None,
    seed: int = 0,
) -> list[RunSpec]:
    """The Figure 6 experiment: one burst of ``n`` per protocol."""
    if protocols is None:
        protocols = default_protocols()
    return [
        RunSpec(kind="burst", protocol=proto, n=n, seed=seed, point=proto, params=params)
        for proto in protocols
    ]


def network_latency_grid(
    latencies: Sequence[float],
    protocols: Optional[Sequence[str]] = None,
    n: int = 50,
    params: Optional[SimulationParams] = None,
    seed: int = 0,
) -> list[RunSpec]:
    """Throughput sensitivity to one-way network latency."""
    if protocols is None:
        protocols = default_protocols()
    base = params or SimulationParams.paper_defaults()
    return [
        RunSpec(
            kind="burst",
            protocol=proto,
            n=n,
            seed=seed,
            point=latency,
            params=base.with_(network=replace(base.network, latency=latency)),
        )
        for latency in latencies
        for proto in protocols
    ]


def disk_bandwidth_grid(
    bandwidths: Sequence[float],
    protocols: Optional[Sequence[str]] = None,
    n: int = 50,
    params: Optional[SimulationParams] = None,
    seed: int = 0,
) -> list[RunSpec]:
    """Throughput sensitivity to log-device bandwidth."""
    if protocols is None:
        protocols = default_protocols()
    base = params or SimulationParams.paper_defaults()
    return [
        RunSpec(
            kind="burst",
            protocol=proto,
            n=n,
            seed=seed,
            point=bandwidth,
            params=base.with_(storage=replace(base.storage, bandwidth=bandwidth)),
        )
        for bandwidth in bandwidths
        for proto in protocols
    ]


def burst_size_grid(
    sizes: Sequence[int],
    protocols: Optional[Sequence[str]] = None,
    params: Optional[SimulationParams] = None,
    seed: int = 0,
) -> list[RunSpec]:
    """Contention scaling on one directory."""
    if protocols is None:
        protocols = default_protocols()
    return [
        RunSpec(kind="burst", protocol=proto, n=size, seed=seed, point=size, params=params)
        for size in sizes
        for proto in protocols
    ]


def abort_rate_grid(
    rates: Sequence[float],
    protocols: Optional[Sequence[str]] = None,
    n: int = 50,
    params: Optional[SimulationParams] = None,
    seed: int = 0,
) -> list[RunSpec]:
    """Committed throughput under a fraction of refused votes."""
    if protocols is None:
        protocols = default_protocols()
    return [
        RunSpec(
            kind="abort_burst",
            protocol=proto,
            n=n,
            abort_rate=rate,
            seed=seed,
            point=rate,
            params=params,
        )
        for rate in rates
        for proto in protocols
    ]


def fanout_grid(
    fanouts: Sequence[int] = (1, 2, 4, 8),
    protocols: Optional[Sequence[str]] = None,
    n_files: int = 16,
    n_shards: Optional[int] = None,
    params: Optional[SimulationParams] = None,
    seed: int = 0,
) -> list[RunSpec]:
    """File throughput vs workers-per-transaction on a sharded namespace.

    One hot directory on a coordinator shard, inodes striped over
    worker shards, creates batched so each transaction spans exactly
    ``k`` workers.  ``protocols`` defaults to the registered protocols
    that accept the widest requested transaction; ``n_shards`` defaults
    to ``k`` per point (the tightest cluster hosting the width).
    """
    if protocols is None:
        protocols = fanout_capable(max(fanouts))
    return [
        RunSpec(
            kind="fanout",
            protocol=proto,
            n=n_files,
            fanout=k,
            n_shards=k if n_shards is None else n_shards,
            seed=seed,
            point=k,
            params=params,
        )
        for k in fanouts
        for proto in protocols
    ]


def campaign_grid(
    protocol: str,
    runs: int = 25,
    seed: int = 0,
    n_faults: int = 3,
    n_ops: int = 6,
    n_clients: int = 2,
    params: Optional[SimulationParams] = None,
    nodes: Sequence[str] = ("mds1", "mds2"),
) -> list[RunSpec]:
    """``runs`` seeded adversarial fault-campaign cells for one protocol.

    Each cell carries its own generated :class:`CampaignSchedule`
    (canonical JSON in ``spec.campaign``), so the schedule is part of
    the cell's identity.  The
    per-run schedule seed mixes the base seed with the run index
    through distinct named RNG streams, so runs are independent but
    byte-reproducible.
    """
    specs = []
    for i in range(runs):
        schedule = generate_schedule(
            protocol,
            seed=seed * 1_000_003 + i,
            nodes=nodes,
            n_faults=n_faults,
            n_ops=n_ops,
            n_clients=n_clients,
        )
        specs.append(
            RunSpec(
                kind="campaign",
                protocol=protocol,
                n=n_ops,
                seed=seed,
                point=i,
                params=params,
                campaign=schedule.to_json(),
            )
        )
    return specs


def composite_grid(
    ops_counts: Sequence[int] = (1000, 4000),
    protocols: Optional[Sequence[str]] = None,
    groups: int = 2,
    params: Optional[SimulationParams] = None,
    seed: int = 0,
    window: int = 32,
    working_set: int = 512,
) -> list[RunSpec]:
    """Composite mdtest-like workload cells along a total-operations axis.

    Each cell carries its full workload shape as canonical JSON in
    ``spec.composite`` (the campaign-schedule discipline), so the mix,
    skew, phases and window are part of the cell identity.
    """
    if protocols is None:
        protocols = default_protocols()
    return [
        RunSpec(
            kind="composite",
            protocol=proto,
            n=ops,
            seed=seed,
            point=ops,
            params=params,
            composite=CompositeConfig(
                ops=ops, groups=groups, window=window, working_set=working_set
            ).to_json(),
        )
        for ops in ops_counts
        for proto in protocols
    ]


def scaling_grid(
    protocol: str,
    pair_counts: Sequence[int] = (1, 2, 4),
    ops_per_dir: int = 25,
    params: Optional[SimulationParams] = None,
    seed: int = 0,
) -> list[RunSpec]:
    """Aggregate throughput across 1..K coordinator/worker pairs."""
    return [
        RunSpec(
            kind="scaling",
            protocol=protocol,
            n=ops_per_dir,
            n_pairs=k,
            seed=seed,
            point=k,
            params=params,
        )
        for k in pair_counts
    ]
