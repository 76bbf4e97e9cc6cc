"""Shared cluster builders for the experiments.

The evaluation workload (§IV) needs every CREATE to be a two-MDS
distributed transaction: the parent directory lives on one acp server
(the coordinator) and the new inodes on the other (the worker) —
:func:`distributed_create_cluster`.  The fan-out extension spreads one
hot directory's inodes over ``n_shards`` workers instead —
:func:`fanout_cluster`.
"""

from __future__ import annotations

from typing import Optional

from repro.config import SimulationParams
from repro.fs.placement import ForcedDistributedPlacement, ShardedSubtreePlacement
from repro.mds.client import Client
from repro.mds.cluster import Cluster

#: Coordinator shard of a fan-out cluster: owns every directory (the
#: subtree map pins "/").
COORDINATOR = "mds0"
#: The single hot directory all batched fan-out creates target.
HOT_DIR = "/hot"


def distributed_create_cluster(
    protocol: str,
    params: Optional[SimulationParams] = None,
    trace: str = "full",
) -> tuple[Cluster, Client]:
    """A two-server cluster where every CREATE is distributed.

    Returns ``(cluster, client)`` with ``/dir1`` provisioned on the
    coordinator.
    """
    cluster = Cluster(
        protocol=protocol,
        server_names=["mds1", "mds2"],
        params=params,
        placement=ForcedDistributedPlacement("mds1", "mds2"),
        trace=trace,
    )
    cluster.mkdir("/dir1")
    client = cluster.new_client()
    return cluster, client


def fanout_cluster(
    protocol: str,
    n_shards: int,
    params: Optional[SimulationParams] = None,
    trace: str = "full",
) -> Cluster:
    """A ``1 + n_shards`` cluster with a sharded hot directory.

    ``mds0`` owns all dentries (it coordinates every transaction);
    inodes stripe across the ``n_shards`` worker shards.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    workers = [f"mds{i}" for i in range(1, n_shards + 1)]
    placement = ShardedSubtreePlacement(
        [COORDINATOR, *workers],
        {"/": COORDINATOR},
        stripe=workers,
    )
    cluster = Cluster(
        protocol=protocol,
        server_names=[COORDINATOR, *workers],
        placement=placement,
        params=params,
        trace=trace,
    )
    cluster.mkdir(HOT_DIR)
    return cluster
