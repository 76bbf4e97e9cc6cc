"""Extension — metadata-service scaling across coordinators.

The paper's §I motivation: a single MDS is a bottleneck, so the
namespace is spread over a cluster.  This cell measures aggregate
distributed-create throughput as the workload fans out over 1..K
directories, each owned by a different MDS of a 2K-server cluster
(directory on server 2i, inodes on server 2i+1, so every create is
still a two-MDS transaction and no server plays two roles).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.config import SimulationParams
from repro.fs.placement import StripedPlacement
from repro.mds.cluster import Cluster
from repro.workloads.cell import Measurement, drain, measure


def run_scaling_cell(
    protocol: str,
    n_pairs: int,
    ops_per_dir: int = 25,
    params: Optional[SimulationParams] = None,
) -> Measurement:
    """Aggregate throughput with ``n_pairs`` coordinator/worker pairs."""
    names = [f"mds{i}" for i in range(1, 2 * n_pairs + 1)]
    cluster = Cluster(
        protocol=protocol,
        server_names=names,
        placement=StripedPlacement(n_pairs),
        params=params,
        trace=False,
    )
    clients = []
    for d in range(1, n_pairs + 1):
        cluster.mkdir(f"/dir{d}")
        clients.append(cluster.new_client())

    total = n_pairs * ops_per_dir
    start = cluster.sim.now
    for d, client in enumerate(clients, start=1):
        for i in range(ops_per_dir):
            client.submit(client.plan_create(f"/dir{d}/f{i}"))
    drain(cluster, total, f"scaling cell n_pairs={n_pairs}")
    m = measure(cluster, cluster.outcomes, start)
    if m.committed != total:
        raise RuntimeError(f"{m.committed}/{total} committed at n_pairs={n_pairs}")
    violations = cluster.check_invariants()
    if violations:
        raise RuntimeError(f"invariant violations at n_pairs={n_pairs}: {violations}")
    # Scaling cell documents have never carried latency.
    return replace(m, throughput=m.per_second(total), latency=None)
