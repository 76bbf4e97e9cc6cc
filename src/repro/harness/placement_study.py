"""Extension — placement locality vs distribution (§I / §V).

The paper argues two sides of a trade-off:

* Ceph-style subtree locality makes distributed transactions *rare*
  (§V), so even an expensive ACP seldom runs — but a hot directory
  then lives entirely on one MDS;
* spreading a hot directory's files over many MDSs (§I) turns every
  create into a distributed transaction, which is exactly when the
  choice of commit protocol matters.

This experiment quantifies both: for a multi-directory create workload
on four MDSs, it reports the fraction of operations that were
distributed and the aggregate throughput under hash placement versus
subtree placement, per protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import SimulationParams
from repro.fs import HashPlacement, SubtreePlacement
from repro.mds.cluster import Cluster
from repro.workloads.cell import TRACE, drain, drive, measure

SERVERS = ["mds1", "mds2", "mds3", "mds4"]
DIRS = ["/dir1", "/dir2", "/dir3", "/dir4"]


@dataclass(frozen=True)
class PlacementResult:
    """One (placement policy, protocol) measurement."""

    placement: str
    protocol: str
    throughput: float
    distributed_fraction: float
    committed: int


def _make_placement(kind: str):
    if kind == "hash":
        return HashPlacement(SERVERS)
    subtree_map = {"/": "mds1"}
    for d, server in zip(DIRS, SERVERS):
        subtree_map[d] = server
    return SubtreePlacement(SERVERS, subtree_map)


def run_placement_point(
    placement_kind: str,
    protocol: str,
    files_per_dir: int = 20,
    params: Optional[SimulationParams] = None,
) -> PlacementResult:
    """Create ``files_per_dir`` files in each of four directories."""
    cluster = Cluster(
        protocol=protocol,
        server_names=SERVERS,
        placement=_make_placement(placement_kind),
        params=params,
        trace=TRACE,
    )
    for d in DIRS:
        cluster.mkdir(d)
    client = cluster.new_client()

    start = cluster.sim.now
    plans = [client.plan_create(f"{d}/f{i}") for d in DIRS for i in range(files_per_dir)]
    total = len(plans)
    distributed = len([plan for plan in plans if plan.is_distributed])
    drive(cluster, ((client, plan) for plan in plans))
    drain(cluster, total, f"placement point {placement_kind}/{protocol}")
    m = measure(cluster, cluster.outcomes, start)
    violations = cluster.check_invariants()
    if violations:
        raise RuntimeError(f"invariant violations: {violations}")
    return PlacementResult(
        placement=placement_kind,
        protocol=protocol,
        throughput=m.per_second(m.committed),
        distributed_fraction=distributed / total,
        committed=m.committed,
    )


def run_placement_study(
    protocols=("PrN", "1PC"),
    files_per_dir: int = 20,
    params: Optional[SimulationParams] = None,
) -> list[PlacementResult]:
    """The full hash-vs-subtree grid for ``protocols``."""
    results = []
    for placement_kind in ("hash", "subtree"):
        for protocol in protocols:
            results.append(
                run_placement_point(
                    placement_kind, protocol, files_per_dir=files_per_dir, params=params
                )
            )
    return results
