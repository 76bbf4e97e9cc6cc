"""Steady-state mixed workloads and an mdtest-like phase workload.

These exercise the cluster beyond the paper's single burst: Poisson
arrivals of CREATE / DELETE / RENAME across several directories, and
the classic metadata benchmark shape (create-all / delete-all phases).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import SimulationParams
from repro.mds.scenarios import distributed_create_cluster
from repro.workloads.cell import Measurement, drain, measure


@dataclass
class MixedWorkload:
    """Configuration for a mixed namespace workload."""

    n_ops: int = 200
    #: Operation mix (weights; normalised internally).
    create_weight: float = 0.7
    delete_weight: float = 0.25
    rename_weight: float = 0.05
    #: Mean inter-arrival time (seconds); Poisson process.
    mean_interarrival: float = 2e-3
    #: Number of target directories (all on the coordinator).
    n_dirs: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_ops < 1:
            raise ValueError("n_ops must be >= 1")
        total = self.create_weight + self.delete_weight + self.rename_weight
        if total <= 0:
            raise ValueError("operation weights must sum to a positive value")
        if self.mean_interarrival <= 0:
            raise ValueError("mean_interarrival must be positive")


def run_mixed(
    protocol: str,
    workload: Optional[MixedWorkload] = None,
    params: Optional[SimulationParams] = None,
) -> Measurement:
    """Drive a mixed workload; returns aggregate metrics."""
    wl = workload or MixedWorkload()
    cluster, client = distributed_create_cluster(protocol, params=params, trace=False)
    for d in range(1, wl.n_dirs):
        cluster.mkdir(f"/dir{d + 1}")
    rng = cluster.rng.spawn(f"mixed:{wl.seed}")
    sim = cluster.sim

    existing: list[str] = []
    counter = {"n": 0}

    def next_path() -> str:
        d = rng.integers("dir", 1, wl.n_dirs)
        counter["n"] += 1
        return f"/dir{d}/m{counter['n']}"

    def driver(sim):
        weights = [wl.create_weight, wl.delete_weight, wl.rename_weight]
        issued = 0
        while issued < wl.n_ops:
            yield sim.timeout(rng.exponential("arrival", wl.mean_interarrival))
            roll = rng.uniform("op", 0.0, sum(weights))
            if roll < weights[0] or not existing:
                path = next_path()
                client.submit(client.plan_create(path))
                existing.append(path)
            elif roll < weights[0] + weights[1]:
                victim = existing.pop(rng.integers("victim", 0, len(existing) - 1))
                try:
                    client.submit(client.plan_delete(victim))
                except FileNotFoundError:
                    # The create may have aborted; fall back to a create.
                    path = next_path()
                    client.submit(client.plan_create(path))
                    existing.append(path)
            else:
                src_i = rng.integers("src", 0, len(existing) - 1)
                src = existing[src_i]
                dst = next_path()
                try:
                    client.submit(client.plan_rename(src, dst, touch_inode=False))
                    existing[src_i] = dst
                except FileNotFoundError:
                    path = next_path()
                    client.submit(client.plan_create(path))
                    existing.append(path)
            issued += 1

    start = sim.now
    sim.process(driver(sim), name="mixed-driver")
    drain(cluster, wl.n_ops, "mixed workload")
    return measure(cluster, cluster.outcomes, start)


def run_mdtest_phases(
    protocol: str,
    n_files: int = 50,
    params: Optional[SimulationParams] = None,
) -> dict[str, float]:
    """mdtest-like phases: create-all then delete-all; per-phase ops/s."""
    cluster, client = distributed_create_cluster(protocol, params=params, trace=False)
    paths = [f"/dir1/mdtest{i}" for i in range(n_files)]
    results: dict[str, float] = {}

    for phase, planner in (("create", client.plan_create), ("delete", client.plan_delete)):
        cluster.outcomes.clear()
        start = cluster.sim.now
        for path in paths:
            client.submit(planner(path))
        drain(cluster, n_files, f"mdtest {phase} phase")
        m = measure(cluster, cluster.outcomes, start)
        if m.committed != n_files:
            raise RuntimeError(f"{phase} phase committed {m.committed}/{n_files}")
        results[phase] = m.per_second(n_files)
    return results
