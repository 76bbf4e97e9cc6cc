"""Extension — metadata migration vs distributed transactions (§V).

The paper's related work contrasts two ways to handle operations that
span MDSs:

* run an atomic commitment protocol per operation (this paper), or
* *migrate* metadata responsibility so operations become local
  (Sinnamohideen et al., Ursa Minor) — "more heavyweight ... since all
  the metadata objects must be moved between MDSs before they can
  perform any operation", but "acceptable for RENAME operations that
  are very rare" and amortisable when many operations follow.

``run_migration_study`` quantifies the crossover for a directory whose
files' inodes live on another MDS: strategy A commits every CREATE
through the protocol; strategy B first migrates the directory onto the
inode server (cost ∝ current directory size) and then creates locally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import SimulationParams
from repro.fs.objects import ObjectId
from repro.fs.operations import plan_migrate
from repro.mds.cluster import Cluster
from repro.workloads.cell import SETTLE, TRACE, drain, drive, measure


class MigratablePlacement:
    """Directory ownership held in a mutable map; inodes co-locate with
    their directory (so after migration, creates become local)."""

    def __init__(self, owners: dict[str, str], default: str):
        self.owners = dict(owners)
        self.default = default
        self._inode_home: dict[str, str] = {}

    def place(self, obj: ObjectId) -> str:
        if obj.kind == "dir":
            return self.owners.get(obj.key, self.default)
        return self._inode_home.get(obj.key, self.default)

    def hint_inode_path(self, ino: int, path: str) -> None:
        """New inodes live where their directory currently lives."""
        dir_path = path.rsplit("/", 1)[0] or "/"
        self._inode_home[str(ino)] = self.owners.get(dir_path, self.default)

    def move(self, dir_path: str, node: str) -> None:
        """Repoint ownership after a committed migration."""
        self.owners[dir_path] = node

    def pin(self, obj: ObjectId, node: str) -> None:
        if obj.kind == "dir":
            self.owners[obj.key] = node


def migrate_directory(cluster: Cluster, client, path: str, dst: str):
    """Generator: atomically migrate ``path`` to ``dst`` and repin.

    Returns the reply payload; ownership is repointed only on commit.
    """
    src = cluster.placement.place(ObjectId.directory(path))
    entries = cluster.store_of(src).listdir(path)
    plan = plan_migrate(path, entries, src, dst)
    result = yield from client.run(plan)
    if result["committed"]:
        cluster.placement.move(path, dst)
    return result


@dataclass(frozen=True)
class MigrationStudyResult:
    strategy: str
    creates: int
    existing_entries: int
    total_time: float
    creates_per_second: float


def _build(params: Optional[SimulationParams], inode_home: str):
    """Cluster whose /hot directory lives on mds1 while a workload's
    inodes would live on ``inode_home``."""
    placement = MigratablePlacement({"/": "mds1", "/hot": "mds1"}, default=inode_home)
    cluster = Cluster(
        protocol="1PC",
        server_names=["mds1", "mds2"],
        placement=placement,
        params=params,
        trace=TRACE,
    )
    cluster.mkdir("/hot")
    return cluster, cluster.new_client()


def run_strategy(
    strategy: str,
    creates: int,
    existing_entries: int = 0,
    params: Optional[SimulationParams] = None,
) -> MigrationStudyResult:
    """One strategy run: ``"distributed"`` or ``"migrate-first"``.

    The directory starts on mds1 with ``existing_entries`` files whose
    inodes are on mds2 (so migration has real bytes to move); the
    measured phase creates ``creates`` more files.
    """
    if strategy not in ("distributed", "migrate-first"):
        raise ValueError(f"unknown strategy {strategy!r}")
    cluster, client = _build(params, inode_home="mds2")
    sim = cluster.sim

    def seed(sim):
        for i in range(existing_entries):
            result = yield from client.create(f"/hot/old{i}")
            assert result["committed"]

    p = sim.process(seed(sim), name="seed")
    sim.run(until=p)
    sim.run(until=sim.now + SETTLE)

    start = sim.now

    def measured(sim):
        if strategy == "migrate-first":
            result = yield from migrate_directory(cluster, client, "/hot", "mds2")
            assert result["committed"]
        # The create storm itself is open loop (the paper's throughput
        # perspective): submit everything, then drain.
        drive(cluster, ((client, client.plan_create(f"/hot/new{i}")) for i in range(creates)))

    baseline_outcomes = len(cluster.outcomes)
    p = sim.process(measured(sim), name="measured")
    sim.run(until=p)
    expected = baseline_outcomes + creates + (1 if strategy == "migrate-first" else 0)
    drain(cluster, expected, f"migration strategy {strategy}")
    m = measure(cluster, cluster.outcomes[baseline_outcomes:], start)
    if m.aborted:
        raise RuntimeError("measured-phase operation aborted")
    violations = cluster.check_invariants()
    if violations:
        raise RuntimeError(f"invariant violations: {violations}")
    return MigrationStudyResult(
        strategy=strategy,
        creates=creates,
        existing_entries=existing_entries,
        total_time=m.makespan,
        creates_per_second=m.per_second(creates),
    )


def run_migration_study(
    creates_points=(5, 25, 100),
    existing_entries: int = 40,
    params: Optional[SimulationParams] = None,
) -> dict[int, dict[str, MigrationStudyResult]]:
    """The crossover grid: both strategies at each workload size."""
    out: dict[int, dict[str, MigrationStudyResult]] = {}
    for creates in creates_points:
        out[creates] = {
            s: run_strategy(s, creates, existing_entries=existing_entries, params=params)
            for s in ("distributed", "migrate-first")
        }
    return out
