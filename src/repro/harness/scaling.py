"""Extension — metadata-service scaling across coordinators.

The paper's §I motivation: a single MDS is a bottleneck, so the
namespace is spread over a cluster.  This experiment measures aggregate
distributed-create throughput as the workload fans out over 1..K
directories, each owned by a different MDS of a 2K-server cluster
(directory on server 2i, inodes on server 2i+1, so every create is
still a two-MDS transaction and no server plays two roles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.config import SimulationParams
from repro.fs.objects import ObjectId
from repro.mds.cluster import Cluster

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache import ResultCache


class StripedPlacement:
    """Directory ``/dirK`` on server ``mds<2K-1>``, its files' inodes on
    ``mds<2K>``."""

    def __init__(self, n_pairs: int):
        self.n_pairs = n_pairs
        self._dir_of_ino: dict[str, int] = {}

    def place(self, obj: ObjectId) -> str:
        """Directory K -> coordinator of pair K; inode -> its worker."""
        if obj.kind == "dir":
            index = self._dir_index(obj.key)
            return f"mds{2 * index + 1}"
        index = int(self._dir_of_ino.get(obj.key, 0))
        return f"mds{2 * index + 2}"

    def hint_inode_path(self, ino: int, path: str) -> None:
        """Remember which directory (pair) an inode belongs to."""
        dir_path = path.rsplit("/", 1)[0] or "/"
        self._dir_of_ino[str(ino)] = self._dir_index(dir_path)

    def _dir_index(self, path: str) -> int:
        digits = "".join(ch for ch in path if ch.isdigit())
        return (int(digits) - 1) % self.n_pairs if digits else 0

    def pin(self, obj: ObjectId, node: str) -> None:
        """Placement is fixed by construction."""


@dataclass(frozen=True)
class ScalingCell:
    """Measured outcome of one scaling grid point."""

    protocol: str
    n_pairs: int
    total: int
    committed: int
    makespan: float
    throughput: float
    forced_writes: int
    lazy_writes: int
    seed: int


def run_scaling_cell(
    protocol: str,
    n_pairs: int,
    ops_per_dir: int = 25,
    params: Optional[SimulationParams] = None,
) -> ScalingCell:
    """Aggregate throughput with ``n_pairs`` coordinator/worker pairs."""
    names = [f"mds{i}" for i in range(1, 2 * n_pairs + 1)]
    placement = StripedPlacement(n_pairs)
    cluster = Cluster(
        protocol=protocol,
        server_names=names,
        placement=placement,
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
    while len(cluster.outcomes) < total:
        cluster.sim.step()
    end = max(o.replied_at for o in cluster.outcomes)
    committed = sum(1 for o in cluster.outcomes if o.committed)
    if committed != total:
        raise RuntimeError(f"{committed}/{total} committed at n_pairs={n_pairs}")
    cluster.sim.run(until=cluster.sim.now + 30.0)
    violations = cluster.check_invariants()
    if violations:
        raise RuntimeError(f"invariant violations at n_pairs={n_pairs}: {violations}")
    forced = sum(s.wal.forced_appends for s in cluster.servers.values())
    lazy = sum(s.wal.lazy_appends for s in cluster.servers.values())
    return ScalingCell(
        protocol=protocol,
        n_pairs=n_pairs,
        total=total,
        committed=committed,
        makespan=end - start,
        throughput=total / (end - start),
        forced_writes=forced,
        lazy_writes=lazy,
        seed=cluster.params.seed,
    )


def sweep_scaling(
    pair_counts: Sequence[int] = (1, 2, 4),
    *,
    protocols: Optional[Sequence[str]] = None,
    ops_per_dir: int = 25,
    params: Optional[SimulationParams] = None,
    workers: int = 1,
    cache: "Optional[ResultCache]" = None,
) -> dict[int, dict[str, float]]:
    """Aggregate throughput per ``(pair count, protocol)`` point.

    Shares the harness-wide calling convention (the swept axis
    positional; ``protocols=``, ``workers=``, ``cache=`` keyword-only
    — see ``docs/architecture.md``).  ``protocols`` defaults to every
    registered protocol.  Routed through the parallel executor;
    ``workers=1`` is the serial fallback and produces identical
    results to any worker count.
    """
    from repro.exec import run_grid, scaling_grid
    from repro.protocols.registry import default_protocols

    if protocols is None:
        protocols = default_protocols()
    specs = [
        spec
        for k in pair_counts
        for proto in protocols
        for spec in scaling_grid(
            proto, pair_counts=(k,), ops_per_dir=ops_per_dir, params=params
        )
    ]
    cells = run_grid(specs, workers=workers, cache=cache)
    table: dict[int, dict[str, float]] = {}
    for cell in cells:
        table.setdefault(cell.spec.n_pairs, {})[cell.spec.protocol] = cell.throughput
    return table
