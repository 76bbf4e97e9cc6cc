"""The cell skeleton: drain the cluster, fold its replies.

The paper's §IV evaluation has one source module that submits
transactions and one statistics module that folds their replies.
Every cell in this package (and the two study cells in
:mod:`repro.harness`) is that shape — build a cluster, submit, then::

    drain(cluster, expected, "burst")
    m = measure(cluster, cluster.outcomes, start)

and differs only in what it submits and in which count it divides by
the makespan.  ``repro.exec.runners`` folds the resulting
:class:`Measurement` into a cell document.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.metrics import LatencyStats, throughput
from repro.mds.cluster import Cluster
from repro.protocols.base import TxnOutcome

#: Virtual seconds a drained cluster runs on, so trailing protocol
#: activity (decision forwarding, lazy commit flushes, log GC) settles
#: and post-run state inspection sees the hardened image.  Reply times
#: are already fixed by then, so no measurement moves.
SETTLE = 30.0


@dataclass(frozen=True)
class Measurement:
    """What one cell measured."""

    #: Transactions answered (committed or aborted); cells that count
    #: files or batches instead say so where they ``replace`` it.
    attempted: int
    committed: int
    #: Submission instant to the last client reply, virtual seconds.
    makespan: float
    throughput: float
    latency: Optional[LatencyStats]
    forced_writes: int
    lazy_writes: int
    #: The live cluster, for post-run inspection; ``None`` for a cell
    #: that ran more than one (the composite workload).
    cluster: Optional[Cluster]

    @property
    def aborted(self) -> int:
        return self.attempted - self.committed

    def per_second(self, count: int) -> float:
        """``count`` over the makespan, for cells whose numerator is not
        the committed transactions of :func:`throughput`."""
        return count / self.makespan if self.makespan > 0 else float("inf")


def wal_totals(cluster: Cluster) -> tuple[int, int]:
    """Total (forced, lazy) log appends across the cluster's servers."""
    forced = sum(s.wal.forced_appends for s in cluster.servers.values())
    lazy = sum(s.wal.lazy_appends for s in cluster.servers.values())
    return forced, lazy


def drain(
    cluster: Cluster, expected: int, what: str, budget: float = 3600.0, settle: float = SETTLE
) -> None:
    """Run the simulation until ``expected`` outcomes arrived, then
    ``settle`` more virtual seconds.

    Raises ``RuntimeError`` naming the cell when they did not arrive
    within ``budget`` virtual seconds — which covers both a schedule
    that ran dry and one kept alive by a periodic timer while a
    transaction goes unanswered.
    """
    if not cluster.run_until_answered(expected, budget):
        raise RuntimeError(
            f"{what} did not finish within {budget:g} virtual seconds "
            f"({len(cluster.outcomes)}/{expected} answered)"
        )
    if settle:
        cluster.sim.run(until=cluster.sim.now + settle)


def measure(cluster: Cluster, outcomes: Sequence[TxnOutcome], start: float) -> Measurement:
    """Fold the answered ``outcomes`` of a run submitted at ``start``."""
    forced, lazy = wal_totals(cluster)
    return Measurement(
        attempted=len(outcomes),
        committed=len([o for o in outcomes if o.committed]),
        makespan=max([o.replied_at for o in outcomes]) - start,
        throughput=throughput(outcomes),
        latency=LatencyStats.from_outcomes(outcomes),
        forced_writes=forced,
        lazy_writes=lazy,
        cluster=cluster,
    )
