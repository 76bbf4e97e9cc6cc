"""The cell skeleton: drive, drain, measure.

The paper's §IV evaluation has one source module that submits
transactions and one statistics module that folds their replies.
Every cell in this package (and the study cells in
:mod:`repro.harness`) is that shape — build a cluster in
hub mode ``trace=TRACE`` (or the caller's ``trace``), then::

    drive(cluster, ops)
    drain(cluster, expected, "burst")
    m = measure(cluster, cluster.outcomes, start)

and differs only in the cluster's shape, the operations it drives and
the count it divides by the makespan.  ``repro.exec.runners`` folds
the :class:`Measurement` into a cell document.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional, Sequence, overload

from repro.analysis.metrics import LatencyStats, throughput
from repro.analysis.streaming import StreamingStats
from repro.fs.operations import OpPlan
from repro.mds.client import Client
from repro.mds.cluster import Cluster
from repro.protocols.base import TxnOutcome
from repro.sim import Simulator

#: Virtual seconds a drained cluster runs on, so trailing protocol
#: activity (decision forwarding, lazy commit flushes, log GC) settles
#: and post-run state inspection sees the hardened image.  Reply times
#: are already fixed by then, so no measurement moves.
SETTLE = 30.0

#: The one trace default, the hub mode ``"off"`` so long simulations
#: stay lean: every cell here and in :mod:`repro.harness` builds with it
#: unless its caller asks, and ``RunSpec.trace`` overrides it.
TRACE = "off"

#: An open-loop operation: a ready plan (one file, a batch, a
#: migration) and the client that submits it.
Submission = tuple[Client, OpPlan]
#: A closed-loop operation: ``{"op", "path", "gap"[, "dst"]}`` with
#: ``op`` one of create, delete, rename, stat; planned by the worker
#: that pulls it, after ``gap`` seconds of think time.
TraceOp = dict[str, Any]


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


@dataclass
class Tally:
    """What a closed loop counts, in streaming, bounded-memory sinks:
    its transactions' outcomes (as the cluster's ``outcome_sink``) and
    what no outcome carries — reads and skipped operations."""

    latency: StreamingStats = field(default_factory=StreamingStats)
    read_latency: StreamingStats = field(default_factory=StreamingStats)
    committed: int = 0
    aborted: int = 0
    skipped: int = 0
    reads: int = 0
    last_reply: float = 0.0

    def on_outcome(self, outcome: TxnOutcome) -> None:
        if outcome.committed:
            self.committed += 1
        else:
            self.aborted += 1
        self.latency.observe(outcome.client_latency)
        if outcome.replied_at > self.last_reply:
            self.last_reply = outcome.replied_at


@overload
def drive(cluster: Cluster, ops: Iterable[Submission]) -> None: ...
@overload
def drive(cluster: Cluster, ops: Iterator[TraceOp], window: int, tally: Tally) -> None: ...


def drive(
    cluster: Cluster,
    ops: Iterable[Any],
    window: Optional[int] = None,
    tally: Optional[Tally] = None,
) -> None:
    """Put ``ops`` to ``cluster``, in one of two modes chosen by ``window``.

    Open loop (``window=None``): every submission is sent now, in
    stream order, by the client it names; no process is spawned.
    Closed loop (``window=k``): ``k`` new clients each pull the next
    operation from the iterator ``ops`` they share, so at most ``k`` are
    in flight, and ``tally`` counts what they see besides outcomes.

    Answers land where the cluster routes them (``outcomes`` or its
    ``outcome_sink``); the caller drains and measures.
    """
    if window is None:
        for client, plan in ops:
            client.submit(plan)
        return
    assert tally is not None, "a closed loop needs a tally"
    sim = cluster.sim
    for _ in range(window):
        client = cluster.new_client()
        sim.process(_worker(sim, client, ops, tally), name=f"drive-{client.name}")


def _plan_for(client: Client, op: TraceOp) -> Optional[OpPlan]:
    """Plan a trace operation; ``None`` when the target is gone (the
    replaying-client convention: skip and move on)."""
    kind = op["op"]
    try:
        if kind == "create":
            return client.plan_create(op["path"])
        if kind == "delete":
            return client.plan_delete(op["path"])
        return client.plan_rename(op["path"], op["dst"], touch_inode=False)
    except (FileNotFoundError, ValueError):
        return None


def _worker(
    sim: Simulator, client: Client, ops: Iterator[TraceOp], tally: Tally
) -> Iterator[Any]:
    """One closed-loop client: pull the next operation, think, run it.

    All of a loop's workers share one lazy iterator, so its in-flight
    operations are bounded by the worker count (the window) — and with
    it the WAL's open-transaction scan stays O(window), not O(n): the
    deep-burst quadratic is designed out.
    """
    for op in ops:
        gap = op["gap"]
        if gap > 0:
            yield sim.timeout(gap)
        if op["op"] == "stat":
            started = sim.now
            yield from client.stat(op["path"])
            tally.reads += 1
            tally.read_latency.observe(sim.now - started)
            if sim.now > tally.last_reply:
                tally.last_reply = sim.now
            continue
        plan = _plan_for(client, op)
        if plan is None:
            tally.skipped += 1
            continue
        yield from client.run(plan)


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
