"""Table I: protocol cost accounting — analytical and measured.

The analytical rows are transcribed from the paper.  The measured rows
are folded from the *transaction span* of one distributed CREATE
(:func:`fold_span_costs` — the trace records on the span and its legs):

* *total* synchronous / asynchronous log writes: count of forced / lazy
  appends attached to the span;
* *critical-path* writes: the maximum set of pairwise-disjoint write
  intervals completing before the client reply (overlapping writes —
  the coordinator's and worker's concurrent prepares — count once,
  exactly as the paper counts them);
* *messages*: wire messages for the transaction, minus the two
  execution messages (UPDATE_REQ / response) any distributed operation
  needs even without an ACP ("the additional messages required by the
  specific protocol when compared with the case where no atomic
  commitment protocols are used");
* *critical-path messages*: extra messages sent before the client
  reply.

``test_table1.py`` asserts measured == analytical for all four
protocols; the ``table1`` report artifact renders both.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from repro.obs.span import PROTOCOL_MSG_KINDS, Span

#: Messages a distributed namespace operation needs with no ACP at all
#: (ship the updates, hear back).
BASE_MESSAGES = 2


@dataclass(frozen=True)
class CostRow:
    """One Table I row."""

    sync_total: int
    async_total: int
    sync_critical: int
    async_critical: int
    msgs_total: int
    msgs_critical: int


#: Table I as printed in the paper.
TABLE1: dict[str, CostRow] = {
    "PrN": CostRow(5, 1, 4, 1, 4, 4),
    "PrC": CostRow(4, 1, 3, 0, 3, 2),
    "EP": CostRow(4, 1, 3, 0, 1, 0),
    "1PC": CostRow(3, 1, 2, 0, 1, 0),
}


@dataclass(frozen=True)
class MeasuredCosts:
    """Counts folded from a transaction span, in Table I's units."""

    row: CostRow
    client_latency: float
    txn_id: int


def _disjoint_interval_count(intervals: list[tuple[float, float]]) -> int:
    """Maximum number of pairwise-disjoint intervals (greedy by end)."""
    count = 0
    last_end = float("-inf")
    for start, end in sorted(intervals, key=lambda iv: (iv[1], iv[0])):
        if start >= last_end:
            count += 1
            last_end = end
    return count


def fold_span_costs(root: Span, workers: int = 1) -> CostRow:
    """Fold one transaction's span tree into a Table I cost row.

    ``root`` is the coordinator span; its worker legs are traversed via
    the parent/child links, so every WAL force and protocol message of
    the transaction — on any node — is accounted.
    """
    events = sorted(root.iter_events(), key=attrgetter("time"))
    reply_times = [e.time for e in events if e.category == "client_reply"]
    if not reply_times:
        raise ValueError(f"span of txn {root.txn_id} has no client_reply event")
    reply_time = reply_times[0]

    # Forced appends are one force() call each; group multi-record
    # forces by (actor, time).  Durable completions are matched by
    # (actor, record kind, sync flag).
    sync_groups: dict[tuple[str, float], list] = {}
    async_groups: dict[tuple[str, float], list] = {}
    durables: dict[tuple[str, str, bool], float] = {}
    sends = []
    for event in events:
        if event.category == "log_append":
            target = sync_groups if event.detail.get("sync") else async_groups
            target.setdefault((event.actor, event.time), []).append(event)
        elif event.category == "log_durable":
            detail = event.detail
            durables[(event.actor, detail.get("kind"), bool(detail.get("sync")))] = event.time
        elif event.category == "msg_send" and event.detail.get("kind") in PROTOCOL_MSG_KINDS:
            sends.append(event)

    sync_total = len(sync_groups)
    async_total = len(async_groups)

    sync_intervals = []
    for (actor, start), evs in sync_groups.items():
        ends = [durables.get((actor, e.detail.get("kind"), True), float("inf")) for e in evs]
        end = max(ends)
        if end <= reply_time:
            sync_intervals.append((start, end))
    sync_critical = _disjoint_interval_count(sync_intervals)
    async_critical = sum(1 for (_a, t) in async_groups if t <= reply_time)

    msgs_total = len(sends) - BASE_MESSAGES * workers
    # Strictly before the reply: a COMMIT fired in the same instant as
    # the client reply is already off the critical path (PrC/EP reply
    # first, then forward the decision).
    msgs_critical = (
        sum(1 for e in sends if e.time < reply_time) - BASE_MESSAGES * workers
    )

    return CostRow(
        sync_total=sync_total,
        async_total=async_total,
        sync_critical=sync_critical,
        async_critical=async_critical,
        msgs_total=msgs_total,
        msgs_critical=max(0, msgs_critical),
    )


def measure_protocol_costs(protocol: str, workers: int = 1) -> MeasuredCosts:
    """Run one distributed CREATE under ``protocol`` and count costs.

    Uses a dedicated two-server cluster with the directory pinned on
    mds1 and the inode forced to mds2, so the operation is guaranteed
    to be a two-MDS distributed transaction.  The counts are folded
    from the transaction's span (``cluster.obs.spans``).
    """
    from repro.mds.scenarios import distributed_create_cluster

    cluster, client = distributed_create_cluster(protocol)
    done = cluster.sim.process(client.create("/dir1/f0"), name="measure")
    cluster.sim.run(until=done)
    cluster.sim.run()  # drain trailing protocol activity (ACKs, GC)

    roots = cluster.obs.spans.roots()
    if len(roots) != 1:
        raise RuntimeError(f"expected one transaction, saw {len(roots)}")
    root = roots[0]
    row = fold_span_costs(root, workers=workers)
    outcome = [o for o in cluster.outcomes if o.txn_id == root.txn_id][0]
    return MeasuredCosts(row=row, client_latency=outcome.client_latency, txn_id=root.txn_id)
