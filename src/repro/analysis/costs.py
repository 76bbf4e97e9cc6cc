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
from operator import itemgetter

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
    for start, end in sorted(intervals, key=itemgetter(1, 0)):
        if start >= last_end:
            count += 1
            last_end = end
    return count


def fold_span_costs(root: Span, workers: int = 1) -> CostRow:
    """Fold one transaction's span tree into a Table I cost row.

    ``root`` is the coordinator span; its worker legs are traversed via
    the parent/child links, so every WAL force and protocol message of
    the transaction — on any node — is accounted.  One pass, in span
    order: nothing below depends on the order the records arrive in.
    """
    reply_time = None
    # Forced appends are one force() call each; group multi-record
    # forces by (actor, time) -> record kinds, lazy ones by (actor,
    # time) alone.  Durable completions are matched by (actor, record
    # kind, sync flag), the latest one wins.  ``log_append`` and
    # ``log_durable`` details always carry ``kind`` and ``sync``,
    # ``msg_send`` ones ``kind``.
    sync_groups: dict[tuple[str, float], list] = {}
    async_groups: dict[tuple[str, float], bool] = {}
    durables: dict[tuple[str, str, bool], float] = {}
    sends = []
    for event in root.iter_events():
        category = event.category
        if category == "log_append":
            detail = event.detail
            group = (event.actor, event.time)
            if not detail["sync"]:
                async_groups[group] = True
            elif group in sync_groups:
                sync_groups[group].append(detail["kind"])
            else:
                sync_groups[group] = [detail["kind"]]
        elif category == "log_durable":
            detail = event.detail
            key = (event.actor, detail["kind"], detail["sync"])
            if key not in durables or durables[key] < event.time:
                durables[key] = event.time
        elif category == "msg_send":
            if event.detail["kind"] in PROTOCOL_MSG_KINDS:
                sends.append(event.time)
        elif category == "client_reply":
            if reply_time is None or event.time < reply_time:
                reply_time = event.time
    if reply_time is None:
        raise ValueError(f"span of txn {root.txn_id} has no client_reply event")

    sync_total = len(sync_groups)
    async_total = len(async_groups)

    # A group is durable when its last record is; a record never made
    # durable keeps the group off the critical path.
    sync_intervals = []
    for (actor, start), kinds in sync_groups.items():
        end = float("-inf")
        for kind in kinds:
            key = (actor, kind, True)
            done = durables[key] if key in durables else float("inf")
            if done > end:
                end = done
        if end <= reply_time:
            sync_intervals.append((start, end))
    sync_critical = _disjoint_interval_count(sync_intervals)
    async_critical = len([t for (_a, t) in async_groups if t <= reply_time])

    msgs_total = len(sends) - BASE_MESSAGES * workers
    # Strictly before the reply: a COMMIT fired in the same instant as
    # the client reply is already off the critical path (PrC/EP reply
    # first, then forward the decision).
    msgs_critical = len([t for t in sends if t < reply_time]) - BASE_MESSAGES * workers

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
