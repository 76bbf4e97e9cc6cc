"""Where does the time go?  Derived statistics from a simulation trace.

Folds a :class:`~repro.sim.TraceLog` into per-resource utilisation and
per-transaction time breakdowns:

* device busy fraction per disk (from ``disk_write``/``disk_read``
  service intervals);
* lock contention: distribution of lock-wait times per object;
* message counts and network-time totals per protocol kind;
* per-transaction phase breakdown (lock wait, log forces, messaging)
  reconstructed from the transaction's trace records.

Used by the ``utilization`` report artifact to explain *why* Figure 6
comes out the way it does — the coordinator's log device and the
directory lock are the two contended resources, and the protocols
differ exactly in how long they sit on each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim import TraceLog


@dataclass(frozen=True)
class DeviceUtilization:
    """Busy time of one device over an observation window."""

    device: str
    busy_time: float
    window: float
    operations: int
    bytes_moved: float

    @property
    def utilization(self) -> float:
        if self.window <= 0:
            return 0.0
        return min(1.0, self.busy_time / self.window)


def device_utilization(
    trace: TraceLog, window: Optional[float] = None
) -> dict[str, DeviceUtilization]:
    """Per-device busy statistics from ``disk_write``/``disk_read``.

    One pass over the trace.  A device's sums run over its writes, then
    its reads, each in trace order, and devices are listed writers
    first: float addition is not associative.  Disk records always
    carry ``device``, ``nbytes`` and ``service``.
    """
    writes: dict[str, list] = {}
    reads: dict[str, list] = {}
    latest = None
    for rec in trace.records:
        category = rec.category
        if category == "disk_write":
            per_device = writes
        elif category == "disk_read":
            per_device = reads
        else:
            continue
        if latest is None or rec.time > latest:
            latest = rec.time
        per_device.setdefault(rec.detail["device"], []).append(rec.detail)
    if latest is None:
        return {}
    end = window if window is not None else latest
    out: dict[str, DeviceUtilization] = {}
    for device in dict.fromkeys([*writes, *reads]):
        details = writes.get(device, []) + reads.get(device, [])
        out[device] = DeviceUtilization(
            device=device,
            busy_time=sum([d["service"] for d in details]),
            window=end,
            operations=len(details),
            bytes_moved=sum([d["nbytes"] for d in details]),
        )
    return out


@dataclass(frozen=True)
class LockContention:
    """Lock-wait statistics for one object."""

    obj: str
    waits: int
    grants: int
    total_wait: float
    max_wait: float

    @property
    def mean_wait(self) -> float:
        return self.total_wait / self.waits if self.waits else 0.0


def lock_contention(trace: TraceLog) -> dict[str, LockContention]:
    """Wait-time distribution per locked object.

    A wait interval runs from a ``lock_wait`` record to the matching
    ``lock_grant`` for the same (txn, obj); both always carry them.
    """
    waits: dict[tuple, float] = {}
    stats: dict[str, dict] = {}
    for rec in trace.records:
        category = rec.category
        if category == "lock_wait":
            detail = rec.detail
            waits[(detail["txn"], str(detail["obj"]))] = rec.time
        elif category == "lock_grant":
            detail = rec.detail
            obj = str(detail["obj"])
            entry = stats.setdefault(
                obj, {"waits": 0, "grants": 0, "total": 0.0, "max": 0.0}
            )
            entry["grants"] += 1
            key = (detail["txn"], obj)
            if key in waits:
                waited = rec.time - waits.pop(key)
                entry["waits"] += 1
                entry["total"] += waited
                entry["max"] = max(entry["max"], waited)
    return {
        obj: LockContention(
            obj=obj,
            waits=e["waits"],
            grants=e["grants"],
            total_wait=e["total"],
            max_wait=e["max"],
        )
        for obj, e in stats.items()
    }


@dataclass(frozen=True)
class MessageStats:
    """Counts and totals per message kind."""

    kind: str
    sent: int
    received: int
    dropped: int


def message_stats(trace: TraceLog) -> dict[str, MessageStats]:
    kinds: dict[str, dict[str, int]] = {}
    for rec in trace.records:
        if rec.category in ("msg_send", "msg_recv", "msg_drop"):
            kind = rec.get("kind", "?")
            entry = kinds.setdefault(kind, {"msg_send": 0, "msg_recv": 0, "msg_drop": 0})
            entry[rec.category] += 1
    return {
        kind: MessageStats(
            kind=kind,
            sent=e["msg_send"],
            received=e["msg_recv"],
            dropped=e["msg_drop"],
        )
        for kind, e in kinds.items()
    }


@dataclass(frozen=True)
class TxnBreakdown:
    """Phase breakdown of one transaction at its coordinator."""

    txn_id: int
    lock_wait: float
    log_force_wait: float
    total: float
    committed: bool

    @property
    def other(self) -> float:
        """Messaging, compute, queueing — whatever is not lock or log."""
        return max(0.0, self.total - self.lock_wait - self.log_force_wait)


def txn_breakdown(trace: TraceLog, txn_id: int) -> Optional[TxnBreakdown]:
    """Reconstruct where one transaction's wall time went."""
    records = [r for r in trace.records if r.get("txn") == txn_id]
    if not records:
        return None
    start = min(r.time for r in records)
    done = [r for r in records if r.category == "txn_done"]
    end = done[0].time if done else max(r.time for r in records)
    committed = bool(done[0].get("committed")) if done else False

    lock_wait = 0.0
    pending_waits: dict[str, float] = {}
    for rec in records:
        if rec.category == "lock_wait":
            pending_waits[str(rec.get("obj"))] = rec.time
        elif rec.category == "lock_grant":
            obj = str(rec.get("obj"))
            if obj in pending_waits:
                lock_wait += rec.time - pending_waits.pop(obj)

    # Forced-write wait: sum of (durable - append) for sync appends,
    # grouped per force call (same actor+append time).
    appends: dict[tuple, float] = {}
    force_wait = 0.0
    for rec in records:
        if rec.category == "log_append" and rec.get("sync"):
            appends.setdefault((rec.actor, rec.time), rec.time)
    durables: dict[tuple, float] = {}
    for rec in records:
        if rec.category == "log_durable" and rec.get("sync"):
            key = (rec.actor, rec.get("kind"))
            durables[key] = rec.time
    # Pair append groups with the completion of their last record.
    for (actor, t_append) in appends:
        completions = [
            r.time
            for r in records
            if r.category == "log_durable" and r.actor == actor and r.time >= t_append
        ]
        if completions:
            force_wait += min(completions) - t_append

    return TxnBreakdown(
        txn_id=txn_id,
        lock_wait=lock_wait,
        log_force_wait=force_wait,
        total=end - start,
        committed=committed,
    )
