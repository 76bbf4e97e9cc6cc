"""Where does the time go?  Derived statistics from a simulation trace.

Folds a :class:`~repro.sim.TraceLog` into per-resource statistics:

* device busy fraction per disk (from ``disk_write``/``disk_read``
  service intervals);
* lock contention: distribution of lock-wait times per object.

Where one transaction's latency went (lock wait, forced writes,
network) is the hub's attribute-mode fold,
:meth:`repro.obs.Observability.attribution`, not a rescan of the trace.

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
