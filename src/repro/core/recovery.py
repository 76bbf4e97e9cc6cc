"""1PC worker-failure recovery: fence, then read the shared log.

The recovery replaces 2PC's voting phase with "a rich and highly
available source of information about every transaction running in the
cluster" (§V): the worker's log partition on the central storage.

The discipline (§III-A) is strict:

1. the coordinator cannot distinguish a crashed worker from a network
   partition, so it must *fence* the worker first (STONITH, switch
   fencing or a SCSI-3 persistent reservation);
2. only then may it mount and read the worker's partition;
3. a COMMITTED record for the transaction means the worker committed —
   the coordinator commits too;
4. no record means the worker never committed — the coordinator aborts.

Skipping step 1 recreates the split-brain hazard the paper describes;
:class:`repro.storage.SharedStorage` enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.storage.records import RecordKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mds.cluster import Cluster


@dataclass(frozen=True)
class WorkerProbeResult:
    """Outcome of reading a fenced worker's log for one transaction."""

    worker: str
    committed: bool


def probe_worker_log(cluster: "Cluster", requester: str, worker: str, txn_id: int) -> Generator:
    """Generator: fence ``worker`` and read its log to decide ``txn_id``.

    Returns a :class:`WorkerProbeResult`.  The fencing action is
    idempotent: probing an already-fenced worker skips straight to the
    read.
    """
    if not cluster.storage.fencing.is_fenced(worker):
        yield from cluster.fencing_driver.fence(requester, worker)
    records = yield from cluster.storage.read_remote_log(requester, worker)
    committed = any(
        r.txn_id == txn_id and r.kind in (RecordKind.COMMITTED, RecordKind.ENDED)
        for r in records
    )
    cluster.obs.annotate(
        "worker_probe", requester, worker=worker, txn=txn_id, committed=committed
    )
    return WorkerProbeResult(worker=worker, committed=committed)
