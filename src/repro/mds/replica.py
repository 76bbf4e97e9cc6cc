"""Backup replicas for the logless one-phase commit protocol.

The logless 1PC of Zhu et al. ("To Vote Before Decide") removes the
write-ahead log entirely: instead of forcing records to disk, every
metadata server synchronously replicates its transaction state to a
backup replica in an independent failure domain.  Durability becomes
"survives the primary's crash" rather than "survives on the primary's
disk" — after a reboot the primary refetches its state from the backup
instead of scanning a log.

A :class:`BackupReplica` is pure state — no namespace image, no locks,
no log.  Per transaction it holds whatever the primary replicated
(``begin`` / ``commit`` / ``aborted`` facets) plus a *seal* bit: once a
recovering coordinator has sealed a transaction at a worker's backup,
the worker can no longer replicate a commit for it — the seal is the
logless protocol's answer to the 2PC prepared-state contract.

Wire protocol:

* ``REPLICATE(facet, ...)`` -- merge a facet into the entry and reply
  ``REPLICATED``; replicating a ``begin``/``commit`` facet into a
  sealed transaction is refused with ``REPLICATE_REJECTED``.
* ``LGL_QUERY(seal)`` -- report whether a commit/abort facet exists,
  optionally sealing the transaction first (reply ``LGL_STATE``).
* ``LGL_FETCH`` -- full snapshot of the live entries (reply
  ``LGL_SNAPSHOT``); a rebooted primary recovers from this.
* ``LGL_GC`` -- the primary is done with the transaction; drop it.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Any

from repro.net.message import Message
from repro.protocols.base import MsgKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mds.cluster import Cluster


def backup_name(server: str) -> str:
    """The conventional backup-replica node name for ``server``."""
    return f"{server}.bak"


class BackupReplica:
    """A metadata server's synchronous replication target."""

    def __init__(self, cluster: "Cluster", primary: str):
        self.cluster = cluster
        self.sim = cluster.sim
        self.primary = primary
        self.name = backup_name(primary)
        self.params = cluster.params
        self.obs = cluster.obs
        self.endpoint = cluster.network.attach(self.name)
        #: txn_id -> replicated facets ("begin" / "commit" / "aborted").
        self.entries: dict[int, dict[str, Any]] = {}
        #: Transactions a recovering coordinator has sealed.
        self.sealed: set[int] = set()
        #: Transactions already garbage collected (late retransmissions
        #: of these are acknowledged without resurrecting the entry).
        self._finished: set[int] = set()
        self.endpoint.serve(self._handle, self.params.compute.msg_processing_latency)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _handle(self, msg: Message) -> None:
        if msg.kind == MsgKind.REPLICATE:
            self._replicate(msg)
        elif msg.kind == MsgKind.LGL_QUERY:
            self._query(msg)
        elif msg.kind == MsgKind.LGL_FETCH:
            self.endpoint.send_to(
                msg.src,
                MsgKind.LGL_SNAPSHOT,
                txn_id=msg.txn_id,
                entries=copy.deepcopy(self.entries),
            )
        elif msg.kind == MsgKind.LGL_GC:
            self.entries.pop(msg.txn_id, None)
            self.sealed.discard(msg.txn_id)
            self._finished.add(msg.txn_id)
        # Anything else is a stray retransmission; drop it.

    def _replicate(self, msg: Message) -> None:
        txn_id = msg.txn_id
        facet = msg.payload["facet"]
        if txn_id in self._finished:
            # Late retransmission of a finished transaction: the primary
            # already saw our ack once; just ack again.
            self.endpoint.send_to(
                msg.src, MsgKind.REPLICATED, txn_id=txn_id, facet=facet
            )
            return
        if txn_id in self.sealed and facet in ("begin", "commit"):
            # The prepared-state contract: a sealed transaction may only
            # move towards abort.
            self.endpoint.send_to(
                msg.src, MsgKind.REPLICATE_REJECTED, txn_id=txn_id, facet=facet
            )
            return
        entry = self.entries.setdefault(txn_id, {})
        entry[facet] = msg.payload.get("data", True)
        self.endpoint.send_to(msg.src, MsgKind.REPLICATED, txn_id=txn_id, facet=facet)

    def _query(self, msg: Message) -> None:
        txn_id = msg.txn_id
        if msg.payload.get("seal") and txn_id not in self._finished:
            self.sealed.add(txn_id)
        entry = self.entries.get(txn_id, {})
        self.endpoint.send_to(
            msg.src,
            MsgKind.LGL_STATE,
            txn_id=txn_id,
            has_commit=("commit" in entry) or (txn_id in self._finished),
            has_abort="aborted" in entry,
            known=bool(entry) or txn_id in self._finished,
        )
