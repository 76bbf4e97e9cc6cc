"""Paxos Commit acceptor nodes.

Paxos Commit (Gray & Lamport) replaces 2PC's single point of failure —
the coordinator's commit record — with one Paxos consensus instance per
participant, run over ``2F + 1`` acceptor processes.  A participant's
PREPARED vote is durable once a majority of acceptors have accepted it
into that participant's instance; the transaction commits when every
instance has a majority-accepted PREPARED ballot.

An :class:`AcceptorNode` is deliberately small: it is not a metadata
server (it holds no namespace state and takes no locks), it just
accepts ballots durably and reports them to the leader.

Wire protocol:

* ``PAXOS_VOTE(instance, vote, leader)`` -- a participant announces its
  vote for its own instance; the acceptor forces a BALLOT record and
  replies ``PAXOS_ACCEPTED(instance, vote)`` to the leader.  Duplicate
  votes (retransmissions, recovery re-announcements) are acknowledged
  from the already-durable ballot without a second log force.
* ``PAXOS_GC(txn_id)`` -- the leader releases the ballots of a finished
  transaction; the acceptor checkpoints its log.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.net.message import Message
from repro.protocols.base import MsgKind, Session
from repro.storage.records import LogRecord, RecordKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mds.cluster import Cluster


class AcceptorNode:
    """One of the 2F+1 Paxos Commit acceptor processes."""

    def __init__(self, cluster: "Cluster", name: str):
        self.cluster = cluster
        self.sim = cluster.sim
        self.name = name
        self.params = cluster.params
        self.obs = cluster.obs
        self.endpoint = cluster.network.attach(name)
        self.wal = cluster.storage.provision(name)
        self.crashed = False
        #: The ballot sessions running here; unlike a server's, they
        #: outlive a crash: the log decides what survives it.
        self._live: dict[Session, None] = {}
        self.endpoint.serve(self._handle, self.params.compute.msg_processing_latency)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _handle(self, msg: Message) -> None:
        if msg.kind == MsgKind.PAXOS_VOTE:
            ballot = _Ballot(self, msg.txn_id)
            ballot.start(ballot.begin, msg)
        elif msg.kind == MsgKind.PAXOS_GC:
            self.wal.checkpoint(msg.txn_id)
        # Anything else is a stray retransmission; drop it.

    def _has_ballot(self, txn_id: int, instance: str) -> bool:
        for record in self.wal.records_for(txn_id):
            if record.kind == RecordKind.BALLOT and record.payload.get("instance") == instance:
                return True
        return False

    def _ballot_rec(self, txn_id: int, instance: str, vote: str) -> LogRecord:
        return LogRecord(
            kind=RecordKind.BALLOT,
            txn_id=txn_id,
            size=self.params.storage.state_record_size,
            payload={"instance": instance, "vote": vote, "proto": "PC"},
        )

    # ------------------------------------------------------------------
    # Crash / restart (acceptors are the protocol's redundancy)
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Hard failure: ballots survive in the log, everything else dies."""
        if self.crashed:
            return
        self.crashed = True
        self.obs.node_crash(self.name)
        self.cluster.network.detach(self.name)
        self.wal.crash()

    def restart(self) -> None:
        """Reboot: durable ballots answer retransmitted votes."""
        if not self.crashed:
            raise RuntimeError(f"{self.name} is not crashed")
        self.crashed = False
        self.obs.node_restart(self.name)
        self.cluster.network.attach(self.name)
        self.wal.restart()


class _Ballot(Session):
    """Accept a ballot into ``instance``'s consensus slot durably, then
    acknowledge it from the log — idempotent under retransmits."""

    def begin(self, msg: Message) -> None:
        node, self.msg = self.p, msg
        instance = msg.payload["instance"]
        if node._has_ballot(msg.txn_id, instance):
            return self._accepted(None)
        vote = msg.payload.get("vote", MsgKind.PREPARED)
        self.wait(node.wal.force(node._ballot_rec(msg.txn_id, instance, vote)), self._accepted)

    def _accepted(self, flush: Any) -> None:
        if flush is not None and not flush._ok:
            raise flush._value  # the ballot never became durable
        msg = self.msg
        self.end()
        self.p.endpoint.send_to(
            msg.payload["leader"],
            MsgKind.PAXOS_ACCEPTED,
            txn_id=msg.txn_id,
            instance=msg.payload["instance"],
            vote=msg.payload.get("vote", MsgKind.PREPARED),
        )
