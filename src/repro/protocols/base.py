"""Shared machinery for atomic commitment protocols.

Each MDS owns one protocol engine instance (a subclass of
:class:`Protocol`).  The engine plays both roles:

* **coordinator** -- :meth:`Protocol.coordinate` runs as a process for
  every client request the server receives;
* **worker** -- :meth:`Protocol.worker_session` runs as a process for
  every remote transaction the server participates in; the server's
  dispatcher feeds it messages through a per-transaction inbox.

Recovery hooks: :meth:`Protocol.recover` runs once after reboot;
:meth:`Protocol.handle_stray` deals with protocol messages for
transactions that have no live session (typically retransmissions
arriving after a crash or after checkpointing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Iterable, Optional, Sequence

from repro.fs.objects import ObjectId, Update, update_from_description
from repro.fs.operations import OpPlan
from repro.locks import LockMode, LockTimeout
from repro.net.message import Message
from repro.protocols.registry import ProtocolSpec, register_protocol
from repro.sim import AnyOf
from repro.storage.records import LogRecord, RecordKind

__all__ = [
    "SESSION_OPENERS",
    "MsgKind",
    "Protocol",
    "ProtocolSpec",
    "Transaction",
    "TransactionAborted",
    "TxnOutcome",
    "register_protocol",
]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import SimulationParams
    from repro.fs.store import MetadataStore
    from repro.locks.manager import LockManager
    from repro.mds.server import MDSServer
    from repro.obs.hub import Observability
    from repro.sim.kernel import Simulator
    from repro.sim.resources import Store
    from repro.storage.wal import WriteAheadLog


class MsgKind:
    """Protocol message kinds (wire-level constants)."""

    CLIENT_REQUEST = "CLIENT_REQUEST"
    CLIENT_REPLY = "CLIENT_REPLY"
    #: Metadata read (lookup/stat): served locally under a shared lock.
    STAT_REQUEST = "STAT_REQUEST"
    STAT_REPLY = "STAT_REPLY"
    UPDATE_REQ = "UPDATE_REQ"
    UPDATED = "UPDATED"
    PREPARE = "PREPARE"
    PREPARED = "PREPARED"
    NOT_PREPARED = "NOT_PREPARED"
    COMMIT = "COMMIT"
    ABORT = "ABORT"
    ACK = "ACK"
    #: Recovery: a restarted worker asks the coordinator for the outcome.
    DECISION_REQ = "DECISION_REQ"
    #: Recovery (1PC): a restarted worker asks for the ACK to be resent.
    ACK_REQ = "ACK_REQ"
    HEARTBEAT = "HEARTBEAT"
    #: Paxos Commit: a participant announces its prepared vote to the
    #: acceptors; an acceptor reports the accepted ballot to the leader.
    PAXOS_VOTE = "PAXOS_VOTE"
    PAXOS_ACCEPTED = "PAXOS_ACCEPTED"
    #: Paxos Commit housekeeping: the leader releases the acceptors'
    #: ballot records once the outcome is fully acknowledged.
    PAXOS_GC = "PAXOS_GC"
    #: Logless 1PC: synchronous replication to a backup replica (the
    #: logless substitute for a WAL force) and its acknowledgement.
    REPLICATE = "REPLICATE"
    REPLICATED = "REPLICATED"
    #: Logless 1PC: the backup refused a replication for a sealed txn.
    REPLICATE_REJECTED = "REPLICATE_REJECTED"
    #: Logless 1PC recovery: seal-and-query a peer's backup state,
    #: fetch a full snapshot after reboot, release entries when done.
    LGL_QUERY = "LGL_QUERY"
    LGL_STATE = "LGL_STATE"
    LGL_FETCH = "LGL_FETCH"
    LGL_SNAPSHOT = "LGL_SNAPSHOT"
    LGL_GC = "LGL_GC"


#: Message kinds that may open a new worker session.
SESSION_OPENERS = frozenset({MsgKind.UPDATE_REQ, MsgKind.PREPARE})


class TransactionAborted(Exception):
    """Internal control-flow signal: the transaction must be aborted."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class Transaction:
    """A distributed namespace operation in flight at its coordinator."""

    txn_id: int
    plan: OpPlan
    client: str
    submitted_at: float
    #: Client-side request id, echoed in the CLIENT_REPLY.
    req_id: Optional[int] = None

    @property
    def workers(self) -> list[str]:
        return self.plan.workers


@dataclass(frozen=True)
class TxnOutcome:
    """What the coordinator reports when a transaction finishes."""

    txn_id: int
    op: str
    path: str
    committed: bool
    submitted_at: float
    replied_at: float
    finished_at: float
    coordinator: str
    reason: str = ""

    @property
    def client_latency(self) -> float:
        return self.replied_at - self.submitted_at


class Protocol:
    """Base class with the machinery every protocol engine shares."""

    #: Registry name ("PrN", "PrC", "EP", "1PC", ...).
    name = ""
    #: Maximum number of workers the protocol supports (None = any).
    max_workers: Optional[int] = None

    def __init__(self, server: "MDSServer") -> None:
        self.server = server

    def claims_worker_message(self, msg: Message) -> bool:
        """Whether this engine speaks ``msg`` on the worker side.

        Servers running a primary + fallback engine pair route each
        sessionless protocol message to the primary only when it claims
        the message; engines whose wire format is distinguishable (1PC
        marks its UPDATE_REQ with ``commit=True``) override this so
        fallback traffic reaches the fallback engine.
        """
        return True

    # -- convenience accessors ------------------------------------------------

    @property
    def sim(self) -> "Simulator":
        return self.server.sim

    @property
    def me(self) -> str:
        return self.server.name

    @property
    def wal(self) -> "WriteAheadLog":
        return self.server.wal

    @property
    def locks(self) -> "LockManager":
        return self.server.locks

    @property
    def store(self) -> "MetadataStore":
        return self.server.store

    @property
    def params(self) -> "SimulationParams":
        return self.server.params

    @property
    def obs(self) -> "Observability":
        return self.server.obs

    # -- log-record construction ------------------------------------------------

    def state_rec(self, kind: RecordKind, txn_id: int, **payload: Any) -> LogRecord:
        sizes = {
            RecordKind.STARTED: self.params.storage.start_record_size,
            RecordKind.ENDED: self.params.storage.end_record_size,
            RecordKind.REDO: self.params.storage.redo_record_size,
        }
        size = sizes.get(kind, self.params.storage.state_record_size)
        payload.setdefault("proto", self.name)
        return LogRecord(kind=kind, txn_id=txn_id, size=size, payload=payload)

    def updates_rec(self, txn_id: int, updates: Iterable[Update]) -> LogRecord:
        updates = list(updates)
        return LogRecord(
            kind=RecordKind.UPDATES,
            txn_id=txn_id,
            size=self.params.storage.update_record_size * max(1, len(updates)),
            payload={"updates": [u.describe() for u in updates], "proto": self.name},
        )

    def redo_rec(self, txn_id: int, plan: OpPlan) -> LogRecord:
        return LogRecord(
            kind=RecordKind.REDO,
            txn_id=txn_id,
            size=self.params.storage.redo_record_size,
            payload={"plan": plan.describe(), "proto": self.name},
        )

    def owns_txn(self, records: Sequence[LogRecord]) -> bool:
        """Whether this engine wrote the transaction's log records.

        A server may run two engines (primary + fallback); each only
        recovers the transactions it tagged.
        """
        for record in records:
            proto = record.payload.get("proto")
            if proto is not None:
                return proto == self.name
        return True

    # -- execution helpers ----------------------------------------------------------

    def lock_all(self, txn_id: int, objects: Iterable[ObjectId]) -> Generator:
        """Acquire exclusive locks in deterministic order (2PL growing
        phase).  Raises :class:`TransactionAborted` on lock timeout."""
        for obj in objects:
            try:
                yield from self.locks.acquire(
                    txn_id, obj, LockMode.EXCLUSIVE, timeout=self.params.failure.lock_timeout
                )
            except LockTimeout:
                raise TransactionAborted(f"lock timeout on {obj}")

    def apply_updates(self, txn_id: int, updates: Iterable[Update]) -> Generator:
        """Apply ``updates`` to the volatile cache, charging compute time.

        Raises :class:`TransactionAborted` when an update is
        inconsistent (e.g. EEXIST / ENOENT)."""
        from repro.fs.objects import UpdateError

        for update in updates:
            yield self.sim.timeout(self.params.compute.write_latency)
            try:
                self.store.apply(txn_id, update)
            except UpdateError as exc:
                raise TransactionAborted(str(exc))

    def send(self, dst: str, kind: str, txn_id: int, **payload: Any) -> None:
        self.server.endpoint.send_to(dst, kind, txn_id=txn_id, **payload)

    def recv(
        self,
        inbox: "Store",
        kinds: Optional[frozenset] = None,
        timeout: Optional[float] = None,
        from_: Optional[str] = None,
    ) -> Generator:
        """Generator: next matching message from a session inbox.

        Returns ``None`` on timeout (callers decide whether that aborts
        the transaction or triggers recovery).
        """

        def match(msg: Message) -> bool:
            if kinds is not None and msg.kind not in kinds:
                return False
            if from_ is not None and msg.src != from_:
                return False
            return True

        get = inbox.get(match)
        if timeout is None:
            return (yield get)
        deadline = self.sim.timeout(timeout)
        yield AnyOf(self.sim, [get, deadline])
        if get.triggered:
            return get.value
        get.succeed(None)  # withdraw
        return None

    def reply_to_client(self, txn: Transaction, committed: bool, reason: str = "") -> float:
        """Send the CLIENT_REPLY; returns the (virtual) reply time."""
        self.send(
            txn.client,
            MsgKind.CLIENT_REPLY,
            txn.txn_id,
            committed=committed,
            op=txn.plan.op,
            path=txn.plan.path,
            reason=reason,
            req_id=txn.req_id,
        )
        self.obs.client_reply(self.me, txn.txn_id, committed=committed, op=txn.plan.op)
        return self.sim.now

    def decode_updates(self, payload: dict) -> list[Update]:
        return [update_from_description(d) for d in payload.get("updates", [])]

    def outcome(
        self,
        txn: Transaction,
        committed: bool,
        replied_at: float,
        reason: str = "",
    ) -> TxnOutcome:
        out = TxnOutcome(
            txn_id=txn.txn_id,
            op=txn.plan.op,
            path=txn.plan.path,
            committed=committed,
            submitted_at=txn.submitted_at,
            replied_at=replied_at,
            finished_at=self.sim.now,
            coordinator=self.me,
            reason=reason,
        )
        self.obs.txn_done(
            self.me,
            txn.txn_id,
            committed=committed,
            op=txn.plan.op,
            latency=out.client_latency,
            replied_at=replied_at,
            reason=reason,
        )
        return out

    # -- local (single-MDS) transactions ----------------------------------------------

    def run_local(self, txn: Transaction) -> Generator:
        """Commit a transaction whose every update is local.

        No atomic commitment protocol is needed when only one MDS is
        involved (the paper's ACPs exist for *distributed* namespace
        operations): lock, apply, force one UPDATES+COMMITTED record,
        reply.  Shared by every protocol, so placement-locality
        comparisons measure the protocols only where they actually
        differ.
        """
        txn_id, plan = txn.txn_id, txn.plan
        try:
            yield from self.lock_all(txn_id, plan.locks(self.me))
            yield from self.apply_updates(txn_id, plan.updates[self.me])
        except TransactionAborted as aborted:
            self.store.abort(txn_id)
            self.locks.release_all(txn_id)
            replied_at = self.reply_to_client(txn, committed=False, reason=aborted.reason)
            return self.outcome(txn, committed=False, replied_at=replied_at, reason=aborted.reason)
        yield from self.wal.force(
            self.updates_rec(txn_id, self.store.updates_of(txn_id)),
            self.state_rec(RecordKind.COMMITTED, txn_id),
        )
        self.store.commit_durable(txn_id)
        self.locks.release_all(txn_id)
        replied_at = self.reply_to_client(txn, committed=True)
        self.wal.checkpoint(txn_id)
        return self.outcome(txn, committed=True, replied_at=replied_at)

    # -- interface to implement -------------------------------------------------------

    def coordinate(self, txn: Transaction) -> Generator:  # pragma: no cover - abstract
        """Run the transaction as coordinator; returns a TxnOutcome."""
        raise NotImplementedError

    def worker_session(self, first: Message, inbox: "Store") -> Generator:  # pragma: no cover
        """Participate in a remote transaction; ``first`` opened it."""
        raise NotImplementedError

    def recover(self) -> Generator:  # pragma: no cover - abstract
        """Reboot-time recovery from the local log."""
        raise NotImplementedError

    def handle_stray(self, msg: Message) -> Optional[Generator]:
        """React to a protocol message with no live session.

        Returns a generator to run, or ``None`` to ignore the message.
        The default handles the cases common to the 2PC family (§II-C
        "no entry in the log"); subclasses extend it.
        """
        if msg.kind == MsgKind.PREPARE:
            # Rebooted before preparing: vote no.
            return self._stray_reply(msg, MsgKind.NOT_PREPARED)
        if msg.kind == MsgKind.COMMIT:
            # Already committed and checkpointed; the coordinator just
            # never saw the ACK.
            return self._stray_reply(msg, MsgKind.ACK)
        if msg.kind == MsgKind.ABORT:
            return self._stray_reply(msg, MsgKind.ACK)
        if msg.kind == MsgKind.ACK and self.wal.last_state(msg.txn_id) == RecordKind.ABORTED:
            # A worker finally acknowledged an abort whose session is
            # long gone: the abort information may now be forgotten.
            def gc() -> Generator:
                self.wal.checkpoint(msg.txn_id)
                return None
                yield  # pragma: no cover - generator marker

            return gc()
        if msg.kind == MsgKind.DECISION_REQ:
            return self._answer_decision_req(msg)
        return None

    def _stray_reply(self, msg: Message, kind: str) -> Generator:
        def responder() -> Generator:
            self.send(msg.src, kind, msg.txn_id)
            return None
            yield  # pragma: no cover - makes this a generator

        return responder()

    def _answer_decision_req(self, msg: Message) -> Generator:
        """Coordinator-side: a restarted worker asks for the outcome."""

        def responder() -> Generator:
            state = self.wal.last_state(msg.txn_id)
            if state in (RecordKind.COMMITTED, RecordKind.ENDED):
                self.send(msg.src, MsgKind.COMMIT, msg.txn_id)
            elif state == RecordKind.ABORTED:
                self.send(msg.src, MsgKind.ABORT, msg.txn_id)
            elif state is None:
                # Log already checkpointed: apply the protocol's
                # presumption.
                self.send(msg.src, self.presumed_decision(), msg.txn_id)
            else:
                # STARTED / PREPARED: no decision yet; the coordinator's
                # own recovery or timeout path will drive the outcome.
                # Tell the worker to abort only if we know it is safe —
                # we don't, so stay silent and let it retry.
                pass
            return None
            yield  # pragma: no cover - makes this a generator

        return responder()

    def presumed_decision(self) -> str:
        """Decision implied by an absent coordinator log entry."""
        return MsgKind.COMMIT
