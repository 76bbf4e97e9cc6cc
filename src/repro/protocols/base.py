"""The commit skeleton: everything two or more protocol engines share.

Each MDS owns one protocol engine instance (a subclass of
:class:`Protocol`).  The engine plays both roles:

* **coordinator** -- :meth:`Protocol.coordinate` runs as a process for
  every client request the server receives;
* **worker** -- :meth:`Protocol.worker_session` runs as a process for
  every remote transaction the server participates in; the server's
  dispatcher feeds it messages through a per-transaction inbox.

Recovery hooks: :meth:`Protocol.recover` runs once after reboot (by
default a log scan that hands each open transaction to the engine's
``_recover_coordinator`` or ``_recover_worker``);
:meth:`Protocol.handle_stray` deals with protocol messages for
transactions that have no live session (typically retransmissions
arriving after a crash or after checkpointing).

:class:`Protocol` owns every step of the choreography that more than
one engine performs -- lock/apply/refuse at a worker
(:meth:`~Protocol.execute_as_worker`), one reply per worker or abort
(:meth:`~Protocol.gather`), waiting against a deadline
(:meth:`~Protocol.recv_until`), the lazy ENDED that closes a log entry
(:meth:`~Protocol.finalize`), replaying logged updates
(:meth:`~Protocol.reapply`, :meth:`~Protocol.refold`), the one-phase
worker's ACK wait -- so an engine module reads as its *delta*: which
records it forces, whom it asks, what it presumes.  ``docs/protocols.md``
("The skeleton and the deltas") tabulates those deltas per protocol.

Recovery has no client to answer: the steps that reply
(:meth:`~Protocol.reply_to_client`, :meth:`~Protocol.outcome`) accept
``txn=None`` and do nothing, which lets a recovery path run the same
body as the client path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional, Sequence

from repro.fs.objects import ObjectId, Update, UpdateError, update_from_description
from repro.fs.operations import OpPlan, UnsupportedOperation
from repro.locks import LockMode, LockTimeout
from repro.net.message import Message
from repro.protocols.registry import ProtocolSpec, register_protocol, reject_fanout
from repro.sim import TIMED_OUT
from repro.storage.records import LogRecord, RecordKind

__all__ = [
    "ACKS",
    "ACK_WAIT_FACTOR",
    "DECISIONS",
    "SESSION_OPENERS",
    "UPDATE_REPLIES",
    "VOTES",
    "MsgKind",
    "Protocol",
    "ProtocolSpec",
    "Transaction",
    "TransactionAborted",
    "TxnOutcome",
    "immediately",
    "register_protocol",
]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import SimulationParams
    from repro.fs.store import MetadataStore
    from repro.locks.manager import LockManager
    from repro.mds.server import MDSServer
    from repro.obs.hub import Observability
    from repro.sim.events import Event
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
#: What a session waits for, by round (built once, not per receive).
UPDATE_REPLIES = frozenset({MsgKind.UPDATED, MsgKind.NOT_PREPARED})
VOTES = frozenset({MsgKind.PREPARED, MsgKind.NOT_PREPARED})
DECISIONS = frozenset({MsgKind.COMMIT, MsgKind.ABORT})
ACKS = frozenset({MsgKind.ACK})
_ACK_OR_DUPLICATE = frozenset({MsgKind.ACK, MsgKind.UPDATE_REQ})

#: How long a one-phase worker waits for the coordinator's ACK before
#: asking for a retransmission (and how long the coordinator waits out
#: a rebooting worker), in units of the protocol reply timeout.
ACK_WAIT_FACTOR = 5


def immediately(fn: Optional[Callable[..., Any]] = None, *args: Any) -> Generator:
    """A generator that takes no simulated time.

    Runs ``fn(*args)`` when driven and returns its result: for stray
    replies the server spawns as processes, and for overridden steps
    with nothing to wait for where the skeleton expects a generator.
    """
    return fn(*args) if fn is not None else None
    yield  # pragma: no cover - generator marker


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
    #: ``plan.workers`` itself, not a copy (see :class:`OpPlan`).
    workers: list[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.workers = self.plan.workers


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
    #: The plan the client submitted, itself: what the outcome decided
    #: (the oracle matches outcomes to plans by identity).
    plan: Optional[OpPlan] = field(default=None, compare=False, repr=False)

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
        # Plain attributes (``params`` alone is read twenty times per
        # transaction), fixed for the server's lifetime — except ``locks``,
        # which ``MDSServer.crash()`` rebinds to the new lock table.
        self.sim: "Simulator" = server.sim
        self.me: str = server.name
        self.wal: "WriteAheadLog" = server.wal
        self.store: "MetadataStore" = server.store
        self.params: "SimulationParams" = server.params
        self.obs: "Observability" = server.obs
        self.locks: "LockManager" = server.locks
        #: ``send(dst, kind, txn_id, **payload)``: the endpoint's own
        #: method, no wrapper frame.  ``Network.attach`` hands a restarted
        #: node the same endpoint, so the binding outlives crashes.
        self.send: Callable[..., Message] = server.endpoint.send_to
        #: The state records that have a size of their own.
        self._state_sizes = {
            RecordKind.STARTED: self.params.storage.start_record_size,
            RecordKind.ENDED: self.params.storage.end_record_size,
            RecordKind.REDO: self.params.storage.redo_record_size,
        }

    def claims_worker_message(self, msg: Message) -> bool:
        """Whether this engine speaks ``msg`` on the worker side.

        Servers running a primary + fallback engine pair route each
        sessionless protocol message to the primary only when it claims
        the message; engines whose wire format is distinguishable (1PC
        marks its UPDATE_REQ with ``commit=True``) override this so
        fallback traffic reaches the fallback engine.
        """
        return True

    # -- log-record construction ------------------------------------------------

    def state_rec(self, kind: RecordKind, txn_id: int, **payload: Any) -> LogRecord:
        size = self._state_sizes.get(kind, self.params.storage.state_record_size)
        payload["proto"] = self.name
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

    def check_fanout(self, txn: Transaction) -> None:
        """Refuse a transaction wider than ``max_workers`` (the server
        routes those to the fallback engine when one is configured)."""
        if self.max_workers is not None and len(txn.workers) > self.max_workers:
            raise UnsupportedOperation(
                reject_fanout(self.name, self.max_workers, len(txn.workers))
            )

    @staticmethod
    def lock_targets(updates: Iterable[Update]) -> list[ObjectId]:
        """Objects ``updates`` touch, deduplicated in first-use order."""
        seen: dict[ObjectId, None] = {}
        for update in updates:
            seen.setdefault(update.target())
        return list(seen)

    def lock_and_apply(
        self, txn_id: int, objects: Iterable[ObjectId], updates: Iterable[Update]
    ) -> Generator:
        """The growing phase of 2PL, then the cache updates: exclusive
        locks on ``objects`` in deterministic order, then ``updates``
        applied to the volatile cache, charging compute time.

        Raises :class:`TransactionAborted` on a lock timeout or an
        inconsistent update (e.g. EEXIST / ENOENT)."""
        for obj in objects:
            try:
                yield from self.locks.acquire(
                    txn_id, obj, LockMode.EXCLUSIVE, timeout=self.params.failure.lock_timeout
                )
            except LockTimeout:
                raise TransactionAborted(f"lock timeout on {obj}")
        for update in updates:
            yield self.sim.timeout(self.params.compute.write_latency)
            try:
                self.store.apply(txn_id, update)
            except UpdateError as exc:
                raise TransactionAborted(str(exc))

    def execute_as_worker(self, first: Message) -> Generator:
        """Worker side of the execution step: lock and apply the
        updates ``first`` shipped.

        Returns ``True`` with the locks held and the updates in the
        cache overlay.  On an injected vote failure, a lock timeout or
        an inconsistent update it rolls back, answers ``NOT_PREPARED``
        and returns ``False``.  A ``decided`` retransmission (1PC-N)
        carries an outcome that is already COMMIT: there is no vote
        left to refuse.
        """
        txn_id = first.txn_id
        updates = [update_from_description(d) for d in first.payload.get("updates", [])]
        try:
            if self.server.fail_next_vote and not first.payload.get("decided"):
                self.server.fail_next_vote = False
                raise TransactionAborted("injected vote failure")
            yield from self.lock_and_apply(txn_id, self.lock_targets(updates), updates)
        except TransactionAborted as aborted:
            self.store.abort(txn_id)
            self.locks.release_all(txn_id)
            self.send(first.src, MsgKind.NOT_PREPARED, txn_id, reason=aborted.reason)
            return False
        return True

    def reapply(self, txn_id: int, descs: Iterable[dict]) -> Generator:
        """Re-install logged or replicated updates into the cache."""
        for desc in descs:
            yield self.sim.timeout(self.params.compute.write_latency)
            self.store.apply(txn_id, update_from_description(desc))

    def refold(self, txn_id: int, descs: Iterable[dict]) -> Generator:
        """Fold a durably committed transaction's updates into the
        stable image unless they are already there (the crash hit
        between the durable commit and the fold)."""
        if not self.store.has_applied(txn_id):
            yield from self.reapply(txn_id, descs)
            self.store.commit_durable(txn_id)

    def ship_updates(self, worker: str, txn_id: int, plan: OpPlan, **flags: Any) -> None:
        """Send ``worker`` its share of ``plan`` in an UPDATE_REQ;
        ``flags`` mark the protocol's variant of the request on the
        wire (``prepare``, ``commit``, ``vote``, ``decided``)."""
        self.send(
            worker,
            MsgKind.UPDATE_REQ,
            txn_id,
            updates=[u.describe() for u in plan.updates[worker]],
            op=plan.op,
            **flags,
        )

    def recv(
        self,
        inbox: "Store",
        kinds: Optional[frozenset] = None,
        timeout: Optional[float] = None,
        from_: Optional[str] = None,
    ) -> "Event":
        """The getter of the next matching message from a session inbox,
        its deadline armed: ``msg = yield self.recv(inbox, kinds, t)``.

        It yields :data:`~repro.sim.TIMED_OUT` when ``timeout`` passes
        first (callers decide whether that aborts the transaction or
        triggers recovery).  A getter nobody yields still takes the
        session's next matching message.
        """

        def match(msg: Message) -> bool:
            if kinds is not None and msg.kind not in kinds:
                return False
            if from_ is not None and msg.src != from_:
                return False
            return True

        get = inbox.get(match)
        if timeout is not None:
            self.sim.expire(get, timeout)
        return get

    def recv_until(
        self,
        inbox: "Store",
        kinds: frozenset,
        deadline: float,
        at_most: Optional[float] = None,
    ) -> Generator:
        """Next message of ``kinds`` before the absolute time
        ``deadline``, waiting ``at_most`` seconds in one go;
        :data:`~repro.sim.TIMED_OUT` when that wait times out, and at
        once, with no kernel event, when the deadline has passed."""
        remaining = deadline - self.sim.now
        if remaining <= 0:
            return TIMED_OUT
        return (
            yield self.recv(
                inbox, kinds, timeout=remaining if at_most is None else min(at_most, remaining)
            )
        )

    def gather(
        self, inbox: "Store", pending: Iterable[str], kinds: frozenset, what: str, refusal: str
    ) -> Generator:
        """One reply of ``kinds`` from every ``pending`` sender.

        Raises :class:`TransactionAborted` when the reply timeout
        passes first (``what`` names what was awaited) or a sender
        answers ``NOT_PREPARED`` (``refusal`` says what that means in
        this round).
        """
        waiting = set(pending)
        while waiting:
            msg = yield self.recv(inbox, kinds, timeout=self.params.failure.reply_timeout)
            if msg is TIMED_OUT:
                raise TransactionAborted(f"timeout waiting for {what} from {sorted(waiting)}")
            if msg.kind == MsgKind.NOT_PREPARED or not msg.payload.get("ok", True):
                raise TransactionAborted(
                    f"worker {msg.src} {refusal}: "
                    f"{msg.payload.get('reason', 'no reason given')}"
                )
            waiting.discard(msg.src)

    def reply_to_client(
        self, txn: Optional[Transaction], committed: bool, reason: str = ""
    ) -> Optional[float]:
        """Send the CLIENT_REPLY; returns the (virtual) reply time.

        ``txn`` is ``None`` on recovery paths — the client's request
        died with the crash — and then nothing is sent."""
        if txn is None:
            return None
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
        if self.obs.enabled:
            self.obs.client_reply(self.me, txn.txn_id, committed=committed, op=txn.plan.op)
        return self.sim.now

    def outcome(
        self,
        txn: Optional[Transaction],
        committed: bool,
        replied_at: Optional[float],
        reason: str = "",
    ) -> Optional[TxnOutcome]:
        """Report the finished transaction to the trace and to the
        cluster's outcome record, and return it (nothing without a
        client)."""
        if txn is None or replied_at is None:
            return None
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
            plan=txn.plan,
        )
        if self.obs.enabled:
            self.obs.txn_done(
                self.me,
                txn.txn_id,
                committed=committed,
                op=txn.plan.op,
                latency=out.client_latency,
                replied_at=replied_at,
                reason=reason,
            )
        self.server.cluster.record_outcome(out)
        return out

    def finalize(self, txn_id: int) -> None:
        """Close the transaction's log entry: a lazy ENDED, garbage
        collected once the flush lands."""
        flush = self.wal.append_lazy(self.state_rec(RecordKind.ENDED, txn_id))
        # The first callback of the fresh event ``append_lazy`` hands out.
        flush._callbacks = [lambda ev: self.wal.checkpoint(txn_id) if ev._ok else None]

    # -- one-phase workers: the commit was the vote, only the ACK is left -------------

    def await_ack_and_finalize(self, txn_id: int, coordinator: str, inbox: "Store") -> Generator:
        """Wait for the coordinator's ACK, then :meth:`finalize`.

        §III-C: when the ACK does not come, ask once for it to be
        resent.  A duplicate commit-carrying UPDATE_REQ in the meantime
        means the coordinator crashed and is re-executing from its redo
        record: re-acknowledge with UPDATED (we already committed).
        """
        asked = False
        while True:
            msg = yield self.recv(
                inbox,
                _ACK_OR_DUPLICATE,
                timeout=self.params.failure.reply_timeout * ACK_WAIT_FACTOR,
            )
            if msg is TIMED_OUT:
                if asked:
                    self.obs.annotate("worker_unfinalized", self.me, txn=txn_id)
                    return
                self.send(coordinator, MsgKind.ACK_REQ, txn_id)
                asked = True
            elif msg.kind == MsgKind.UPDATE_REQ:
                self.send(msg.src, MsgKind.UPDATED, txn_id, ok=True)
            else:
                break
        self.finalize(txn_id)

    def reclaim_ack(self, txn_id: int, coordinator: str) -> Generator:
        """Recovered worker, commit durable (§III-C): "the worker asks
        the coordinator to resend the ACKNOWLEDGE message"."""
        inbox = self.server.open_session(txn_id)
        try:
            self.send(coordinator, MsgKind.ACK_REQ, txn_id)
            msg = yield self.recv(
                inbox, ACKS, timeout=self.params.failure.reply_timeout * ACK_WAIT_FACTOR
            )
            if msg is not TIMED_OUT:
                self.finalize(txn_id)
            self.obs.annotate("recovery", self.me, txn=txn_id, action="ack-requested")
        finally:
            self.server.close_session(txn_id)

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
            yield from self.lock_and_apply(txn_id, plan.locks(self.me), plan.updates[self.me])
        except TransactionAborted as aborted:
            return self.abort_local(txn, aborted.reason)
        yield self.wal.force(
            self.updates_rec(txn_id, self.store.updates_of(txn_id)),
            self.state_rec(RecordKind.COMMITTED, txn_id),
        )
        self.store.commit_durable(txn_id)
        self.locks.release_all(txn_id)
        replied_at = self.reply_to_client(txn, committed=True)
        self.wal.checkpoint(txn_id)
        return self.outcome(txn, committed=True, replied_at=replied_at)

    def abort_local(self, txn: Transaction, reason: str) -> Optional[TxnOutcome]:
        """Roll a single-MDS transaction back and tell the client."""
        self.store.abort(txn.txn_id)
        self.locks.release_all(txn.txn_id)
        replied_at = self.reply_to_client(txn, committed=False, reason=reason)
        return self.outcome(txn, committed=False, replied_at=replied_at, reason=reason)

    # -- interface to implement -------------------------------------------------------

    def coordinate(self, txn: Transaction) -> Generator:  # pragma: no cover - abstract
        """Run the transaction as coordinator; returns a TxnOutcome."""
        raise NotImplementedError

    def worker_session(self, first: Message, inbox: "Store") -> Generator:  # pragma: no cover
        """Participate in a remote transaction; ``first`` opened it."""
        raise NotImplementedError

    def _recover_coordinator(
        self, txn_id: int, state: Optional[RecordKind], records: Sequence[LogRecord]
    ) -> Generator:  # pragma: no cover - abstract
        """Resolve an open transaction this node coordinated."""
        raise NotImplementedError

    def _recover_worker(
        self, txn_id: int, state: Optional[RecordKind], records: Sequence[LogRecord]
    ) -> Generator:  # pragma: no cover - abstract
        """Resolve an open transaction this node was a worker of."""
        raise NotImplementedError

    # -- recovery -------------------------------------------------------------------------

    def recover(self) -> Generator:
        """Reboot-time log scan (§II-C, §III-C enumerate the cases).

        Every open transaction this engine tagged is resolved as its
        coordinator when its records include STARTED, as a worker
        otherwise.
        """
        for txn_id in self.wal.open_transactions():
            records = self.wal.records_for(txn_id)
            if not self.owns_txn(records):
                continue
            state = self.wal.last_state(txn_id)
            if any(r.kind == RecordKind.STARTED for r in records):
                yield from self._recover_coordinator(txn_id, state, records)
            else:
                yield from self._recover_worker(txn_id, state, records)

    @staticmethod
    def logged_updates(records: Iterable[LogRecord]) -> list[dict]:
        """Update descriptions of a transaction's UPDATES records."""
        return [
            desc
            for record in records
            if record.kind == RecordKind.UPDATES
            for desc in record.payload.get("updates", [])
        ]

    @staticmethod
    def coordinator_from(records: Iterable[LogRecord]) -> Optional[str]:
        """The coordinator a worker's records name, if any."""
        for record in records:
            if "coordinator" in record.payload:
                return record.payload["coordinator"]
        return None

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
            return immediately(self.wal.checkpoint, msg.txn_id)
        if msg.kind == MsgKind.DECISION_REQ:
            return immediately(self._answer_decision_req, msg)
        return None

    def _stray_reply(self, msg: Message, kind: str) -> Generator:
        return immediately(self.send, msg.src, kind, msg.txn_id)

    def _answer_decision_req(self, msg: Message) -> None:
        """Coordinator-side: a restarted worker asks for the outcome."""
        state = self.wal.last_state(msg.txn_id)
        if state in (RecordKind.COMMITTED, RecordKind.ENDED):
            self.send(msg.src, MsgKind.COMMIT, msg.txn_id)
        elif state == RecordKind.ABORTED:
            self.send(msg.src, MsgKind.ABORT, msg.txn_id)
        elif state is None:
            # Log already checkpointed: apply the protocol's
            # presumption.
            self.send(msg.src, self.presumed_decision(), msg.txn_id)
        # STARTED / PREPARED: no decision yet; the coordinator's own
        # recovery or timeout path will drive the outcome.  Aborting
        # the worker is not known to be safe, so stay silent and let it
        # retry.

    def presumed_decision(self) -> str:
        """Decision implied by an absent coordinator log entry."""
        return MsgKind.COMMIT
