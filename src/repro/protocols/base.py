"""The commit skeleton: everything two or more protocol engines share.

Each MDS owns one protocol engine instance (a subclass of
:class:`Protocol`).  The engine plays both roles:

* **coordinator** -- :meth:`Protocol.coordinate` starts a session for
  every client request the server receives;
* **worker** -- :meth:`Protocol.worker_session` starts a session for
  every remote transaction the server participates in; the server's
  dispatcher feeds it messages through a per-transaction inbox.

Recovery hooks: :meth:`Protocol.recover` runs once after reboot (by
default a log scan that hands each open transaction to the engine's
``_recover_coordinator`` or ``_recover_worker``);
:meth:`Protocol.handle_stray` answers protocol messages for
transactions that have no live session (retransmissions arriving
after a crash or after checkpointing).

Every leg is a :class:`Session`: its fields hold the leg's state, a
*step* is a method holding the code between two waits, and
:meth:`Session.wait` is the only wait.  A session pushes the heap
entries a kernel process would, at the same points — a zero-delay timer
to start from, one relay per wait on an event already processed — but
no completion entry when it ends, so the event order, and every trace,
is the process model's; the storage and fencing generators (fence,
remote log read) are driven inline.  The steps two
or more engines run live here -- lock/apply/refuse at a worker
(:meth:`Worker.execute`), one reply per worker or abort
(:meth:`~Session.gather`), waiting against a deadline, replaying logged
updates, the one-phase worker's ACK wait -- so an engine module reads
as its *delta*: which records it forces, whom it asks, what it
presumes (``docs/protocols.md``, "The skeleton and the deltas").

Recovery has no client to answer: the steps that reply
(:meth:`~Protocol.reply_to_client`, :meth:`~Protocol.outcome`) accept
``txn=None`` and do nothing, which lets a recovery path run the same
steps as the client path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import GeneratorType, SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional, Sequence

from repro.fs.objects import ObjectId, Update, UpdateError, update_from_description
from repro.fs.operations import OpPlan, UnsupportedOperation
from repro.locks import LockMode
from repro.net.message import Message
from repro.protocols.registry import ProtocolSpec, register_protocol
from repro.sim import TIMED_OUT
from repro.sim.events import PROCESSED
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
    "Session",
    "Transaction",
    "TxnOutcome",
    "Worker",
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

#: A step: called with the event it waited for (or the value a
#: sub-sequence hands on).
Step = Callable[[Any], None]


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


#: What a step gets for a deadline already passed: no kernel event.
_EXPIRED = SimpleNamespace(_ok=True, _value=TIMED_OUT)


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


class Session:
    """One protocol leg at one server, run by the step interpreter.

    Live sessions are tracked by their server, whose ``crash()`` kills
    them.  A stored continuation (``_next``, ``_then``, a sub-sequence's
    own) is a bound method of the session, so it is cleared when used:
    left behind, it is a reference cycle only the collector breaks.  A
    refusal (lock timeout, inconsistent update, refused or missing
    reply) goes to the subclass's ``abort(reason)``.
    """

    #: The event waited on (what :meth:`kill` detaches from), the step a
    #: zero-delay relay runs, a generator driven inline and the step its
    #: value goes to, the parent's step once this session ends.
    _on = _next = _gen = _then = _done = None
    inbox: Optional["Store"] = None
    #: The transaction a coordinator answers (``None`` on recovery).
    txn: Optional[Transaction] = None
    #: The clean-up, beyond closing the inbox, that ending and being
    #: killed both run, if any.
    close: Optional[Callable[[], None]] = None

    def __init__(self, engine: "Protocol", txn_id: Optional[int] = None) -> None:
        self.p, self.sim, self.txn_id = engine, engine.sim, txn_id
        engine._live[self] = None

    def start(self, step: Step, value: Any = None) -> "Session":
        """Run ``step(value)`` from a zero-delay timer."""
        self._next = step
        self.sim.after(0.0, self._relay, value)
        return self

    def wait(self, event: Any, step: Step) -> None:
        """Call ``step(event)`` once ``event`` is processed (at once for
        ``None``); a generator is driven inline, ``step`` getting its
        return value.  A failed event reaches the step as it is: a step
        that handles it marks it ``defused``, else the kernel raises it."""
        if event is None:
            return step(None)
        if event.__class__ is GeneratorType:
            self._gen, self._then = event, step
            return self._drive(None)
        if event._state == PROCESSED:
            self._next = step
            self.sim.after(0.0, self._relay, event)
            return
        callbacks = event._callbacks
        if callbacks is None:
            event._callbacks = [step]
        else:
            callbacks.append(step)
        self._on = event

    def _relay(self, event: Any) -> None:
        step = self._next
        if step is not None:  # else killed since the timer was pushed
            self._next = None
            step(event)

    def _drive(self, event: Optional["Event"]) -> None:
        gen = self._gen
        try:
            if event is None or event._ok:
                target = gen.send(None if event is None else event._value)
            else:
                event.defused = True
                target = gen.throw(event._value)
        except StopIteration as stop:
            then, self._then, self._gen = self._then, None, None
            return then(stop.value)
        self.wait(target, self._drive)

    def end(self, value: Any = None) -> None:
        """The leg is over: leave the live set, close the inbox and run
        :attr:`close`, then hand ``value`` to the parent's step if any."""
        try:
            del self.p._live[self]
        except KeyError:  # started by a crash's own clean-up: untracked
            pass
        if self.inbox is not None:
            self.p.server.close_session(self.txn_id)
        if self.close is not None:
            self.close()
        done = self._done
        if done is not None:
            self._done = None
            done(value)

    def kill(self) -> None:
        """Crash: detach from the event, close the generator driven, the
        inbox and :attr:`close`, and drop every field — continuations
        included — so that no step runs again."""
        callbacks = self._on._callbacks if self._on is not None else None
        if callbacks:
            callbacks[:] = [cb for cb in callbacks if getattr(cb, "__self__", None) is not self]
        if self._gen is not None:
            self._gen.close()
        if self.inbox is not None:
            self.p.server.close_session(self.txn_id)
        if self.close is not None:
            self.close()
        vars(self).clear()

    # -- shared sub-sequences -------------------------------------------------------

    def _refuse(self, reason: str) -> None:
        self._then = None
        self.abort(reason)

    def lock_and_apply(self, objects: list[ObjectId], updates: list[Update], then: Step) -> None:
        """The growing phase of 2PL, then the cache updates: exclusive
        locks on ``objects`` in order, then ``updates`` applied to the
        volatile cache at compute cost; ``then(None)``.  A lock timeout
        or an inconsistent update (EEXIST / ENOENT) is a refusal."""
        self._then, self._objects, self._updates, self._k = then, objects, updates, 0
        self._locked(None)

    def _locked(self, grant: Optional["Event"]) -> None:
        p, k = self.p, self._k
        if grant is not None and grant._value is TIMED_OUT:
            obj = self._objects[k - 1]
            p.locks.withdraw(grant, obj)
            return self._refuse(f"lock timeout on {obj}")
        for obj in self._objects[k:]:
            k += 1
            timeout = p.params.failure.lock_timeout
            grant = p.locks.request(self.txn_id, obj, LockMode.EXCLUSIVE, timeout)
            if grant is not None:
                self._k = k
                return self.wait(grant, self._locked)
        self._k = 0
        self._applied(None)

    def _applied(self, ev: Optional["Event"]) -> None:
        p, k = self.p, self._k
        if ev is not None:  # the write latency of update k has passed
            try:
                p.store.apply(self.txn_id, self._updates[k])
            except UpdateError as exc:
                return self._refuse(str(exc))
            self._k = k = k + 1
        for _update in self._updates[k:]:
            return self.wait(p.sim.timeout(p.params.compute.write_latency), self._applied)
        then, self._then = self._then, None
        then(None)

    def gather(self, pending: Iterable[str], kinds: frozenset, what: str, no: str, then: Step):
        """One reply of ``kinds`` from every ``pending`` sender, then
        ``then(None)``; the reply timeout (``what`` was awaited) or a
        ``NOT_PREPARED`` (``no`` says what it means here) is a refusal."""
        self._waiting, self._round = set(pending), (kinds, what, no)
        if not self._waiting:
            return then(None)
        self._then = then
        timeout = self.p.params.failure.reply_timeout
        self.wait(self.p.recv(self.inbox, kinds, timeout=timeout), self._gathered)

    def _gathered(self, ev: "Event") -> None:
        p, msg = self.p, ev._value
        kinds, what, no = self._round
        if msg is TIMED_OUT:
            return self._refuse(f"timeout waiting for {what} from {sorted(self._waiting)}")
        if msg.kind == MsgKind.NOT_PREPARED or not msg.payload.get("ok", True):
            reason = msg.payload.get("reason", "no reason given")
            return self._refuse(f"worker {msg.src} {no}: {reason}")
        self._waiting.discard(msg.src)
        if self._waiting:
            timeout = p.params.failure.reply_timeout
            return self.wait(p.recv(self.inbox, kinds, timeout=timeout), self._gathered)
        then, self._then = self._then, None
        then(None)

    def recv_until(self, kinds: frozenset, deadline: float, step: Step, at_most: float = 0.0):
        """``step`` gets the next message of ``kinds`` before the absolute
        ``deadline``, waiting at most ``at_most`` (if set) in one go;
        ``TIMED_OUT`` at once, with no kernel event, once it has passed."""
        remaining = deadline - self.sim.now
        if remaining <= 0:
            return step(_EXPIRED)
        timeout = min(at_most, remaining) if at_most else remaining
        self.wait(self.p.recv(self.inbox, kinds, timeout=timeout), step)

    def reapply(self, descs: Iterable[dict], then: Step, fold: bool = False) -> None:
        """Re-install logged or replicated updates into the cache unless
        the stable image has them, then ``then(None)``; ``fold`` folds
        them into it too (the crash hit between durable commit and fold)."""
        if self.p.store.has_applied(self.txn_id):
            return then(None)
        self._then, self._todo, self._fold = then, iter(descs), fold
        self._reapplied(None)

    def _reapplied(self, ev: Optional["Event"]) -> None:
        p = self.p
        if ev is not None:
            p.store.apply(self.txn_id, update_from_description(self._desc))
        for self._desc in self._todo:
            return self.wait(p.sim.timeout(p.params.compute.write_latency), self._reapplied)
        if self._fold:
            p.store.commit_durable(self.txn_id)
        then, self._then = self._then, None
        then(None)

    def reclaim_ack(self, coordinator: str) -> None:
        """Recovered worker, commit durable (§III-C): "the worker asks
        the coordinator to resend the ACKNOWLEDGE message"; then end."""
        p = self.p
        self.inbox = p.server.open_session(self.txn_id)
        p.send(coordinator, MsgKind.ACK_REQ, self.txn_id)
        timeout = p.params.failure.reply_timeout * ACK_WAIT_FACTOR
        self.wait(p.recv(self.inbox, ACKS, timeout=timeout), self._reclaimed)

    def _reclaimed(self, ev: "Event") -> None:
        p = self.p
        if ev._value is not TIMED_OUT:
            p.finalize(self.txn_id)
        p.obs.annotate("recovery", p.me, txn=self.txn_id, action="ack-requested")
        self.end()


class Worker(Session):
    """A worker leg of ``coordinator``'s transaction: from ``begin`` with
    the message that opened ``inbox``, or from recovery or a stray."""

    _ack_asked = False

    def __init__(self, engine: "Protocol", txn_id: int, coordinator: Optional[str], inbox=None):
        super().__init__(engine, txn_id)
        self.coordinator, self.inbox = coordinator, inbox

    def execute(self, first: Message, then: Step) -> None:
        """Lock and apply the updates ``first`` shipped; ``then(None)``
        with the locks held.  An injected vote failure or a refusal rolls
        back, answers ``NOT_PREPARED`` and ends the leg — unless
        ``first`` is ``decided`` (1PC-N): no vote is left to refuse."""
        p = self.p
        updates = [update_from_description(d) for d in first.payload.get("updates", [])]
        if p.server.fail_next_vote and not first.payload.get("decided"):
            p.server.fail_next_vote = False
            return self.abort("injected vote failure")
        self.lock_and_apply(p.lock_targets(updates), updates, then)

    def abort(self, reason: str) -> None:
        p, txn_id = self.p, self.txn_id
        p.store.abort(txn_id)
        p.locks.release_all(txn_id)
        p.send(self.coordinator, MsgKind.NOT_PREPARED, txn_id, reason=reason)
        self.end()

    def vote(self) -> None:
        """One-phase worker, commit durable — it *is* the vote: report it
        (UPDATED), wait for the ACK, finalize.  §III-C: an ACK that does
        not come is asked for once; a duplicate commit-carrying
        UPDATE_REQ meanwhile (the coordinator re-executes its redo
        record) is re-acknowledged with UPDATED."""
        self.p.send(self.coordinator, MsgKind.UPDATED, self.txn_id, ok=True)
        self.await_ack()

    def await_ack(self) -> None:
        p = self.p
        timeout = p.params.failure.reply_timeout * ACK_WAIT_FACTOR
        self.wait(p.recv(self.inbox, _ACK_OR_DUPLICATE, timeout=timeout), self._acked)

    def _acked(self, ev: "Event") -> None:
        p, msg = self.p, ev._value
        if msg is TIMED_OUT:
            if self._ack_asked:
                p.obs.annotate("worker_unfinalized", p.me, txn=self.txn_id)
                return self.end()
            p.send(self.coordinator, MsgKind.ACK_REQ, self.txn_id)
            self._ack_asked = True
            return self.await_ack()
        if msg.kind == MsgKind.UPDATE_REQ:
            p.send(msg.src, MsgKind.UPDATED, self.txn_id, ok=True)
            return self.await_ack()
        p.finalize(self.txn_id)
        self.end()


class LocalCommit(Session):
    """A transaction whose every update is local: no atomic commitment
    protocol is needed (the paper's ACPs exist for *distributed*
    namespace operations) — lock, apply, force one UPDATES+COMMITTED
    record, reply.  Shared by every log-based protocol, so locality
    comparisons measure the protocols only where they differ."""

    def begin(self, txn: Transaction) -> None:
        self.txn, me = txn, self.p.me
        self.lock_and_apply(txn.plan.locks(me), txn.plan.updates[me], self._applied_all)

    def _applied_all(self, _: Any) -> None:
        p, txn_id = self.p, self.txn_id
        updates = p.updates_rec(txn_id, p.store.updates_of(txn_id))
        self.wait(p.wal.force(updates, p.state_rec(RecordKind.COMMITTED, txn_id)), self._durable)

    def _durable(self, _: Any) -> None:
        p, txn_id = self.p, self.txn_id
        p.store.commit_durable(txn_id)
        p.locks.release_all(txn_id)
        replied_at = p.reply_to_client(self.txn, committed=True)
        p.wal.checkpoint(txn_id)
        p.outcome(self.txn, committed=True, replied_at=replied_at)
        self.end()

    def abort(self, reason: str) -> None:
        """Roll the transaction back and tell the client."""
        p, txn = self.p, self.txn
        p.store.abort(txn.txn_id)
        p.locks.release_all(txn.txn_id)
        replied_at = p.reply_to_client(txn, committed=False, reason=reason)
        p.outcome(txn, committed=False, replied_at=replied_at, reason=reason)
        self.end()


class Protocol:
    """Base class with the machinery every protocol engine shares."""

    #: Registry name ("PrN", "PrC", "EP", "1PC", ...).
    name = ""
    #: Maximum number of workers the protocol supports (None = any).
    max_workers: Optional[int] = None
    #: The flag a bounded engine (``max_workers`` set) marks its
    #: UPDATE_REQ with: a server that also runs a fallback engine routes
    #: a sessionless UPDATE_REQ without it, or a PREPARE, to the fallback.
    update_flag = ""
    #: The decision an absent coordinator log entry implies
    #: (``DECISION_REQ``).
    presumed_decision = MsgKind.COMMIT
    #: The session classes the entry points start.
    Coordinator: type[Session]
    Worker: type[Worker]
    Local: type[Session] = LocalCommit

    def __init__(self, server: "MDSServer") -> None:
        self.server = server
        #: The server's live sessions, which its ``crash()`` kills.
        self._live = server._live
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

    # -- entry points: each starts a session ---------------------------------------------

    def coordinate(self, txn: Transaction) -> Session:
        """Run the distributed transaction ``txn`` as its coordinator; one
        wider than ``max_workers`` is refused (a server routes those to
        its PrN fallback)."""
        if self.max_workers is not None and len(txn.workers) > self.max_workers:
            raise UnsupportedOperation(
                f"{len(txn.workers)} workers exceed {self.name}'s limit of {self.max_workers}"
            )
        session = self.Coordinator(self, txn.txn_id)
        return session.start(session.begin, txn)

    def run_local(self, txn: Transaction) -> Session:
        """Commit a transaction whose every update is local."""
        session = self.Local(self, txn.txn_id)
        return session.start(session.begin, txn)

    def worker_session(self, first: Message, inbox: "Store") -> Session:
        """Participate in a remote transaction; ``first`` opened it."""
        session = self.Worker(self, first.txn_id, first.src, inbox)
        return session.start(session.begin, first)

    def handle_stray(self, msg: Message) -> Optional[Callable[[Message], None]]:
        """React to a protocol message with no live session.

        Returns the step to run with ``msg``, or ``None`` to ignore the
        message.  The default handles the cases common to the 2PC family
        (§II-C "no entry in the log"); subclasses extend it.  A PREPARE
        never gets here: it opens a worker session (``SESSION_OPENERS``),
        whose ``begin`` refuses it.
        """
        if msg.kind in (MsgKind.COMMIT, MsgKind.ABORT):
            # Already committed and checkpointed; the coordinator just
            # never saw the ACK.  (Or an abort nobody remembers.)
            return self._ack_stray
        if msg.kind == MsgKind.ACK and self.wal.last_state(msg.txn_id) == RecordKind.ABORTED:
            # A worker finally acknowledged an abort whose session is
            # long gone: the abort information may now be forgotten.
            return self._forget_stray
        if msg.kind == MsgKind.DECISION_REQ:
            return self._answer_decision_req
        return None

    def stray(self, msg: Message) -> None:
        """Run :meth:`handle_stray`'s step for ``msg``, if any, as a
        session that ends at once (so a crash before it runs cancels it)."""
        act = self.handle_stray(msg)
        if act is not None:
            session = Session(self)
            session._done = act
            session.start(session.end, msg)

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

    @staticmethod
    def lock_targets(updates: Iterable[Update]) -> list[ObjectId]:
        """Objects ``updates`` touch, deduplicated in first-use order."""
        seen: dict[ObjectId, None] = {}
        for update in updates:
            seen.setdefault(update.target())
        return list(seen)

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

    def recv(self, inbox: "Store", kinds: frozenset, timeout: Optional[float] = None) -> "Event":
        """The getter of the next message of ``kinds`` from a session
        inbox, its deadline armed: it gets :data:`~repro.sim.TIMED_OUT`
        when ``timeout`` passes first.  A getter nobody waits on still
        takes the session's next matching message."""
        get = inbox.get(lambda msg: msg.kind in kinds)
        if timeout is not None:
            self.sim.expire(get, timeout)
        return get

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
        if txn.txn_id in self.obs.sampled or "client_reply" in self.obs.hears:
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
        if txn.txn_id in self.obs.sampled or "txn_done" in self.obs.hears:
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

    # -- recovery -------------------------------------------------------------------------

    def recover(self, then: Step, txns: Optional[Iterator[int]] = None) -> None:
        """Reboot-time log scan (§II-C, §III-C enumerate the cases), then
        ``then(None)``: one open transaction this engine tagged after the
        other, as its coordinator when its records include STARTED, as a
        worker otherwise — the ``recover`` step of that role's session.
        One a stray decision's session has meanwhile taken over (its
        inbox is open) or closed (its records are gone) is skipped."""
        txns = iter(self.wal.open_transactions()) if txns is None else txns
        sessions = self.server._sessions
        for txn_id in txns:
            records = self.wal.records_for(txn_id)
            if records and txn_id not in sessions and self.owns_txn(records):
                state = self.wal.last_state(txn_id)
                started = any(r.kind == RecordKind.STARTED for r in records)
                role = self._recover_coordinator if started else self._recover_worker
                return role(txn_id, state, records, lambda _: self.recover(then, txns))
        then(None)

    def _recover_coordinator(self, txn_id: int, state: Any, records: Any, then: Step) -> None:
        session = self.Coordinator(self, txn_id)
        session._done = then
        session.recover(state, records)

    def _recover_worker(self, txn_id: int, state: Any, records: Any, then: Step) -> None:
        session = self.Worker(self, txn_id, self.coordinator_from(records))
        session._done = then
        session.recover(state, records)

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

    def _ack_stray(self, msg: Message) -> None:
        self.send(msg.src, MsgKind.ACK, msg.txn_id)

    def _forget_stray(self, msg: Message) -> None:
        self.wal.checkpoint(msg.txn_id)

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
            self.send(msg.src, self.presumed_decision, msg.txn_id)
        # STARTED / PREPARED: no decision yet; the coordinator's own
        # recovery or timeout path will drive the outcome.  Aborting
        # the worker is not known to be safe, so stay silent and let it
        # retry.
