"""Logless one-phase commit (Zhu et al.) — extension protocol "LGL".

"To Vote Before Decide: A Logless One-Phase Commit Protocol for
Highly-Available Datastores" removes the write-ahead log from the
commit path entirely: durability comes from *synchronous replication*
to a backup replica in an independent failure domain
(:mod:`repro.mds.replica`), not from forced disk writes.  Like the
paper's 1PC, the worker's commit is its vote; unlike it, nothing is
ever written to a log — a rebooted node refetches its transaction
state from its backup.

Failure-free flow (one coordinator, one worker):

==========  =====================================================
coordinator worker
==========  =====================================================
replicate BEGIN(plan) -> own backup  (the logless redo record)
lock, update cache
UPDATE_REQ(vote) ->
            lock, update cache
            replicate COMMIT(updates) -> own backup
            apply, release locks
            <- UPDATED
reply to client, release locks
replicate COMMIT(updates) -> own backup   (off the client path)
ACK ->
            GC own backup entry
GC own backup entry
==========  =====================================================

Recovery replaces the log scan: on reboot a node fetches a snapshot of
its backup's entries.  A BEGIN without a COMMIT is re-executed from
the replicated plan (the coordinator's redo); a COMMIT facet is
re-applied into the stable image if needed; entries move towards the
outcome they already durably have, then are garbage collected.

When the coordinator times out on a worker it *seals* the transaction
at the worker's backup (``LGL_QUERY(seal=True)``): a sealed
transaction can never accept a commit replication afterwards, so the
coordinator's read of "no commit facet" is final — the logless
equivalent of 1PC's fence-then-read-the-log.

The simulator's :class:`~repro.fs.MetadataStore` stable image models
state that survives the node's crash; this engine calls
``commit_durable`` only once the backup's acknowledgement has made the
commit cluster-durable, so the stable image is exactly the state the
recovery refetch would reconstruct.

Like 1PC, the protocol pairs one coordinator with one worker
(``max_workers = 1``); wider operations fall back to the cluster's
2PC-family fallback engine, which keeps using its log.

Relative to the skeleton (:mod:`repro.protocols.base`) and to 1PC,
three steps are swapped — make durable (``replicate`` for every WAL
force), probe (seal-and-query for fence-and-read) and ``finalize``
(backup GC for the lazy ENDED) — plus the snapshot-fetch ``recover``
and a replicated local commit.  The redo replay runs the client's
steps up to the vote but keeps its own commit tail: with no client to
answer it holds its locks until the commit replication was attempted.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.fs.operations import OpPlan
from repro.mds.replica import backup_name
from repro.net.message import Message
from repro.protocols.base import (
    UPDATE_REPLIES,
    LocalCommit,
    MsgKind,
    Protocol,
    ProtocolSpec,
    Session,
    Step,
    Transaction,
    Worker,
    register_protocol,
)
from repro.protocols.registry import CAP_LOGLESS
from repro.sim import TIMED_OUT, Event

#: How many times a replication / probe / fetch is retransmitted
#: before the peer backup is declared unreachable.
REPLICATE_RETRIES = 3
#: Session id used for the recovery snapshot fetch (real transaction
#: ids start at 1).
_RECOVERY_SESSION = 0

_REPLICATION_REPLIES = frozenset({MsgKind.REPLICATED, MsgKind.REPLICATE_REJECTED})
_BACKUP_STATE = frozenset({MsgKind.LGL_STATE})
_BACKUP_SNAPSHOT = frozenset({MsgKind.LGL_SNAPSHOT})
#: Replication traffic that may arrive after its session closed.
_STALE_REPLIES = _REPLICATION_REPLIES | _BACKUP_STATE | _BACKUP_SNAPSHOT


class _Replicating(Session):
    """Make durable, logless: every session of the engine replicates."""

    def replicate(self, facet: str, data: Any, then: Step, attempts: int = REPLICATE_RETRIES):
        """Synchronously replicate one facet to our backup:
        ``then(True)`` on acknowledgement, ``then(False)`` when the
        backup refused (the transaction was sealed), ``then(None)`` when
        the backup is unreachable."""
        p = self.p
        self._facet, self._data, self._replicated_then = facet, data, then
        self._attempts = attempts
        p.send(p.backup, MsgKind.REPLICATE, self.txn_id, facet=facet, data=data)
        self._facet_deadline = self.sim.now + p.params.failure.reply_timeout
        self.recv_until(_REPLICATION_REPLIES, self._facet_deadline, self._facet_reply)

    def _facet_reply(self, ev: Event) -> None:
        msg = ev._value
        if msg is not TIMED_OUT:
            if msg.payload.get("facet") == self._facet:
                then, self._replicated_then = self._replicated_then, None
                return then(msg.kind == MsgKind.REPLICATED)
            # A stale ack from an earlier retransmission.
            return self.recv_until(_REPLICATION_REPLIES, self._facet_deadline, self._facet_reply)
        then, self._replicated_then = self._replicated_then, None
        if self._attempts > 1:
            return self.replicate(self._facet, self._data, then, self._attempts - 1)
        then(None)


class LGLCoordinator(_Replicating):
    """The logless coordinator of a client's transaction (:meth:`begin`)
    or of a replicated BEGIN's replay (:meth:`redo`)."""

    def begin(self, txn: Transaction) -> None:
        self.txn, self.plan = txn, txn.plan
        self.inbox = self.p.server.open_session(self.txn_id)
        # The logless redo record: the plan must survive our crash
        # before anything else happens.
        self.replicate("begin", {"plan": txn.plan.describe()}, self._begun)

    def _begun(self, ok: Optional[bool]) -> None:
        if ok is not True:
            self._reason = "coordinator backup unreachable"
            return self._aborted(True)
        self.execute()

    def redo(self, plan: OpPlan) -> None:
        """Replicated-BEGIN replay: run the transaction again end to
        end.  No client is waiting (the reply died with the crash), so
        nothing is released or acknowledged before our commit
        replication was attempted; it still commits eventually, exactly
        like 1PC's redo."""
        p = self.p
        p.obs.annotate("recovery", p.me, txn=self.txn_id, action="redo")
        self.plan = plan
        self.inbox = p.server.open_session(self.txn_id)
        self.execute()

    def execute(self) -> None:
        """Lock, apply, ship the vote-carrying UPDATE_REQ and collect
        the worker's vote — for a client request and for the replay of
        a replicated BEGIN alike.  :meth:`abort` unless the worker's
        commit is durable at its backup."""
        plan, me = self.plan, self.p.me
        self._workers = iter(plan.workers)  # at most one (max_workers)
        self.lock_and_apply(plan.locks(me), plan.updates[me], self._next_worker)

    def _next_worker(self, _: Any = None) -> None:
        p = self.p
        for self._worker in self._workers:
            p.ship_updates(self._worker, self.txn_id, self.plan, vote=True)
            timeout = p.params.failure.reply_timeout
            return self.wait(p.recv(self.inbox, UPDATE_REPLIES, timeout=timeout), self._voted)
        self._commit()

    def _voted(self, ev: Event) -> None:
        msg = ev._value
        if msg is TIMED_OUT:
            return self._seal()
        if msg.kind == MsgKind.NOT_PREPARED:
            reason = msg.payload.get("reason", "no reason given")
            return self.abort(f"worker {self._worker} rejected the updates: {reason}")
        self._next_worker()

    def _seal(self, attempts: int = REPLICATE_RETRIES) -> None:
        """Seal the transaction at the worker's backup and read its fate:
        a commit replication that has not landed by the seal never will."""
        p, self._attempts = self.p, attempts
        if attempts == REPLICATE_RETRIES:
            p.obs.annotate("probe_start", p.me, txn=self.txn_id, worker=self._worker)
        p.send(backup_name(self._worker), MsgKind.LGL_QUERY, self.txn_id, seal=True)
        timeout = p.params.failure.reply_timeout
        self.wait(p.recv(self.inbox, _BACKUP_STATE, timeout=timeout), self._sealed)

    def _sealed(self, ev: Event) -> None:
        p, msg = self.p, ev._value
        if msg is TIMED_OUT and self._attempts > 1:
            return self._seal(self._attempts - 1)
        if msg is TIMED_OUT:
            p.obs.annotate("probe_unreachable", p.me, txn=self.txn_id, worker=self._worker)
        if msg is TIMED_OUT or not msg.payload.get("has_commit"):
            return self.abort(f"worker {self._worker} crashed before committing")
        self._next_worker()

    def _commit(self) -> None:
        p, txn_id = self.p, self.txn_id
        descs = [u.describe() for u in p.store.updates_of(txn_id)]
        if self.txn is None:
            then = self._redo_replicated
        else:
            # Decision reached: reply and release before our own commit
            # replication (the replicated BEGIN guarantees re-execution).
            p.store.commit(txn_id)
            self._replied_at = p.reply_to_client(self.txn, committed=True)
            p.locks.release_all(txn_id)
            then = self._commit_replicated
        self.replicate("commit", {"updates": descs, "workers": list(self.plan.workers)}, then)

    def _commit_replicated(self, ok: Optional[bool]) -> None:
        p, txn_id = self.p, self.txn_id
        if ok is True:
            p.store.commit_durable(txn_id)
            p.finalize(txn_id)
        else:
            # Begin facet stays at the backup: a crash now still
            # re-executes towards commit, so the reply was safe.
            p.obs.annotate("commit_unreplicated", p.me, txn=txn_id)
        for worker in self.plan.workers:
            p.send(worker, MsgKind.ACK, txn_id)
        p.outcome(self.txn, committed=True, replied_at=self._replied_at)
        self.end()

    def _redo_replicated(self, ok: Optional[bool]) -> None:
        p, txn_id = self.p, self.txn_id
        p.store.commit_durable(txn_id)
        p.locks.release_all(txn_id)
        for worker in self.plan.workers:
            p.send(worker, MsgKind.ACK, txn_id)
        if ok is True:
            p.finalize(txn_id)
        p.obs.annotate("recovery", p.me, txn=txn_id, action="redo-committed")
        self.end()

    def abort(self, reason: str) -> None:
        p, txn_id = self.p, self.txn_id
        if self.txn is not None:
            # Make the abort durable at the backup *before* the client
            # hears it, so a crash cannot re-execute into a commit.
            self._reason = reason
            return self.replicate("aborted", True, self._aborted)
        p.store.abort(txn_id)
        p.locks.release_all(txn_id)
        p.finalize(txn_id)
        p.obs.annotate("recovery", p.me, txn=txn_id, action="redo-aborted")
        self.end()

    def _aborted(self, ok: Optional[bool]) -> None:
        p, txn_id, reason = self.p, self.txn_id, self._reason
        if ok is not True:
            p.obs.annotate("abort_unreplicated", p.me, txn=txn_id)
        p.store.abort(txn_id)
        p.locks.release_all(txn_id)
        replied_at = p.reply_to_client(self.txn, committed=False, reason=reason)
        p.finalize(txn_id)
        p.outcome(self.txn, committed=False, replied_at=replied_at, reason=reason)
        self.end()


class LGLWorker(_Replicating, Worker):
    """The logless worker: its replicated commit is its vote."""

    def begin(self, first: Message) -> None:
        if first.kind != MsgKind.UPDATE_REQ or not first.payload.get("vote"):
            self.p.send(self.coordinator, MsgKind.NOT_PREPARED, self.txn_id)
            return self.end()
        self.first = first
        self._after_recovery(None)

    def _after_recovery(self, _: Any) -> None:
        # A duplicate request must see the refetched backup state, not
        # the empty post-reboot image: wait out our recovery.
        p = self.p
        if p.server.recovering:
            pause = p.sim.timeout(p.params.failure.reply_timeout / 20.0)
            return self.wait(pause, self._after_recovery)
        # A duplicate request (the coordinator re-executed after a
        # crash) finds the commit already done and only needs the
        # re-acknowledgement.
        if p.store.has_applied(self.txn_id):
            return self.vote()
        self.execute(self.first, self._replicate_commit)

    def _replicate_commit(self, _: Any) -> None:
        # The logless vote: the commit replicated to our backup.
        descs = [u.describe() for u in self.p.store.updates_of(self.txn_id)]
        data = {"updates": descs, "coordinator": self.coordinator}
        self.replicate("commit", data, self._vote_replicated)

    def _vote_replicated(self, ok: Optional[bool]) -> None:
        p, txn_id = self.p, self.txn_id
        if ok is not True:
            # Sealed (the coordinator gave up on us) or backup
            # unreachable: the commit never became durable, so the
            # coordinator reads "no commit facet" and aborts.  Drop
            # everything locally.
            p.store.abort(txn_id)
            p.locks.release_all(txn_id)
            p.obs.annotate("worker_sealed_mid_commit", p.me, txn=txn_id)
            return self.end()
        p.store.commit_durable(txn_id)
        p.locks.release_all(txn_id)
        self.vote()


class LGLLocal(_Replicating, LocalCommit):
    """A single-MDS transaction, still logless."""

    def begin(self, txn: Transaction) -> None:
        self.inbox = self.p.server.open_session(self.txn_id)
        super().begin(txn)

    def _applied_all(self, _: Any) -> None:
        descs = [u.describe() for u in self.p.store.updates_of(self.txn_id)]
        self.replicate("commit", {"updates": descs, "local": True}, self._local_replicated)

    def _local_replicated(self, ok: Optional[bool]) -> None:
        if ok is not True:
            return self.abort("backup unreachable")
        p, txn_id = self.p, self.txn_id
        p.store.commit_durable(txn_id)
        p.locks.release_all(txn_id)
        replied_at = p.reply_to_client(self.txn, committed=True)
        p.finalize(txn_id)
        p.outcome(self.txn, committed=True, replied_at=replied_at)
        self.end()


class LGLRecovery(Session):
    """Recovery: refetch the backup's entries instead of scanning a log,
    then move each towards the outcome it already durably has."""

    def fetch(self, attempts: int = REPLICATE_RETRIES) -> None:
        p = self.p
        self.inbox, self._attempts = p.server.open_session(self.txn_id), attempts
        p.send(p.backup, MsgKind.LGL_FETCH, _RECOVERY_SESSION)
        timeout = p.params.failure.reply_timeout
        self.wait(p.recv(self.inbox, _BACKUP_SNAPSHOT, timeout=timeout), self._fetched)

    def _fetched(self, ev: Event) -> None:
        p, msg = self.p, ev._value
        if msg is TIMED_OUT and self._attempts > 1:
            return self.fetch(self._attempts - 1)
        p.server.close_session(self.txn_id)
        self.inbox = None
        if msg is TIMED_OUT:
            p.obs.annotate("recovery", p.me, action="backup-unreachable")
            return self.end()
        self._entries = msg.payload["entries"]
        self._txns = iter(sorted(self._entries))
        self._next_entry()

    def _next_entry(self, _: Any = None) -> None:
        p = self.p
        for txn_id in self._txns:
            entry = self._entries[txn_id]
            if "aborted" in entry:
                p.finalize(txn_id)
                p.obs.annotate("recovery", p.me, txn=txn_id, action="aborted")
                continue
            commit = entry.get("commit")
            if commit is None:
                # BEGIN without a commit: the coordinator's redo.
                begin = entry.get("begin")
                if not isinstance(begin, dict) or "plan" not in begin:
                    p.obs.annotate("recovery", p.me, txn=txn_id, action="begin-unreadable")
                    p.finalize(txn_id)
                    continue
                session = p.Coordinator(p, txn_id)
                session._done = self._next_entry
                return session.redo(OpPlan.from_description(begin["plan"]))
            session = _CommittedEntry(p, txn_id)
            session.commit, session._done = commit, self._next_entry
            return session.reapply(commit.get("updates", []), session.settle, fold=True)
        self.end()


class _CommittedEntry(Session):
    """A commit facet the backup holds: folded, then settled."""

    def settle(self, _: Any) -> None:
        p, txn_id, commit = self.p, self.txn_id, self.commit
        if commit.get("local"):
            p.finalize(txn_id)
            p.obs.annotate("recovery", p.me, txn=txn_id, action="local-committed")
        elif "coordinator" in commit:
            return self.reclaim_ack(commit["coordinator"])
        else:
            # We coordinated: make sure the worker hears the ACK.
            for worker in commit.get("workers", []):
                p.send(worker, MsgKind.ACK, txn_id)
            p.finalize(txn_id)
            p.obs.annotate("recovery", p.me, txn=txn_id, action="resend-ack")
        self.end()


class LoglessOnePhaseProtocol(Protocol):
    """One-phase commit with synchronous replication instead of a WAL."""

    name = "LGL"
    #: Like 1PC: one coordinator + one worker.
    max_workers = 1
    Coordinator = LGLCoordinator
    Worker = LGLWorker
    Local = LGLLocal

    def claims_worker_message(self, msg: Message) -> bool:
        """LGL marks its UPDATE_REQ with ``vote=True``; a bare
        UPDATE_REQ or a PREPARE belongs to the 2PC-family fallback."""
        if msg.kind == MsgKind.UPDATE_REQ and not msg.payload.get("vote"):
            return False
        if msg.kind == MsgKind.PREPARE:
            return False
        return True

    @property
    def backup(self) -> str:
        return backup_name(self.me)

    def finalize(self, txn_id: int) -> None:
        """Logless: there is no ENDED record to write — dropping the
        backup's entry is what closes the transaction."""
        self.send(self.backup, MsgKind.LGL_GC, txn_id)

    def recover(self, then: Step) -> None:
        session = LGLRecovery(self, _RECOVERY_SESSION)
        session._done = then
        session.fetch()

    def handle_stray(self, msg: Message) -> Optional[Callable[[Message], None]]:
        if msg.kind == MsgKind.ACK_REQ:
            # A recovered worker wants its ACK.  A worker only ever
            # commits when its replication landed before any seal — in
            # which case we committed too.  Always acknowledge.
            return self._ack_stray
        if msg.kind == MsgKind.ACK:
            # Late ACK for a worker whose session is gone: release the
            # backup entry it was waiting to drop.
            return self._finalize_stray
        if msg.kind in _STALE_REPLIES:
            # Stale replication traffic for a closed session.
            return None
        return super().handle_stray(msg)


register_protocol(
    ProtocolSpec(
        name="LGL",
        engine=LoglessOnePhaseProtocol,
        summary="Logless 1PC: backup replication replaces the WAL (extension)",
        log_records=(),
        capabilities=frozenset({CAP_LOGLESS}),
        # Zero log writes (logless); 7 replication/ack messages total,
        # of which 4 (begin + worker-commit REPLICATE/REPLICATED pairs)
        # precede the client reply.
        table1_row=(0, 0, 0, 0, 7, 4),
        citation=(
            "Zhu, Guo, Lu & Chen, 'To Vote Before Decide: A Logless "
            "One-Phase Commit Protocol for Highly-Available Datastores' "
            "(2016)"
        ),
        order=6,
    )
)
