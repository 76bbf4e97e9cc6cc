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

Relative to the shared skeleton (:mod:`repro.protocols.base`) and to
1PC this module is three swapped steps — make durable (``_replicate``
for every WAL force), probe (seal-and-query for fence-and-read) and
:meth:`~LoglessOnePhaseProtocol.finalize` (backup GC for the lazy
ENDED) — plus the snapshot-fetch ``recover`` and a replicated
``run_local``; the worker-side execution, the ACK wait and the
fan-out guard are the base class's.  The redo replay shares
``_execute`` with ``coordinate`` but keeps its own commit tail: with
no client to answer it holds its locks until the commit replication
was attempted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.fs.operations import OpPlan
from repro.mds.replica import backup_name
from repro.net.message import Message
from repro.protocols.base import (
    UPDATE_REPLIES,
    MsgKind,
    Protocol,
    ProtocolSpec,
    Transaction,
    TransactionAborted,
    immediately,
    register_protocol,
)
from repro.protocols.registry import CAP_LOGLESS
from repro.sim import TIMED_OUT

if TYPE_CHECKING:
    from repro.sim.resources import Store

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


class LoglessOnePhaseProtocol(Protocol):
    """One-phase commit with synchronous replication instead of a WAL."""

    name = "LGL"
    #: Like 1PC: one coordinator + one worker.
    max_workers = 1

    def claims_worker_message(self, msg: Message) -> bool:
        """LGL marks its UPDATE_REQ with ``vote=True``; a bare
        UPDATE_REQ or a PREPARE belongs to the 2PC-family fallback."""
        if msg.kind == MsgKind.UPDATE_REQ and not msg.payload.get("vote"):
            return False
        if msg.kind == MsgKind.PREPARE:
            return False
        return True

    # ------------------------------------------------------------------
    # Replication plumbing
    # ------------------------------------------------------------------

    @property
    def backup(self) -> str:
        return backup_name(self.me)

    def _replicate(self, txn_id: int, facet: str, data: Any, inbox: "Store") -> Generator:
        """Synchronously replicate one facet to our backup.

        Returns ``True`` on acknowledgement, ``False`` when the backup
        refused (the transaction was sealed), ``None`` when the backup
        is unreachable.
        """
        for _attempt in range(REPLICATE_RETRIES):
            self.send(self.backup, MsgKind.REPLICATE, txn_id, facet=facet, data=data)
            deadline = self.sim.now + self.params.failure.reply_timeout
            while True:
                msg = yield from self.recv_until(inbox, _REPLICATION_REPLIES, deadline)
                if msg is TIMED_OUT:
                    break
                # (Anything else is a stale ack from an earlier
                # retransmission.)
                if msg.payload.get("facet") == facet:
                    return msg.kind == MsgKind.REPLICATED
        return None

    def finalize(self, txn_id: int) -> None:
        """Logless: there is no ENDED record to write — dropping the
        backup's entry is what closes the transaction."""
        self.send(self.backup, MsgKind.LGL_GC, txn_id)

    # ------------------------------------------------------------------
    # Coordinator
    # ------------------------------------------------------------------

    def coordinate(self, txn: Transaction) -> Generator:
        self.check_fanout(txn)
        txn_id, plan = txn.txn_id, txn.plan
        inbox = self.server.open_session(txn_id)
        try:
            # The logless redo record: the plan must survive our crash
            # before anything else happens.
            ok = yield from self._replicate(txn_id, "begin", {"plan": plan.describe()}, inbox)
            if ok is not True:
                return (
                    yield from self._abort(
                        txn, inbox, "coordinator backup unreachable", replicated=False
                    )
                )
            try:
                yield from self._execute(txn_id, plan, inbox)
            except TransactionAborted as aborted:
                return (yield from self._abort(txn, inbox, aborted.reason))
            # Decision reached: reply and release before our own commit
            # replication (the replicated BEGIN guarantees re-execution).
            descs = [u.describe() for u in self.store.updates_of(txn_id)]
            self.store.commit(txn_id)
            replied_at = self.reply_to_client(txn, committed=True)
            self.locks.release_all(txn_id)
            ok = yield from self._replicate(
                txn_id, "commit", {"updates": descs, "workers": list(plan.workers)}, inbox
            )
            if ok is True:
                self.store.commit_durable(txn_id)
                self.finalize(txn_id)
            else:
                # Begin facet stays at the backup: a crash now still
                # re-executes towards commit, so the reply was safe.
                self.obs.annotate("commit_unreplicated", self.me, txn=txn_id)
            for worker in plan.workers:
                self.send(worker, MsgKind.ACK, txn_id)
            return self.outcome(txn, committed=True, replied_at=replied_at)
        finally:
            self.server.close_session(txn_id)

    def _execute(self, txn_id: int, plan: OpPlan, inbox: "Store") -> Generator:
        """Lock, apply, ship the vote-carrying UPDATE_REQ and collect
        the worker's vote — for a client request and for the replay of
        a replicated BEGIN alike.  Raises :class:`TransactionAborted`
        unless the worker's commit is durable at its backup."""
        yield from self.lock_and_apply(txn_id, plan.locks(self.me), plan.updates[self.me])
        for worker in plan.workers:  # at most one (max_workers)
            self.ship_updates(worker, txn_id, plan, vote=True)
            msg = yield self.recv(inbox, UPDATE_REPLIES, timeout=self.params.failure.reply_timeout)
            if msg is not TIMED_OUT and msg.kind == MsgKind.NOT_PREPARED:
                raise TransactionAborted(
                    f"worker {worker} rejected the updates: "
                    f"{msg.payload.get('reason', 'no reason given')}"
                )
            if msg is TIMED_OUT and not (
                yield from self._probe_worker_backup(txn_id, worker, inbox)
            ):
                raise TransactionAborted(f"worker {worker} crashed before committing")

    def _probe_worker_backup(self, txn_id: int, worker: str, inbox: "Store") -> Generator:
        """Seal the transaction at the worker's backup and read its fate.

        Sealing first makes the answer final: a commit replication that
        has not landed when the seal does never will.
        """
        self.obs.annotate("probe_start", self.me, txn=txn_id, worker=worker)
        target = backup_name(worker)
        for _attempt in range(REPLICATE_RETRIES):
            self.send(target, MsgKind.LGL_QUERY, txn_id, seal=True)
            msg = yield self.recv(inbox, _BACKUP_STATE, timeout=self.params.failure.reply_timeout)
            if msg is not TIMED_OUT:
                return bool(msg.payload.get("has_commit"))
        self.obs.annotate("probe_unreachable", self.me, txn=txn_id, worker=worker)
        return False

    def _abort(
        self, txn: Transaction, inbox: "Store", reason: str, replicated: bool = True
    ) -> Generator:
        """Abort: make the abort durable at the backup *before* the
        client hears it, so a crash cannot re-execute into a commit."""
        txn_id = txn.txn_id
        if replicated:
            ok = yield from self._replicate(txn_id, "aborted", True, inbox)
            if ok is not True:
                self.obs.annotate("abort_unreplicated", self.me, txn=txn_id)
        self.store.abort(txn_id)
        self.locks.release_all(txn_id)
        replied_at = self.reply_to_client(txn, committed=False, reason=reason)
        self.finalize(txn_id)
        return self.outcome(txn, committed=False, replied_at=replied_at, reason=reason)

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------

    def worker_session(self, first: Message, inbox: "Store") -> Generator:
        txn_id, coordinator = first.txn_id, first.src
        try:
            if first.kind != MsgKind.UPDATE_REQ or not first.payload.get("vote"):
                self.send(coordinator, MsgKind.NOT_PREPARED, txn_id)
                return None
            # A duplicate request must see the refetched backup state,
            # not the empty post-reboot image: wait out our recovery.
            while self.server.recovering:
                yield self.sim.timeout(self.params.failure.reply_timeout / 20.0)
            # A duplicate request (the coordinator re-executed after a
            # crash) finds the commit already done and only needs the
            # re-acknowledgement below.
            if not self.store.has_applied(txn_id):
                if not (yield from self.execute_as_worker(first)):
                    return None
                # The logless vote: the commit replicated to our backup.
                descs = [u.describe() for u in self.store.updates_of(txn_id)]
                ok = yield from self._replicate(
                    txn_id, "commit", {"updates": descs, "coordinator": coordinator}, inbox
                )
                if ok is not True:
                    # Sealed (the coordinator gave up on us) or backup
                    # unreachable: the commit never became durable, so
                    # the coordinator reads "no commit facet" and
                    # aborts.  Drop everything locally.
                    self.store.abort(txn_id)
                    self.locks.release_all(txn_id)
                    self.obs.annotate("worker_sealed_mid_commit", self.me, txn=txn_id)
                    return None
                self.store.commit_durable(txn_id)
                self.locks.release_all(txn_id)
            self.send(coordinator, MsgKind.UPDATED, txn_id, ok=True)
            yield from self.await_ack_and_finalize(txn_id, coordinator, inbox)
            return None
        finally:
            self.server.close_session(txn_id)

    # ------------------------------------------------------------------
    # Local (single-MDS) transactions — still logless
    # ------------------------------------------------------------------

    def run_local(self, txn: Transaction) -> Generator:
        txn_id, plan = txn.txn_id, txn.plan
        inbox = self.server.open_session(txn_id)
        try:
            try:
                yield from self.lock_and_apply(txn_id, plan.locks(self.me), plan.updates[self.me])
                descs = [u.describe() for u in self.store.updates_of(txn_id)]
                ok = yield from self._replicate(
                    txn_id, "commit", {"updates": descs, "local": True}, inbox
                )
                if ok is not True:
                    raise TransactionAborted("backup unreachable")
            except TransactionAborted as aborted:
                return self.abort_local(txn, aborted.reason)
            self.store.commit_durable(txn_id)
            self.locks.release_all(txn_id)
            replied_at = self.reply_to_client(txn, committed=True)
            self.finalize(txn_id)
            return self.outcome(txn, committed=True, replied_at=replied_at)
        finally:
            self.server.close_session(txn_id)

    # ------------------------------------------------------------------
    # Recovery: refetch from the backup instead of scanning a log
    # ------------------------------------------------------------------

    def recover(self) -> Generator:
        inbox = self.server.open_session(_RECOVERY_SESSION)
        entries = None
        try:
            for _attempt in range(REPLICATE_RETRIES):
                self.send(self.backup, MsgKind.LGL_FETCH, _RECOVERY_SESSION)
                msg = yield self.recv(
                    inbox, _BACKUP_SNAPSHOT, timeout=self.params.failure.reply_timeout
                )
                if msg is not TIMED_OUT:
                    entries = msg.payload["entries"]
                    break
        finally:
            self.server.close_session(_RECOVERY_SESSION)
        if entries is None:
            self.obs.annotate("recovery", self.me, action="backup-unreachable")
            return
        for txn_id in sorted(entries):
            yield from self._recover_entry(txn_id, entries[txn_id])

    def _recover_entry(self, txn_id: int, entry: dict) -> Generator:
        if "aborted" in entry:
            self.finalize(txn_id)
            self.obs.annotate("recovery", self.me, txn=txn_id, action="aborted")
            return
        commit = entry.get("commit")
        if commit is None:
            # BEGIN without a commit: the coordinator's redo.
            begin = entry.get("begin")
            if not isinstance(begin, dict) or "plan" not in begin:
                self.obs.annotate("recovery", self.me, txn=txn_id, action="begin-unreadable")
                self.finalize(txn_id)
                return
            yield from self._re_execute(txn_id, OpPlan.from_description(begin["plan"]))
            return
        yield from self.refold(txn_id, commit.get("updates", []))
        if commit.get("local"):
            self.finalize(txn_id)
            self.obs.annotate("recovery", self.me, txn=txn_id, action="local-committed")
        elif "coordinator" in commit:
            yield from self.reclaim_ack(txn_id, commit["coordinator"])
        else:
            # We coordinated: make sure the worker hears the ACK.
            for worker in commit.get("workers", []):
                self.send(worker, MsgKind.ACK, txn_id)
            self.finalize(txn_id)
            self.obs.annotate("recovery", self.me, txn=txn_id, action="resend-ack")

    def _re_execute(self, txn_id: int, plan: OpPlan) -> Generator:
        """Replicated-BEGIN replay: run the transaction again end to end.

        No client is waiting (the reply died with the crash), so unlike
        :meth:`coordinate` nothing is released or acknowledged before
        our commit replication has been attempted; the operation still
        commits eventually, exactly like 1PC's redo.
        """
        self.obs.annotate("recovery", self.me, txn=txn_id, action="redo")
        inbox = self.server.open_session(txn_id)
        try:
            try:
                yield from self._execute(txn_id, plan, inbox)
            except TransactionAborted:
                self.store.abort(txn_id)
                self.locks.release_all(txn_id)
                self.finalize(txn_id)
                self.obs.annotate("recovery", self.me, txn=txn_id, action="redo-aborted")
                return
            descs = [u.describe() for u in self.store.updates_of(txn_id)]
            ok = yield from self._replicate(
                txn_id, "commit", {"updates": descs, "workers": list(plan.workers)}, inbox
            )
            self.store.commit_durable(txn_id)
            self.locks.release_all(txn_id)
            for worker in plan.workers:
                self.send(worker, MsgKind.ACK, txn_id)
            if ok is True:
                self.finalize(txn_id)
            self.obs.annotate("recovery", self.me, txn=txn_id, action="redo-committed")
        finally:
            self.server.close_session(txn_id)

    # ------------------------------------------------------------------
    # Stray messages
    # ------------------------------------------------------------------

    def handle_stray(self, msg: Message) -> Optional[Generator]:
        if msg.kind == MsgKind.ACK_REQ:
            # A recovered worker wants its ACK.  A worker only ever
            # commits when its replication landed before any seal — in
            # which case we committed too.  Always acknowledge.
            return self._stray_reply(msg, MsgKind.ACK)
        if msg.kind == MsgKind.ACK:
            # Late ACK for a worker whose session is gone: release the
            # backup entry it was waiting to drop.
            return immediately(self.finalize, msg.txn_id)
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
