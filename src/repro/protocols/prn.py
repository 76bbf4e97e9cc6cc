"""Two Phase Commit, baseline "Presume Nothing" variant (§II-A..C).

Failure-free flow for a two-MDS namespace operation (Figure 2):

==========  =====================================================
coordinator worker
==========  =====================================================
force STARTED
lock, update cache
UPDATE_REQ  ->
            lock, update cache
            <- UPDATED
PREPARE ->     (coordinator starts preparing concurrently)
            force UPDATES+PREPARED
            <- PREPARED
force COMMITTED, release locks
COMMIT ->
            force COMMITTED, apply, release locks
            <- ACK, checkpoint
lazy ENDED, reply to client, checkpoint
==========  =====================================================

Cost accounting (Table I row PrN): 5 forced log writes + 1 lazy in
total; 4 forced + 1 lazy in the critical path (the coordinator's and
the worker's prepares overlap); 4 extra messages, all 4 in the critical
path because the client reply waits for the ACK.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional, Sequence

from repro.net.message import Message
from repro.protocols.base import (
    ACKS,
    DECISIONS,
    UPDATE_REPLIES,
    VOTES,
    MsgKind,
    Protocol,
    ProtocolSpec,
    Transaction,
    TransactionAborted,
    register_protocol,
)
from repro.sim import TIMED_OUT
from repro.storage.records import LogRecord, RecordKind
from repro.storage.wal import LogLostError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.events import Event
    from repro.sim.process import Process
    from repro.sim.resources import Store

#: How many times a coordinator retransmits COMMIT/ABORT waiting for ACK.
ACK_RETRIES = 5
#: How many times a blocked (prepared) worker re-queries the
#: coordinator for the decision.  A prepared 2PC worker cannot decide
#: unilaterally; it must keep asking (2PC's blocking property).  The
#: bound only exists to keep simulations finite.
DECISION_RETRIES = 100

_PREPARE_OR_ABORT = frozenset({MsgKind.PREPARE, MsgKind.ABORT})


class PresumeNothingProtocol(Protocol):
    """The classic 2PC protocol; generalises to any number of workers."""

    name = "PrN"
    max_workers = None

    #: Subclass knobs (the PrC/EP optimisations flip these).
    reply_before_commit_msg = False  # PrN replies only after the ACKs
    worker_commit_is_forced = True
    coordinator_writes_ended = True
    ack_required = True
    #: Aborts are acknowledged in every 2PC-family protocol (PrC's
    #: presumption covers commits only; "in the abort case the PrC
    #: behaves in the same way as the PrN").
    abort_ack_required = True

    # ------------------------------------------------------------------
    # Coordinator
    # ------------------------------------------------------------------

    def coordinate(self, txn: Transaction) -> Generator:
        txn_id, plan = txn.txn_id, txn.plan
        inbox = self.server.open_session(txn_id)
        try:
            yield self.wal.force(
                self.state_rec(RecordKind.STARTED, txn_id, op=plan.op, workers=list(txn.workers))
            )
            try:
                # Growing phase of 2PL, then the local cache updates.
                yield from self.lock_and_apply(txn_id, plan.locks(self.me), plan.updates[self.me])
                yield from self._collect_votes(txn, inbox)
                yield self.wal.force(self.state_rec(RecordKind.COMMITTED, txn_id))
                self.store.commit_durable(txn_id)
                self.locks.release_all(txn_id)
                replied_at = yield from self._finish_commit(txn.workers, txn_id, inbox, txn)
                return self.outcome(txn, committed=True, replied_at=replied_at)
            except TransactionAborted as aborted:
                return (yield from self._abort(txn, inbox, aborted.reason))
        finally:
            self.server.close_session(txn_id)

    def _collect_votes(self, txn: Transaction, inbox: "Store") -> Generator:
        """Execution round (UPDATE_REQ / UPDATED with every worker),
        then the voting phase with our own prepare running alongside
        ("the coordinator itself ... also starts preparing")."""
        for worker in txn.workers:
            self.ship_updates(worker, txn.txn_id, txn.plan)
        yield from self.gather(
            inbox, txn.workers, UPDATE_REPLIES, "UPDATED", "rejected the updates"
        )
        own_prepare = self._start_own_prepare(txn.txn_id)
        try:
            yield from self._voting_round(txn.workers, txn.txn_id, inbox)
        except TransactionAborted:
            yield from self._await_own_prepare(own_prepare)
            raise
        yield from self._await_own_prepare(own_prepare)

    def _voting_round(self, workers: Sequence[str], txn_id: int, inbox: "Store") -> Generator:
        """PREPARE to every worker; one PREPARED vote from each."""
        for worker in workers:
            self.send(worker, MsgKind.PREPARE, txn_id)
        return self.gather(inbox, workers, VOTES, "votes", "voted NOT-PREPARED")

    def _own_prepare(self, txn_id: int) -> Generator:
        """The coordinator's own prepare: force its updates + PREPARED."""
        yield self.wal.force(
            self.updates_rec(txn_id, self.store.updates_of(txn_id)),
            self.state_rec(RecordKind.PREPARED, txn_id),
        )

    def _start_own_prepare(self, txn_id: int) -> "Process":
        # Tracked by the server so a crash kills it with everything else.
        return self.server.spawn(self._own_prepare(txn_id), name=f"{self.me}:prepare:{txn_id}")

    def _await_own_prepare(self, prepare_proc: "Process") -> Generator:
        try:
            yield prepare_proc
        except LogLostError:
            raise TransactionAborted("coordinator log lost during prepare")

    def _finish_commit(
        self,
        workers: Sequence[str],
        txn_id: int,
        inbox: "Store",
        txn: Optional[Transaction] = None,
    ) -> Generator:
        """The commit phase once COMMITTED is durable: announce it,
        collect the ACKs, close the log entry.

        Answers ``txn``'s client on the way — before the COMMIT
        messages under presumed commit, after the ACKs otherwise;
        recovery passes no ``txn``.  Returns the reply time.
        """
        replied_at = None
        if self.reply_before_commit_msg:
            replied_at = self.reply_to_client(txn, committed=True)
        for worker in workers:
            self.send(worker, MsgKind.COMMIT, txn_id)
        if self.ack_required:
            yield from self._collect_acks(workers, txn_id, inbox, MsgKind.COMMIT)
        if self.coordinator_writes_ended:
            self.finalize(txn_id)
        if replied_at is None:
            replied_at = self.reply_to_client(txn, committed=True)
        self.wal.checkpoint(txn_id)
        return replied_at

    def _collect_acks(
        self, workers: Sequence[str], txn_id: int, inbox: "Store", kind: str
    ) -> Generator:
        """Wait for every worker's ACK, retransmitting the decision."""
        pending = set(workers)
        for _attempt in range(ACK_RETRIES):
            while pending:
                msg = yield self.recv(inbox, ACKS, timeout=self.params.failure.reply_timeout)
                if msg is TIMED_OUT:
                    break
                pending.discard(msg.src)
            if not pending:
                return True
            for worker in sorted(pending):
                self.send(worker, kind, txn_id)
        self.obs.annotate(
            "ack_gave_up", self.me, txn=txn_id, missing=sorted(pending), decision=kind
        )
        return False

    def _force_abort_record(self, txn_id: int, **payload: Any) -> Generator:
        """Make an abort decision durable before acting on it.

        Overridable: presumed-abort engines skip the record entirely —
        absence of coordinator log state already answers later
        decision queries with ABORT.
        """
        yield self.wal.force(self.state_rec(RecordKind.ABORTED, txn_id, **payload))

    def _abort(self, txn: Transaction, inbox: "Store", reason: str) -> Generator:
        """Abort path: force ABORTED, tell the workers, release, reply."""
        txn_id = txn.txn_id
        yield from self._force_abort_record(txn_id, reason=reason)
        self.store.abort(txn_id)
        self.locks.release_all(txn_id)
        for worker in txn.workers:
            self.send(worker, MsgKind.ABORT, txn_id)
        replied_at = self.reply_to_client(txn, committed=False, reason=reason)
        if not self.abort_ack_required:
            # Presumed abort: no record was forced, so there is nothing
            # to acknowledge and nothing to end.
            self.wal.checkpoint(txn_id)
        elif (yield from self._collect_acks(txn.workers, txn_id, inbox, MsgKind.ABORT)):
            # Only a fully acknowledged abort may be forgotten: under
            # presumed commit, a missing log entry means COMMIT, so the
            # ABORTED record must survive until every prepared worker
            # has heard the decision.
            self.finalize(txn_id)
            self.wal.checkpoint(txn_id)
        return self.outcome(txn, committed=False, replied_at=replied_at, reason=reason)

    def _abort_workers(self, workers: Sequence[str], txn_id: int, inbox: "Store") -> Generator:
        """Recovery: announce a durable ABORT and forget the
        transaction once every required ACK is in."""
        for worker in workers:
            self.send(worker, MsgKind.ABORT, txn_id)
        if not self.abort_ack_required or (
            yield from self._collect_acks(workers, txn_id, inbox, MsgKind.ABORT)
        ):
            self.wal.checkpoint(txn_id)

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------

    def worker_session(self, first: Message, inbox: "Store") -> Generator:
        """Worker side: execution, voting, decision."""
        txn_id, coordinator = first.txn_id, first.src
        try:
            if first.kind != MsgKind.UPDATE_REQ:
                # A PREPARE with no prior session: we lost the updates
                # (e.g. rebooted); vote no (§II-C "no entry in the log").
                self.send(coordinator, MsgKind.NOT_PREPARED, txn_id)
                return None
            if not (yield from self.execute_as_worker(first)):
                return None
            if not (yield from self._await_prepare(txn_id, coordinator, inbox)):
                return None
            yield self._worker_prepare(txn_id, coordinator)
            self._announce_vote(txn_id, coordinator)

            # Decision.
            msg = yield from self._await_decision(txn_id, coordinator, inbox)
            if msg is TIMED_OUT:
                self.obs.annotate("worker_blocked", self.me, txn=txn_id)
                return None
            if msg.kind == MsgKind.ABORT:
                yield from self._worker_abort(txn_id, coordinator, ack=True)
                return None
            yield from self._worker_commit(txn_id)
            if self.ack_required:
                self.send(coordinator, MsgKind.ACK, txn_id)
            if self.worker_commit_is_forced:
                # With a lazy commit record the log must keep the
                # PREPARED records until COMMITTED is durable; the
                # flush callback checkpoints then.
                self.wal.checkpoint(txn_id)
            return None
        finally:
            self.server.close_session(txn_id)

    def _await_prepare(self, txn_id: int, coordinator: str, inbox: "Store") -> Generator:
        """Report the execution (UPDATED) and wait for the voting
        phase; ``False`` when the coordinator aborted or went silent
        instead, and the worker has rolled back."""
        self.send(coordinator, MsgKind.UPDATED, txn_id, ok=True)
        msg = yield self.recv(
            inbox,
            _PREPARE_OR_ABORT,
            timeout=self.params.failure.reply_timeout * (ACK_RETRIES + 1),
        )
        if msg is TIMED_OUT or msg.kind == MsgKind.ABORT:
            yield from self._worker_abort(txn_id, coordinator, ack=msg is not TIMED_OUT)
            return False
        return True

    def _await_decision(self, txn_id: int, coordinator: str, inbox: "Store") -> Generator:
        """Wait for COMMIT/ABORT; when it doesn't come, keep asking."""
        msg = yield self.recv(
            inbox, DECISIONS, timeout=self.params.failure.reply_timeout * (ACK_RETRIES + 1)
        )
        if msg is TIMED_OUT:
            msg = yield from self._query_decision(txn_id, coordinator, inbox)
        return msg

    def _query_decision(self, txn_id: int, coordinator: str, inbox: "Store") -> Generator:
        """Ask the coordinator for the outcome until it answers.

        A prepared 2PC worker is *blocked*: it cannot decide
        unilaterally and must query the coordinator until it learns the
        outcome — across partitions and coordinator reboots.
        :data:`~repro.sim.TIMED_OUT` when it never does.
        """
        interval = self.params.failure.reply_timeout * (ACK_RETRIES + 1)
        for _attempt in range(DECISION_RETRIES):
            self.send(coordinator, MsgKind.DECISION_REQ, txn_id)
            msg = yield self.recv(inbox, DECISIONS, timeout=interval)
            if msg is not TIMED_OUT:
                return msg
        return TIMED_OUT

    def _worker_prepare(self, txn_id: int, coordinator: str) -> "Event":
        """Force the worker's updates + PREPARED; the flush event."""
        return self.wal.force(
            self.updates_rec(txn_id, self.store.updates_of(txn_id)),
            self.state_rec(RecordKind.PREPARED, txn_id, coordinator=coordinator),
        )

    def _announce_vote(self, txn_id: int, coordinator: str) -> None:
        """Deliver the worker's durable PREPARED vote.

        2PC variants tell the coordinator directly; Paxos Commit
        overrides this to send ballots to the acceptors instead.
        """
        self.send(coordinator, MsgKind.PREPARED, txn_id)

    def _worker_commit(self, txn_id: int) -> Generator:
        """Write the worker's COMMITTED record, apply and release."""
        if self.worker_commit_is_forced:
            yield self.wal.force(self.state_rec(RecordKind.COMMITTED, txn_id))
            self.store.commit_durable(txn_id)
        else:
            # Lazy commit record (PrC/EP): visible in the cache now,
            # hardened when the flush lands; then the log can be
            # garbage collected — nobody will ever ask about a
            # presumed-commit transaction again.
            self.store.commit(txn_id)
            flush = self.wal.append_lazy(self.state_rec(RecordKind.COMMITTED, txn_id))
            # The first callback of the fresh event ``append_lazy`` hands out.
            flush._callbacks = [self._harden_and_gc(txn_id)]
        self.locks.release_all(txn_id)

    def _harden_and_gc(self, txn_id: int) -> Callable[["Event"], None]:
        def on_flush(event: "Event") -> None:
            if event._ok:
                self.store.harden(txn_id)
                self.wal.checkpoint(txn_id)

        return on_flush

    def _worker_abort(self, txn_id: int, coordinator: str, ack: bool) -> Generator:
        yield from self._force_abort_record(txn_id)
        self.store.abort(txn_id)
        self.locks.release_all(txn_id)
        if ack and self.abort_ack_required:
            self.send(coordinator, MsgKind.ACK, txn_id)
        self.wal.checkpoint(txn_id)

    # ------------------------------------------------------------------
    # Recovery (§II-C)
    # ------------------------------------------------------------------

    def _workers_from(self, records: Sequence[LogRecord]) -> list[str]:
        for record in records:
            if record.kind == RecordKind.STARTED:
                return list(record.payload.get("workers", []))
        return []

    def _recover_coordinator(
        self,
        txn_id: int,
        state: Optional[RecordKind],
        records: Sequence[LogRecord],
    ) -> Generator:
        workers = self._workers_from(records)
        inbox = self.server.open_session(txn_id)
        try:
            if state == RecordKind.STARTED:
                # Crashed before preparing: updates lost -> abort.
                yield from self._force_abort_record(txn_id, reason="coordinator crash")
                yield from self._abort_workers(workers, txn_id, inbox)
                self.obs.annotate("recovery", self.me, txn=txn_id, action="abort")
            elif state == RecordKind.PREPARED:
                # "The coordinator resubmits the PREPARE request to the
                # worker and continues with the normal protocol
                # execution."
                yield from self.reapply(txn_id, self.logged_updates(records))
                try:
                    yield from self._voting_round(workers, txn_id, inbox)
                except TransactionAborted as aborted:
                    yield from self._force_abort_record(txn_id, reason=aborted.reason)
                    self.store.abort(txn_id)
                    yield from self._abort_workers(workers, txn_id, inbox)
                    self.obs.annotate("recovery", self.me, txn=txn_id, action="abort-after-vote")
                    return
                yield self.wal.force(self.state_rec(RecordKind.COMMITTED, txn_id))
                self.store.commit_durable(txn_id)
                yield from self._finish_commit(workers, txn_id, inbox)
                self.obs.annotate("recovery", self.me, txn=txn_id, action="resume-commit")
            elif state == RecordKind.COMMITTED:
                # "The coordinator resends the COMMIT request."
                yield from self.refold(txn_id, self.logged_updates(records))
                yield from self._finish_commit(workers, txn_id, inbox)
                self.obs.annotate("recovery", self.me, txn=txn_id, action="resend-commit")
            elif state == RecordKind.ABORTED:
                yield from self._abort_workers(workers, txn_id, inbox)
                self.obs.annotate("recovery", self.me, txn=txn_id, action="resend-abort")
        finally:
            self.server.close_session(txn_id)

    def _recover_worker(
        self,
        txn_id: int,
        state: Optional[RecordKind],
        records: Sequence[LogRecord],
    ) -> Generator:
        if state == RecordKind.PREPARED:
            # "The worker asks the coordinator to resend the decision."
            yield from self.reapply(txn_id, self.logged_updates(records))
            coordinator = self.coordinator_from(records)
            inbox = self.server.open_session(txn_id)
            try:
                if coordinator is None:
                    self.obs.annotate("recovery", self.me, txn=txn_id, action="no-coordinator")
                    return
                msg = yield from self._query_decision(txn_id, coordinator, inbox)
                if msg is TIMED_OUT:
                    self.obs.annotate("recovery", self.me, txn=txn_id, action="still-blocked")
                    return
                if msg.kind == MsgKind.COMMIT:
                    yield from self._worker_commit(txn_id)
                    if self.ack_required:
                        self.send(coordinator, MsgKind.ACK, txn_id)
                else:
                    yield from self._worker_abort(txn_id, coordinator, ack=True)
                self.wal.checkpoint(txn_id)
                self.obs.annotate("recovery", self.me, txn=txn_id, action="worker-resolved")
            finally:
                self.server.close_session(txn_id)
        elif state == RecordKind.COMMITTED:
            # "The failure occurred after the worker has received the
            # decision.  The worker takes no action."  (We still fold
            # the logged updates into the committed image when the
            # crash hit between the log force and the fold.)
            yield from self.refold(txn_id, self.logged_updates(records))
            self.wal.checkpoint(txn_id)
            self.obs.annotate("recovery", self.me, txn=txn_id, action="worker-done")
        elif state == RecordKind.ABORTED:
            self.wal.checkpoint(txn_id)

    # ------------------------------------------------------------------
    # Stray messages (post-recovery decisions)
    # ------------------------------------------------------------------

    def handle_stray(self, msg: Message) -> Optional[Generator]:
        if msg.kind == MsgKind.COMMIT and self.wal.last_state(msg.txn_id) == RecordKind.PREPARED:
            # A decision arriving after reboot for a prepared txn whose
            # recovery query raced with the coordinator's retransmission.
            return self._finish_stray_commit(msg)
        if msg.kind == MsgKind.ABORT and self.wal.last_state(msg.txn_id) == RecordKind.PREPARED:
            return self._worker_abort(msg.txn_id, msg.src, ack=True)
        return super().handle_stray(msg)

    def _finish_stray_commit(self, msg: Message) -> Generator:
        if not self.store.has_applied(msg.txn_id):
            records = self.wal.records_for(msg.txn_id)
            yield from self.reapply(msg.txn_id, self.logged_updates(records))
        yield from self._worker_commit(msg.txn_id)
        if self.ack_required:
            self.send(msg.src, MsgKind.ACK, msg.txn_id)
        self.wal.checkpoint(msg.txn_id)


register_protocol(
    ProtocolSpec(
        name="PrN",
        engine=PresumeNothingProtocol,
        summary="Two Phase Commit, baseline Presume Nothing variant (§II-A)",
        log_records=("STARTED", "UPDATES", "PREPARED", "COMMITTED", "ABORTED", "ENDED"),
        paper_figure6=15.0,
        table1_row=(5, 1, 4, 1, 4, 4),
        citation=(
            "Mohan, Lindsay & Obermarck, 'Transaction Management in the R* "
            "Distributed Database Management System' (TODS 1986)"
        ),
        order=0,
    )
)
