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

from typing import Any, Callable, Optional, Sequence

from repro.net.message import Message
from repro.protocols.base import (
    ACKS,
    DECISIONS,
    UPDATE_REPLIES,
    VOTES,
    MsgKind,
    Protocol,
    ProtocolSpec,
    Session,
    Step,
    Transaction,
    Worker,
    register_protocol,
)
from repro.sim import TIMED_OUT, Event
from repro.storage.records import LogRecord, RecordKind

#: How many times a coordinator retransmits COMMIT/ABORT waiting for ACK.
ACK_RETRIES = 5
#: How many times a blocked (prepared) worker re-queries the
#: coordinator for the decision.  A prepared 2PC worker cannot decide
#: unilaterally; it must keep asking (2PC's blocking property).  The
#: bound only exists to keep simulations finite.
DECISION_RETRIES = 100

_PREPARE_OR_ABORT = frozenset({MsgKind.PREPARE, MsgKind.ABORT})
#: What a prepared worker waits for: the decision, or a PREPARE that a
#: recovering coordinator resent, which it answers with its vote again.
_DECISION_OR_PREPARE = DECISIONS | {MsgKind.PREPARE}


class OwnPrepare(Session):
    """The coordinator's own prepare, alongside the voting round; ``done``
    succeeds once its UPDATES+PREPARED are durable.  A crash kills this
    session before the log fails the write; a fenced log's failed write
    is left undefused, so the kernel raises it."""

    def __init__(self, engine: "PresumeNothingProtocol", txn_id: int) -> None:
        super().__init__(engine, txn_id)
        self.done = Event(engine.sim)
        self.start(self._prepare)

    def _prepare(self, _: Any) -> None:
        p, txn_id = self.p, self.txn_id
        updates = p.updates_rec(txn_id, p.store.updates_of(txn_id))
        self.wait(p.wal.force(updates, p.state_rec(RecordKind.PREPARED, txn_id)), self._prepared)

    def _prepared(self, _: Any) -> None:
        self.end()
        self.done.succeed()


class PrNCoordinator(Session):
    """The 2PC coordinator of a client's transaction (:meth:`begin`) or
    of one a crash left open (:meth:`recover`, ``txn`` is ``None``)."""

    own: Optional[OwnPrepare] = None

    def begin(self, txn: Transaction) -> None:
        p, txn_id = self.p, self.txn_id
        self.txn, self.workers = txn, txn.workers
        self.inbox = p.server.open_session(txn_id)
        started = p.state_rec(RecordKind.STARTED, txn_id, op=txn.plan.op, workers=list(txn.workers))
        self.wait(p.wal.force(started), self._started)

    def _started(self, _: Any) -> None:
        # Growing phase of 2PL, then the local cache updates.
        plan, me = self.txn.plan, self.p.me
        self.lock_and_apply(plan.locks(me), plan.updates[me], self.collect_votes)

    def collect_votes(self, _: Any) -> None:
        """Execution round (UPDATE_REQ / UPDATED with every worker),
        then the voting phase with our own prepare running alongside
        ("the coordinator itself ... also starts preparing")."""
        p, txn = self.p, self.txn
        for worker in txn.workers:
            p.ship_updates(worker, txn.txn_id, txn.plan)
        self.gather(txn.workers, UPDATE_REPLIES, "UPDATED", "rejected the updates", self._executed)

    def _executed(self, _: Any) -> None:
        self.own = self.p.OwnPrepare(self.p, self.txn_id)
        self.voting_round(self._voted)

    def voting_round(self, then: Step) -> None:
        """PREPARE to every worker; one PREPARED vote from each."""
        for worker in self.workers:
            self.p.send(worker, MsgKind.PREPARE, self.txn_id)
        self.gather(self.workers, VOTES, "votes", "voted NOT-PREPARED", then)

    def _voted(self, _: Any) -> None:
        self.wait(self.own.done, self._commit)

    def _commit(self, _: Any = None) -> None:
        p = self.p
        self.wait(p.wal.force(p.state_rec(RecordKind.COMMITTED, self.txn_id)), self._committed)

    def _committed(self, _: Any) -> None:
        self.p.store.commit_durable(self.txn_id)
        if self.txn is not None:  # recovery holds no locks
            self.p.locks.release_all(self.txn_id)
        self.finish_commit()

    def finish_commit(self, _: Any = None) -> None:
        """The commit phase once COMMITTED is durable: announce it,
        collect the ACKs, close the log entry.  The client hears the
        outcome on the way — before the COMMIT messages under presumed
        commit, after the ACKs otherwise."""
        p = self.p
        self._replied = None
        if p.reply_before_commit_msg:
            self._replied = p.reply_to_client(self.txn, committed=True)
        for worker in self.workers:
            p.send(worker, MsgKind.COMMIT, self.txn_id)
        if p.ack_required:
            return self.collect_acks(MsgKind.COMMIT, self._commit_acked)
        self._commit_acked(True)

    def _commit_acked(self, _: Any) -> None:
        p, txn_id = self.p, self.txn_id
        if p.coordinator_writes_ended:
            p.finalize(txn_id)
        if self._replied is None:
            self._replied = p.reply_to_client(self.txn, committed=True)
        p.wal.checkpoint(txn_id)
        if self.txn is None:
            return self._recovered(None)
        p.outcome(self.txn, committed=True, replied_at=self._replied)
        self.end()

    def collect_acks(self, kind: str, then: Step) -> None:
        """Wait for every worker's ACK, retransmitting the decision
        ``kind``: ``then(True)`` once all are in, ``then(False)`` when
        the retries run out."""
        self._pending = set(self.workers)
        if not self._pending:
            return then(True)
        self._retries, self._decision, self._acks_then = ACK_RETRIES, kind, then
        timeout = self.p.params.failure.reply_timeout
        self.wait(self.p.recv(self.inbox, ACKS, timeout=timeout), self._acks)

    def _acks(self, ev: Event) -> None:
        p, pending, msg = self.p, self._pending, ev._value
        if msg is not TIMED_OUT:
            pending.discard(msg.src)
        else:  # this attempt is over: retransmit to the silent
            for worker in sorted(pending):
                p.send(worker, self._decision, self.txn_id)
            self._retries -= 1
            if not self._retries:
                missing, decision = sorted(pending), self._decision
                p.obs.annotate("ack_gave_up", p.me, txn=self.txn_id, missing=missing, decision=decision)
                then, self._acks_then = self._acks_then, None
                return then(False)
        if pending:
            timeout = p.params.failure.reply_timeout
            return self.wait(p.recv(self.inbox, ACKS, timeout=timeout), self._acks)
        then, self._acks_then = self._acks_then, None
        then(True)

    def abort(self, reason: str) -> None:
        if self.txn is None:  # recovery: the resent PREPARE was refused
            self._action = "abort-after-vote"
            abort = self.p._force_abort_record(self.txn_id, reason=reason)
            return self.wait(abort, self._rolled_back)
        if self.own is None:
            return self._abort(reason)
        self._reason = reason
        self.wait(self.own.done, self._abort_when_prepared)

    def _abort_when_prepared(self, _: Any) -> None:
        self._abort(self._reason)

    def _abort(self, reason: str) -> None:
        """Abort path: force ABORTED, tell the workers, release, reply."""
        self._reason = reason
        self.wait(self.p._force_abort_record(self.txn_id, reason=reason), self._aborted)

    def _aborted(self, _: Any) -> None:
        p, txn, txn_id = self.p, self.txn, self.txn_id
        p.store.abort(txn_id)
        p.locks.release_all(txn_id)
        for worker in txn.workers:
            p.send(worker, MsgKind.ABORT, txn_id)
        self._replied = p.reply_to_client(txn, committed=False, reason=self._reason)
        if p.abort_ack_required:
            return self.collect_acks(MsgKind.ABORT, self._abort_acked)
        # Presumed abort: no record was forced, so there is nothing to
        # acknowledge and nothing to end.
        p.wal.checkpoint(txn_id)
        self._abort_acked(False)

    def _abort_acked(self, acked: bool) -> None:
        p = self.p
        if acked:
            # Only a fully acknowledged abort may be forgotten: under
            # presumed commit, a missing log entry means COMMIT, so the
            # ABORTED record must survive until every prepared worker
            # has heard the decision.
            p.finalize(self.txn_id)
            p.wal.checkpoint(self.txn_id)
        p.outcome(self.txn, committed=False, replied_at=self._replied, reason=self._reason)
        self.end()

    # -- recovery (§II-C) ---------------------------------------------------------------

    def recover(self, state: Optional[RecordKind], records: Sequence[LogRecord]) -> None:
        p, txn_id = self.p, self.txn_id
        self.workers = p._workers_from(records)
        self.inbox = p.server.open_session(txn_id)
        if state == RecordKind.STARTED:
            # Crashed before preparing: updates lost -> abort.
            self._action = "abort"
            abort = p._force_abort_record(txn_id, reason="coordinator crash")
            return self.wait(abort, self.abort_workers)
        if state == RecordKind.PREPARED:
            # "The coordinator resubmits the PREPARE request to the
            # worker and continues with the normal protocol execution."
            self._action = "resume-commit"
            return self.reapply(p.logged_updates(records), self._revote)
        if state == RecordKind.COMMITTED:
            # "The coordinator resends the COMMIT request."
            self._action = "resend-commit"
            return self.reapply(p.logged_updates(records), self.finish_commit, fold=True)
        if state == RecordKind.ABORTED:
            self._action = "resend-abort"
            return self.abort_workers(None)
        self.end()

    def _revote(self, _: Any) -> None:
        self.voting_round(self._commit)

    def _rolled_back(self, _: Any) -> None:
        self.p.store.abort(self.txn_id)
        self.abort_workers(None)

    def abort_workers(self, _: Any) -> None:
        """Announce a durable ABORT; forget it once every ACK is in."""
        for worker in self.workers:
            self.p.send(worker, MsgKind.ABORT, self.txn_id)
        if self.p.abort_ack_required:
            return self.collect_acks(MsgKind.ABORT, self._forget)
        self._forget(True)

    def _forget(self, acked: bool) -> None:
        if acked:
            self.p.wal.checkpoint(self.txn_id)
        self._recovered(None)

    def _recovered(self, _: Any) -> None:
        p = self.p
        p.obs.annotate("recovery", p.me, txn=self.txn_id, action=self._action)
        self.end()


class PrNWorker(Worker):
    """The 2PC worker of a remote transaction (:meth:`begin`: execution,
    voting, decision), of one a crash left prepared (:meth:`recover`),
    or of a decision that arrives for one after it gave up (a stray).
    ``_action`` names what recovery reports (``None`` in a live leg)."""

    _action: Optional[str] = None

    def begin(self, first: Message) -> None:
        if first.kind != MsgKind.UPDATE_REQ:
            # A PREPARE with no prior session: we lost the updates
            # (e.g. rebooted); vote no (§II-C "no entry in the log").
            self.p.send(self.coordinator, MsgKind.NOT_PREPARED, self.txn_id)
            return self.end()
        self.execute(first, self.await_prepare)

    def await_prepare(self, _: Any) -> None:
        """Report the execution (UPDATED) and wait for the voting phase."""
        p = self.p
        p.send(self.coordinator, MsgKind.UPDATED, self.txn_id, ok=True)
        timeout = p.params.failure.reply_timeout * (ACK_RETRIES + 1)
        self.wait(p.recv(self.inbox, _PREPARE_OR_ABORT, timeout=timeout), self.prepare)

    def prepare(self, ev: Optional[Event]) -> None:
        msg = ev._value if ev is not None else None
        if msg is TIMED_OUT or msg is not None and msg.kind == MsgKind.ABORT:
            # The coordinator aborted or went silent instead: roll back.
            return self.roll_back(msg is not TIMED_OUT, self.end)
        self.wait(self.p._worker_prepare(self.txn_id, self.coordinator), self._prepared)

    def _prepared(self, _: Any) -> None:
        p = self.p
        p._announce_vote(self.txn_id, self.coordinator)
        timeout = p.params.failure.reply_timeout * (ACK_RETRIES + 1)
        self._deadline = self.sim.now + timeout
        self.wait(p.recv(self.inbox, _DECISION_OR_PREPARE, timeout=timeout), self._decided)

    def _decided(self, ev: Event) -> None:
        """The decision, or — when it doesn't come — keep asking."""
        msg = ev._value
        if msg is TIMED_OUT:
            return self.query_decision()
        if msg.kind == MsgKind.PREPARE:
            return self._vote_again(self._decided)
        self._resolve(msg)

    def _vote_again(self, step: Step) -> None:
        """A recovering coordinator resent PREPARE (§II-C "resubmits the
        PREPARE request"): vote again, wait on until the same deadline."""
        self.p._announce_vote(self.txn_id, self.coordinator)
        self.recv_until(_DECISION_OR_PREPARE, self._deadline, step)

    def query_decision(self, attempts: int = DECISION_RETRIES) -> None:
        """Ask the coordinator for the outcome until it answers.  A
        prepared 2PC worker is *blocked*: it cannot decide unilaterally
        and must keep asking — across partitions and coordinator reboots."""
        p, self._attempts = self.p, attempts
        p.send(self.coordinator, MsgKind.DECISION_REQ, self.txn_id)
        interval = p.params.failure.reply_timeout * (ACK_RETRIES + 1)
        self._deadline = self.sim.now + interval
        self.wait(p.recv(self.inbox, _DECISION_OR_PREPARE, timeout=interval), self._answered)

    def _answered(self, ev: Event) -> None:
        msg = ev._value
        if msg is TIMED_OUT and self._attempts > 1:
            return self.query_decision(self._attempts - 1)
        if msg is not TIMED_OUT and msg.kind == MsgKind.PREPARE:
            return self._vote_again(self._answered)
        self._resolve(msg)

    def _resolve(self, msg: Any) -> None:
        p = self.p
        if msg is TIMED_OUT:
            if self._action is None:
                p.obs.annotate("worker_blocked", p.me, txn=self.txn_id)
            else:
                p.obs.annotate("recovery", p.me, txn=self.txn_id, action="still-blocked")
            return self.end()
        if msg.kind == MsgKind.ABORT:
            return self.roll_back(True, self.end if self._action is None else self._settle)
        self.commit()

    def commit(self, _: Any = None) -> None:
        """Write the worker's COMMITTED record, apply and release, ACK."""
        p, txn_id = self.p, self.txn_id
        if p.worker_commit_is_forced:
            return self.wait(p.wal.force(p.state_rec(RecordKind.COMMITTED, txn_id)), self._durable)
        # Lazy commit record (PrC/EP): visible in the cache now,
        # hardened when the flush lands; then the log can be garbage
        # collected — nobody will ever ask about a presumed-commit
        # transaction again.
        p.store.commit(txn_id)
        flush = p.wal.append_lazy(p.state_rec(RecordKind.COMMITTED, txn_id))
        # The first callback of the fresh event ``append_lazy`` hands out.
        flush._callbacks = [p._harden_and_gc(txn_id)]
        p.locks.release_all(txn_id)
        self._committed()

    def _durable(self, _: Any) -> None:
        self.p.store.commit_durable(self.txn_id)
        self.p.locks.release_all(self.txn_id)
        self._committed()

    def _committed(self) -> None:
        p = self.p
        if p.ack_required:
            p.send(self.coordinator, MsgKind.ACK, self.txn_id)
        if self._action is not None:
            return self._settle(None)
        if p.worker_commit_is_forced:
            # With a lazy commit record the log must keep the PREPARED
            # records until COMMITTED is durable; the flush callback
            # checkpoints then.
            p.wal.checkpoint(self.txn_id)
        self.end()

    def roll_back(self, ack: bool, then: Step) -> None:
        """Abort here, acknowledging it if ``ack``; then ``then(None)``."""
        self._ack, self._then = ack, then
        self.wait(self.p._force_abort_record(self.txn_id), self._rolled_back)

    def _rolled_back(self, _: Any) -> None:
        p, txn_id = self.p, self.txn_id
        p.store.abort(txn_id)
        p.locks.release_all(txn_id)
        if self._ack and p.abort_ack_required:
            p.send(self.coordinator, MsgKind.ACK, txn_id)
        p.wal.checkpoint(txn_id)
        then, self._then = self._then, None
        then(None)

    # -- recovery (§II-C) and the decisions that outlive a session -----------------------

    def recover(self, state: Optional[RecordKind], records: Sequence[LogRecord]) -> None:
        p = self.p
        if state == RecordKind.PREPARED:
            # "The worker asks the coordinator to resend the decision."
            # The inbox opens first: a decision that comes while the
            # updates are re-installed waits there, not as a stray.
            self._action = "worker-resolved"
            self.inbox = p.server.open_session(self.txn_id)
            return self.reapply(p.logged_updates(records), self._requery)
        # "The failure occurred after the worker has received the
        # decision.  The worker takes no action."  Its COMMITTED or
        # ABORTED outlives the callback that folds or drops the updates
        # and checkpoints only when the crash lands at the instant the
        # record does: fold a commit here, then checkpoint.
        self._action = "worker-done"
        committed = state == RecordKind.COMMITTED
        self.reapply(p.logged_updates(records) if committed else (), self._settle, fold=committed)

    def _requery(self, _: Any) -> None:
        self.query_decision()

    def _settle(self, _: Any) -> None:
        p = self.p
        p.wal.checkpoint(self.txn_id)
        p.obs.annotate("recovery", p.me, txn=self.txn_id, action=self._action)
        self.end()


class PresumeNothingProtocol(Protocol):
    """The classic 2PC protocol; generalises to any number of workers."""

    name = "PrN"
    max_workers = None
    Coordinator = PrNCoordinator
    Worker = PrNWorker
    OwnPrepare = OwnPrepare

    #: Subclass knobs (the PrC/EP optimisations flip these).
    reply_before_commit_msg = False  # PrN replies only after the ACKs
    worker_commit_is_forced = True
    coordinator_writes_ended = True
    ack_required = True
    #: Aborts are acknowledged in every 2PC-family protocol (PrC's
    #: presumption covers commits only; "in the abort case the PrC
    #: behaves in the same way as the PrN").
    abort_ack_required = True

    def _force_abort_record(self, txn_id: int, **payload: Any) -> Optional[Event]:
        """Make an abort decision durable before acting on it: the flush
        to wait for.  Presumed-abort engines write no record (``None``):
        absence of coordinator log state already answers later decision
        queries with ABORT."""
        return self.wal.force(self.state_rec(RecordKind.ABORTED, txn_id, **payload))

    def _worker_prepare(self, txn_id: int, coordinator: str) -> Event:
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

    def _harden_and_gc(self, txn_id: int) -> Callable[[Event], None]:
        def on_flush(event: Event) -> None:
            # A crash at the instant the record landed dropped the
            # cache's commit: the reboot's recovery folds it (worker-done).
            if event._ok and not self.server.crashed:
                self.store.harden(txn_id)
                self.wal.checkpoint(txn_id)

        return on_flush

    def _workers_from(self, records: Sequence[LogRecord]) -> list[str]:
        for record in records:
            if record.kind == RecordKind.STARTED:
                return list(record.payload.get("workers", []))
        return []

    def handle_stray(self, msg: Message) -> Optional[Callable[[Message], None]]:
        if msg.kind == MsgKind.COMMIT and self.wal.last_state(msg.txn_id) == RecordKind.PREPARED:
            # The decision, late, for a prepared txn whose worker gave up.
            return self._stray_commit
        if msg.kind == MsgKind.ABORT and self.wal.last_state(msg.txn_id) == RecordKind.PREPARED:
            return self._stray_abort
        return super().handle_stray(msg)

    def _stray_commit(self, msg: Message) -> None:
        """A COMMIT for a prepared transaction with no session here: its
        worker stopped asking (``still-blocked``, the updates still in
        the cache), or the reboot's recovery has not reached it yet (the
        crash dropped them).  Re-install what the cache lacks, commit;
        copies of the COMMIT meanwhile wait in the inbox."""
        txn_id = msg.txn_id
        session = self.Worker(self, txn_id, msg.src, self.server.open_session(txn_id))
        session._action = "stray-commit"
        lost = self.logged_updates(self.wal.records_for(txn_id))
        session.reapply(() if self.store.updates_of(txn_id) else lost, session.commit)

    def _stray_abort(self, msg: Message) -> None:
        session = self.Worker(self, msg.txn_id, msg.src)
        session.roll_back(True, session.end)


register_protocol(
    ProtocolSpec(
        name="PrN",
        engine=PresumeNothingProtocol,
        summary="Two Phase Commit, baseline Presume Nothing variant (§II-A)",
        log_records=("STARTED", "UPDATES", "PREPARED", "COMMITTED", "ABORTED", "ENDED"),
        recovery_actions=(
            "abort", "resume-commit", "resend-commit", "resend-abort", "abort-after-vote",
            "worker-resolved", "worker-done", "still-blocked", "stray-commit",
        ),
        paper_figure6=15.0,
        table1_row=(5, 1, 4, 1, 4, 4),  # Table I as printed in the paper
        citation=(
            "Mohan, Lindsay & Obermarck, 'Transaction Management in the R* "
            "Distributed Database Management System' (TODS 1986)"
        ),
        order=0,
    )
)
