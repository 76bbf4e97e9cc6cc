"""The One Phase Commit protocol (§III).

Failure-free flow (Figure 5):

==========  =====================================================
coordinator worker
==========  =====================================================
force STARTED + REDO (one write)
lock, update cache
UPDATE_REQ ->
            lock, update cache
            force UPDATES+COMMITTED, apply, release locks
            <- UPDATED
reply to client, release locks
force UPDATES+COMMITTED (async w.r.t. the client), apply
ACK ->
            lazy ENDED, checkpoint
==========  =====================================================

Key properties reproduced from the paper:

* the voting phase is gone: the worker's forced commit *is* its vote,
  and the redo record guarantees the coordinator can always re-execute
  ("no matter what will happen, the transaction will be committed
  eventually");
* the coordinator releases its locks and answers the client as soon as
  the UPDATED message arrives — its own commit record is written off
  the critical path;
* on a worker timeout the coordinator fences the worker and reads its
  log partition from the central storage (see
  :mod:`repro.core.recovery`) instead of blocking.

What is written here is the protocol's delta over the shared skeleton
in :mod:`repro.protocols.base` (worker-side execution, the ACK wait,
the log-scan recovery loop, redo-plan decoding): what 1PC forces and
when, how it collects the workers' commits, and the §III-C recovery
cases.  The redo replay runs the *same* coordinator body as a client
request — it just has no client to answer.

Cost accounting (Table I row 1PC): (3, 1) log writes total, (2, 0) in
the critical path, 1 extra message (ACK), none in the critical path.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.core.recovery import WorkerProbeResult, probe_worker_log
from repro.fs.operations import OpPlan
from repro.net.message import Message
from repro.protocols.base import (
    ACK_WAIT_FACTOR,
    UPDATE_REPLIES,
    MsgKind,
    Protocol,
    ProtocolSpec,
    Session,
    Step,
    Transaction,
    Worker,
    register_protocol,
)
from repro.protocols.registry import CAP_SHARED_LOG
from repro.sim import TIMED_OUT, Event
from repro.storage.fencing import FencedError
from repro.storage.records import LogRecord, RecordKind
from repro.storage.wal import LogLostError

#: How many times the coordinator retransmits a decided commit to a
#: worker that missed the decision (each attempt waits out a rebooting
#: worker for ``ACK_WAIT_FACTOR`` reply timeouts).
COMMIT_DRIVE_RETRIES = 8

_CONFIRMATIONS = frozenset({MsgKind.UPDATED, MsgKind.NOT_PREPARED, MsgKind.ACK_REQ})


class OnePhaseCoordinator(Session):
    """The 1PC coordinator of a client's transaction (:meth:`begin`), of
    its redo replay (:meth:`redo`), or of a transaction a crash left
    committed (:meth:`recover`)."""

    def begin(self, txn: Transaction) -> None:
        p, txn_id, plan = self.p, self.txn_id, txn.plan
        self.txn, self.plan = txn, plan
        self.inbox = p.server.open_session(txn_id)
        # STARTED plus the redo record for the whole namespace
        # operation, forced in a single log write.
        started = p.state_rec(RecordKind.STARTED, txn_id, op=plan.op, workers=list(txn.workers))
        self.wait(p.wal.force(started, p.redo_rec(txn_id, plan)), self.execute)

    def redo(self, plan: OpPlan) -> None:
        """Redo-record replay: run the transaction again end to end
        ("no matter what will happen, the transaction will be committed
        eventually") — unless, again, no worker commits."""
        p = self.p
        p.obs.annotate("recovery", p.me, txn=self.txn_id, action="redo")
        self.plan = plan
        self.inbox = p.server.open_session(self.txn_id)
        self.execute(None)

    def execute(self, _: Any) -> None:
        """Execute, collect the workers' commits, decide, commit.

        Runs for a client's ``txn`` and, with none, for the §III-C redo
        replay: the same steps, nobody to answer.
        """
        plan, me = self.plan, self.p.me
        self.lock_and_apply(plan.locks(me), plan.updates[me], self._ship)

    def _ship(self, _: Any) -> None:
        p, plan = self.p, self.plan
        for worker in plan.workers:
            p.ship_updates(worker, self.txn_id, plan, commit=True)
        # Collect every worker's vote: its forced commit (UPDATED), a
        # refusal (NOT_PREPARED), or — once it goes silent — the
        # verdict of its shared-log probe (§III-C, per participant).
        self.pending = dict.fromkeys(plan.workers)
        self.committed: list[str] = []
        self.failed: dict[str, str] = {}
        if self.pending:
            return self._await_reply()
        self._probe_silent()

    def _await_reply(self) -> None:
        """Wait for one outstanding worker's reply, watching the failure
        detector (§III-A): when it is active, give up as soon as every
        still-silent worker is *suspected* instead of sitting out the
        full protocol timeout — heartbeats accelerate the fencing
        decision, they can never make it wrong.  A rebooted coordinator
        heard no heartbeats while it was down: only a live request may
        act on the detector's view."""
        p = self.p
        failure = p.params.failure
        self._heartbeats = self.txn is not None and bool(p.server.cluster.heartbeat_services)
        self._deadline = self.sim.now + failure.reply_timeout
        self._slice = failure.heartbeat_interval if self._heartbeats else failure.reply_timeout
        self.recv_until(UPDATE_REPLIES, self._deadline, self._replied, self._slice)

    def _replied(self, ev: Event) -> None:
        p, msg, pending = self.p, ev._value, self.pending
        if msg is TIMED_OUT:
            detector = p.server.cluster.failure_detector
            if self._heartbeats and all(detector.suspects(p.me, w) for w in pending):
                for worker in pending:
                    p.obs.annotate("early_suspicion", p.me, txn=self.txn_id, worker=worker)
                return self._probe_silent()
            if self.sim.now >= self._deadline:
                return self._probe_silent()
            return self.recv_until(UPDATE_REPLIES, self._deadline, self._replied, self._slice)
        if msg.src in pending:  # else a duplicate from an already-counted worker
            del pending[msg.src]
            if msg.kind == MsgKind.NOT_PREPARED:
                self.failed[msg.src] = (
                    f"worker {msg.src} rejected the updates: "
                    f"{msg.payload.get('reason', 'no reason given')}"
                )
            else:
                self.committed.append(msg.src)
        if pending:
            return self._await_reply()
        self._probe_silent()

    def _probe_silent(self) -> None:
        # Every worker still silent enters the shared-log recovery.
        self._silent = iter(list(self.pending))
        self._probed(None)

    def probe(self, worker: str) -> None:
        """Fence the worker and read its shared log (§III-C case 2)."""
        p = self.p
        p.obs.annotate("probe_start", p.me, txn=self.txn_id, worker=worker)
        self.wait(probe_worker_log(p.server.cluster, p.me, worker, self.txn_id), self._probed)

    def _probed(self, result: Optional[WorkerProbeResult]) -> None:
        if result is not None:
            if result.committed:
                self.committed.append(result.worker)
            else:
                self.failed[result.worker] = f"worker {result.worker} crashed before committing"
        for worker in self._silent:
            return self.probe(worker)
        self._decide()

    def _decide(self) -> None:
        p, txn_id, workers, failed = self.p, self.txn_id, self.plan.workers, self.failed
        outstanding = [w for w in workers if w in failed]
        reason = "; ".join(failed[w] for w in workers if w in failed) or None
        if workers and not self.committed:
            # Nobody's commit record is durable: refusers rolled back,
            # crashed workers lost their volatile state, fenced workers
            # can never force one — aborting is safe and unanimous.
            return self.abort(reason or "no worker committed")
        if outstanding:
            # Partial failure (§III-C generalised to k workers): at
            # least one worker's forced commit is durable, so the only
            # atomic outcome is COMMIT — the remaining workers must be
            # driven to it, never rolled back.
            committed = list(self.committed)
            p.obs.annotate(
                "partial_commit_resolution", p.me, txn=txn_id, committed=committed,
                outstanding=list(outstanding),
            )
        self.outstanding = outstanding
        # Decision reached: every worker has committed (or there is no
        # worker).  The updates become visible in the cache, the client
        # gets its reply and the locks drop *before* our commit write.
        p.store.commit(txn_id)
        self._replied_at = p.reply_to_client(self.txn, committed=True)
        p.locks.release_all(txn_id)
        # Force UPDATES+COMMITTED, then harden the stable image.
        updates = p.updates_rec(txn_id, p.store.updates_of(txn_id))
        self.wait(p.wal.force(updates, p.state_rec(RecordKind.COMMITTED, txn_id)), self._committed)

    def _committed(self, _: Any) -> None:
        p, txn_id = self.p, self.txn_id
        p.store.commit_durable(txn_id)
        for worker in self.committed:
            p.send(worker, MsgKind.ACK, txn_id)
        if self.outstanding:
            return self.drive(self.outstanding, self._driven)
        self._driven(None)

    def _driven(self, _: Any) -> None:
        p = self.p
        p.wal.checkpoint(self.txn_id)
        p.outcome(self.txn, committed=True, replied_at=self._replied_at)
        if self.txn is None:
            p.obs.annotate("recovery", p.me, txn=self.txn_id, action="redo-committed")
        self.end()

    def drive(self, stragglers: Sequence[str], then: Step) -> None:
        """Drive workers that missed a COMMIT decision to apply it.

        The decision is durable (our COMMITTED record plus at least one
        worker's), so each straggler is retransmitted the
        commit-carrying UPDATE_REQ marked ``decided`` until it
        confirms: a rebooted worker runs the session from scratch, a
        worker that already committed re-acknowledges from its log, and
        a worker that refused earlier applies the updates it rolled
        back — with one worker a refusal aborts the transaction, which
        is exactly why the paper's two-party 1PC never overrides a
        vote (§III); see :mod:`repro.core.fanout`.
        """
        self._stragglers, self._drive_then = iter(stragglers), then
        self._next_straggler()

    def _next_straggler(self) -> None:
        for self._straggler in self._stragglers:
            self._tries = COMMIT_DRIVE_RETRIES
            return self._retransmit()
        then, self._drive_then = self._drive_then, None
        then(None)

    def _retransmit(self) -> None:
        # One retransmission round: wait out even a rebooting worker,
        # answering ACK_REQs from already-committed peers meanwhile.
        p = self.p
        p.ship_updates(self._straggler, self.txn_id, self.plan, commit=True, decided=True)
        self._round_deadline = self.sim.now + p.params.failure.reply_timeout * ACK_WAIT_FACTOR
        self.recv_until(_CONFIRMATIONS, self._round_deadline, self._confirmed)

    def _confirmed(self, ev: Event) -> None:
        p, msg = self.p, ev._value
        if msg is not TIMED_OUT:
            if msg.kind == MsgKind.ACK_REQ or msg.src != self._straggler:
                if msg.kind == MsgKind.ACK_REQ:
                    p.send(msg.src, MsgKind.ACK, msg.txn_id)
                return self.recv_until(_CONFIRMATIONS, self._round_deadline, self._confirmed)
            if msg.kind == MsgKind.UPDATED:
                p.send(self._straggler, MsgKind.ACK, self.txn_id)
                return self._next_straggler()
        self._tries -= 1
        if self._tries:
            return self._retransmit()
        p.obs.annotate("commit_drive_exhausted", p.me, txn=self.txn_id, worker=self._straggler)
        self._next_straggler()

    def abort(self, reason: str) -> None:
        self._reason, p = reason, self.p
        aborted = p.state_rec(RecordKind.ABORTED, self.txn_id, reason=reason)
        self.wait(p.wal.force(aborted), self._aborted)

    def _aborted(self, _: Any) -> None:
        p, txn_id, reason = self.p, self.txn_id, self._reason
        p.store.abort(txn_id)
        p.locks.release_all(txn_id)
        replied_at = p.reply_to_client(self.txn, committed=False, reason=reason)
        p.wal.checkpoint(txn_id)
        p.outcome(self.txn, committed=False, replied_at=replied_at, reason=reason)
        self.end()

    # -- recovery (§III-C) ----------------------------------------------------------------

    def recover(self, state: Optional[RecordKind], records: Sequence[LogRecord]) -> None:
        p = self.p
        plan = p._redo_plan(records)
        if state == RecordKind.STARTED:
            # "The coordinator restarts the transaction from the
            # beginning" using the redo record.
            return self.redo(plan)
        if state == RecordKind.COMMITTED:
            # "The transaction is already committed and the coordinator
            # does nothing."  We still fold the updates if the crash hit
            # between the log force and the fold.
            self.plan = plan
            return self.reapply(p.logged_updates(records), self._redrive, fold=True)
        # ABORTED: its callback checkpoints it, unless the crash landed
        # at the instant the record did.
        p.wal.checkpoint(self.txn_id)
        self.end()

    def _redrive(self, _: Any) -> None:
        # COMMITTED outlives its callback while stragglers are driven
        # (1PC-N), or when the crash lands at the instant it does: it
        # proves the decision, not that everyone heard it, so re-drive
        # every worker; committed workers re-acknowledge from their logs.
        self.inbox = self.p.server.open_session(self.txn_id)
        self.drive(self.plan.workers, self._redriven)

    def _redriven(self, _: Any) -> None:
        p = self.p
        p.wal.checkpoint(self.txn_id)
        p.obs.annotate("recovery", p.me, txn=self.txn_id, action="already-committed")
        self.end()


class OnePhaseWorker(Worker):
    """The 1PC worker: its forced commit is its vote (:meth:`begin`); a
    rebooted worker reclaims the ACK (:meth:`recover`)."""

    def begin(self, first: Message) -> None:
        p, txn_id = self.p, self.txn_id
        if first.kind != MsgKind.UPDATE_REQ or not first.payload.get("commit"):
            p.send(self.coordinator, MsgKind.NOT_PREPARED, txn_id)
            return self.end()
        # A duplicate request (the coordinator re-executed after a
        # crash) finds the commit already done and only needs the
        # re-acknowledgement.
        if p.wal.has(RecordKind.COMMITTED, txn_id) or p.store.has_applied(txn_id):
            return self.vote()
        self.execute(first, self.force_commit)

    def force_commit(self, _: Any) -> None:
        """The worker's commit *is* its vote: force UPDATES+COMMITTED."""
        p, txn_id = self.p, self.txn_id
        updates = p.updates_rec(txn_id, p.store.updates_of(txn_id))
        committed = p.state_rec(RecordKind.COMMITTED, txn_id, coordinator=self.coordinator)
        try:
            self.wait(p.wal.force(updates, committed), self._forced)
        except FencedError:  # fenced already: the log refuses the append
            self._lost()

    def _forced(self, ev: Event) -> None:
        if not ev._ok:
            ev.defused = True
            if not isinstance(ev._value, (FencedError, LogLostError)):
                raise ev._value
            return self._lost()
        p = self.p
        p.store.commit_durable(self.txn_id)
        p.locks.release_all(self.txn_id)
        self.vote()

    def _lost(self) -> None:
        # Fenced mid-commit (the coordinator gave up on us) or crashed
        # log: the commit never became durable, so the coordinator will
        # read "no entry" and abort.  Drop everything locally.
        p = self.p
        p.store.abort(self.txn_id)
        p.locks.release_all(self.txn_id)
        p.obs.annotate("worker_fenced_mid_commit", p.me, txn=self.txn_id)
        self.end()

    def recover(self, state: Optional[RecordKind], records: Sequence[LogRecord]) -> None:
        # ENDED closes a transaction, so the log scan never hands one on.
        if state == RecordKind.COMMITTED:
            return self.reapply(self.p.logged_updates(records), self._reclaim, fold=True)
        self.end()

    def _reclaim(self, _: Any) -> None:
        # ``force_commit`` wrote the coordinator into COMMITTED.
        self.reclaim_ack(self.coordinator)


class OnePhaseCommitProtocol(Protocol):
    """The paper's tailored one-phase atomic commitment protocol."""

    name = "1PC"
    #: §III: the protocol is designed for namespace operations that
    #: involve exactly two MDSs (one coordinator + one worker).
    max_workers = 1
    update_flag = "commit"
    Coordinator = OnePhaseCoordinator
    Worker = OnePhaseWorker

    @staticmethod
    def _redo_plan(records: Sequence[LogRecord]) -> OpPlan:
        """The plan of the REDO record, forced in one write with STARTED."""
        for record in records:
            if record.kind == RecordKind.REDO:
                return OpPlan.from_description(record.payload["plan"])
        raise ValueError(f"transaction {records[0].txn_id} has STARTED but no REDO record")

    def handle_stray(self, msg: Message) -> Optional[Callable[[Message], None]]:
        if msg.kind == MsgKind.ACK_REQ:
            # A recovered worker wants its ACK.  If our log has no entry
            # the transaction was committed and checkpointed; if it has
            # COMMITTED we committed too.  Either way: ACK.
            if self.wal.last_state(msg.txn_id) in (None, RecordKind.COMMITTED, RecordKind.ENDED):
                return self._ack_stray
            return None
        return super().handle_stray(msg)


register_protocol(
    ProtocolSpec(
        name="1PC",
        engine=OnePhaseCommitProtocol,
        summary="The paper's One Phase Commit over a shared log (§III)",
        log_records=("STARTED", "REDO", "UPDATES", "COMMITTED", "ABORTED", "ENDED"),
        recovery_actions=("redo", "redo-committed", "already-committed", "ack-requested"),
        capabilities=frozenset({CAP_SHARED_LOG}),
        paper_figure6=24.0,
        table1_row=(3, 1, 2, 0, 1, 0),  # Table I as printed in the paper
        citation=(
            "Congiu, Narasimhamurthy, Suess & Brinkmann, 'One Phase Commit: "
            "A Low Overhead Atomic Commitment Protocol for Scalable Metadata "
            "Services' (CLUSTER 2012)"
        ),
        order=3,
    )
)
