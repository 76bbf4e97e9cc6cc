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

from typing import Generator, Optional

from repro.core.recovery import probe_worker_log
from repro.fs.operations import OpPlan
from repro.net.message import Message
from repro.protocols.base import (
    ACK_WAIT_FACTOR,
    UPDATE_REPLIES,
    MsgKind,
    Protocol,
    ProtocolSpec,
    Transaction,
    TransactionAborted,
    immediately,
    register_protocol,
)
from repro.protocols.registry import CAP_SHARED_LOG
from repro.sim import TIMED_OUT
from repro.storage.fencing import FencedError
from repro.storage.records import RecordKind
from repro.storage.wal import LogLostError

#: How many times the coordinator retransmits a decided commit to a
#: worker that missed the decision (each attempt waits out a rebooting
#: worker for ``ACK_WAIT_FACTOR`` reply timeouts).
COMMIT_DRIVE_RETRIES = 8

_CONFIRMATIONS = frozenset({MsgKind.UPDATED, MsgKind.NOT_PREPARED, MsgKind.ACK_REQ})


class OnePhaseCommitProtocol(Protocol):
    """The paper's tailored one-phase atomic commitment protocol."""

    name = "1PC"
    #: §III: the protocol is designed for namespace operations that
    #: involve exactly two MDSs (one coordinator + one worker).
    max_workers = 1

    def claims_worker_message(self, msg: Message) -> bool:
        """1PC marks its UPDATE_REQ with ``commit=True``; a bare
        UPDATE_REQ or a PREPARE belongs to the 2PC-family fallback."""
        if msg.kind == MsgKind.UPDATE_REQ and not msg.payload.get("commit"):
            return False
        if msg.kind == MsgKind.PREPARE:
            return False
        return True

    # ------------------------------------------------------------------
    # Coordinator
    # ------------------------------------------------------------------

    def coordinate(self, txn: Transaction) -> Generator:
        self.check_fanout(txn)
        txn_id, plan = txn.txn_id, txn.plan
        inbox = self.server.open_session(txn_id)
        try:
            # STARTED plus the redo record for the whole namespace
            # operation, forced in a single log write.
            yield self.wal.force(
                self.state_rec(RecordKind.STARTED, txn_id, op=plan.op, workers=list(txn.workers)),
                self.redo_rec(txn_id, plan),
            )
            try:
                return (yield from self._coordinate_body(txn_id, plan, inbox, txn))
            except TransactionAborted as aborted:
                return (yield from self._abort(txn_id, aborted.reason, txn))
        finally:
            self.server.close_session(txn_id)

    def _coordinate_body(
        self, txn_id: int, plan: OpPlan, inbox, txn: Optional[Transaction] = None
    ) -> Generator:
        """Execute, collect the workers' commits, decide, commit.

        Runs for a client's ``txn`` and, with none, for the §III-C redo
        replay: the same steps, nobody to answer.
        """
        yield from self.lock_and_apply(txn_id, plan.locks(self.me), plan.updates[self.me])

        workers = plan.workers
        for worker in workers:
            self.ship_updates(worker, txn_id, plan, commit=True)
        # A rebooted coordinator heard no heartbeats while it was down:
        # only a live request may act on the failure detector's view.
        committed, outstanding, reason = yield from self._collect_worker_commits(
            txn_id, workers, inbox, watch_detector=txn is not None
        )
        if workers and not committed:
            # Nobody's commit record is durable: refusers rolled back,
            # crashed workers lost their volatile state, fenced workers
            # can never force one — aborting is safe and unanimous.
            raise TransactionAborted(reason or "no worker committed")
        if outstanding:
            # Partial failure (§III-C generalised to k workers): at
            # least one worker's forced commit is durable, so the only
            # atomic outcome is COMMIT — the remaining workers must be
            # driven to it, never rolled back.
            self.obs.annotate(
                "partial_commit_resolution",
                self.me,
                txn=txn_id,
                committed=list(committed),
                outstanding=list(outstanding),
            )

        # Decision reached: every worker has committed (or there is no
        # worker).  The updates become visible in the cache, the client
        # gets its reply and the locks drop *before* our commit write.
        self.store.commit(txn_id)
        replied_at = self.reply_to_client(txn, committed=True)
        self.locks.release_all(txn_id)
        # Force UPDATES+COMMITTED, then harden the stable image.
        yield self.wal.force(
            self.updates_rec(txn_id, self.store.updates_of(txn_id)),
            self.state_rec(RecordKind.COMMITTED, txn_id),
        )
        self.store.commit_durable(txn_id)
        for worker in committed:
            self.send(worker, MsgKind.ACK, txn_id)
        if outstanding:
            yield from self._drive_stragglers(txn_id, plan, outstanding, inbox)
        self.wal.checkpoint(txn_id)
        return self.outcome(txn, committed=True, replied_at=replied_at)

    def _collect_worker_commits(
        self, txn_id: int, workers, inbox, watch_detector: bool
    ) -> Generator:
        """Collect every worker's vote: its forced commit (UPDATED), a
        refusal (NOT_PREPARED), or — once it goes silent — the verdict
        of its shared-log probe (§III-C, per participant).

        Returns ``(committed, outstanding, reason)``: the workers whose
        commit record is known durable, the failed workers that must be
        driven to commit if the global outcome is COMMIT, and an abort
        reason naming every failed worker (``None`` when all
        committed).
        """
        pending = dict.fromkeys(workers)
        committed: list = []
        failed: dict = {}
        while pending:
            msg = yield from self._await_worker_reply(txn_id, pending, inbox, watch_detector)
            if msg is TIMED_OUT:
                break
            if msg.src not in pending:
                continue  # duplicate reply from an already-counted worker
            del pending[msg.src]
            if msg.kind == MsgKind.NOT_PREPARED:
                failed[msg.src] = (
                    f"worker {msg.src} rejected the updates: "
                    f"{msg.payload.get('reason', 'no reason given')}"
                )
            else:
                committed.append(msg.src)
        for worker in list(pending):
            # Worker unresponsive: enter the shared-log recovery.
            if (yield from self._probe_worker(txn_id, worker)):
                committed.append(worker)
            else:
                failed[worker] = f"worker {worker} crashed before committing"
        outstanding = [w for w in workers if w in failed]
        reason = "; ".join(failed[w] for w in workers if w in failed) or None
        return committed, outstanding, reason

    def _await_worker_reply(
        self, txn_id: int, pending, inbox, watch_detector: bool
    ) -> Generator:
        """Wait for one outstanding worker's reply, watching the
        failure detector.

        §III-A: the cluster runs a heartbeat failure detector.  When it
        is active, the coordinator gives up as soon as every
        still-silent worker is *suspected* instead of sitting out the
        full protocol timeout — heartbeats accelerate the fencing
        decision (they can never make it wrong: fencing + the shared
        log settle the outcome either way).  :data:`~repro.sim.TIMED_OUT`
        when no reply comes in time.
        """
        detector = self.server.cluster.failure_detector
        heartbeats_on = watch_detector and bool(self.server.cluster.heartbeat_services)
        deadline = self.sim.now + self.params.failure.reply_timeout
        slice_ = (
            self.params.failure.heartbeat_interval
            if heartbeats_on
            else self.params.failure.reply_timeout
        )
        while True:
            msg = yield from self.recv_until(inbox, UPDATE_REPLIES, deadline, slice_)
            if msg is not TIMED_OUT:
                return msg
            if heartbeats_on and all(detector.suspects(self.me, w) for w in pending):
                for worker in pending:
                    self.obs.annotate(
                        "early_suspicion", self.me, txn=txn_id, worker=worker
                    )
                return TIMED_OUT
            if self.sim.now >= deadline:
                return TIMED_OUT

    def _drive_stragglers(self, txn_id: int, plan: OpPlan, stragglers, inbox) -> Generator:
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
        for worker in stragglers:
            for _ in range(COMMIT_DRIVE_RETRIES):
                self.ship_updates(worker, txn_id, plan, commit=True, decided=True)
                msg = yield from self._await_commit_confirmation(txn_id, worker, inbox)
                if msg is not TIMED_OUT and msg.kind == MsgKind.UPDATED:
                    self.send(worker, MsgKind.ACK, txn_id)
                    break
            else:
                self.obs.annotate(
                    "commit_drive_exhausted", self.me, txn=txn_id, worker=worker
                )

    def _await_commit_confirmation(self, txn_id: int, worker: str, inbox) -> Generator:
        """One retransmission round: wait out even a rebooting worker,
        answering ACK_REQs from already-committed peers meanwhile."""
        deadline = self.sim.now + self.params.failure.reply_timeout * ACK_WAIT_FACTOR
        while True:
            msg = yield from self.recv_until(inbox, _CONFIRMATIONS, deadline)
            if msg is TIMED_OUT:
                return msg
            if msg.kind == MsgKind.ACK_REQ:
                self.send(msg.src, MsgKind.ACK, msg.txn_id)
            elif msg.src == worker:
                return msg

    def _probe_worker(self, txn_id: int, worker: str) -> Generator:
        """Fence the worker and read its shared log (§III-C case 2)."""
        self.obs.annotate("probe_start", self.me, txn=txn_id, worker=worker)
        result = yield from probe_worker_log(self.server.cluster, self.me, worker, txn_id)
        return result.committed

    def _abort(
        self, txn_id: int, reason: str, txn: Optional[Transaction] = None
    ) -> Generator:
        yield self.wal.force(self.state_rec(RecordKind.ABORTED, txn_id, reason=reason))
        self.store.abort(txn_id)
        self.locks.release_all(txn_id)
        replied_at = self.reply_to_client(txn, committed=False, reason=reason)
        self.wal.checkpoint(txn_id)
        return self.outcome(txn, committed=False, replied_at=replied_at, reason=reason)

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------

    def worker_session(self, first: Message, inbox) -> Generator:
        txn_id, coordinator = first.txn_id, first.src
        try:
            if first.kind != MsgKind.UPDATE_REQ or not first.payload.get("commit"):
                self.send(coordinator, MsgKind.NOT_PREPARED, txn_id)
                return None
            # A duplicate request (the coordinator re-executed after a
            # crash) finds the commit already done and only needs the
            # re-acknowledgement below.
            if not (self.wal.has(RecordKind.COMMITTED, txn_id) or self.store.has_applied(txn_id)):
                if not (yield from self.execute_as_worker(first)):
                    return None
                try:
                    # The worker's commit *is* its vote.
                    yield self.wal.force(
                        self.updates_rec(txn_id, self.store.updates_of(txn_id)),
                        self.state_rec(RecordKind.COMMITTED, txn_id, coordinator=coordinator),
                    )
                except (FencedError, LogLostError):
                    # Fenced mid-commit (the coordinator gave up on us)
                    # or crashed log: the commit never became durable,
                    # so the coordinator will read "no entry" and
                    # abort.  Drop everything locally.
                    self.store.abort(txn_id)
                    self.locks.release_all(txn_id)
                    self.obs.annotate("worker_fenced_mid_commit", self.me, txn=txn_id)
                    return None
                self.store.commit_durable(txn_id)
                self.locks.release_all(txn_id)
            self.send(coordinator, MsgKind.UPDATED, txn_id, ok=True)
            yield from self.await_ack_and_finalize(txn_id, coordinator, inbox)
            return None
        finally:
            self.server.close_session(txn_id)

    # ------------------------------------------------------------------
    # Recovery (§III-C)
    # ------------------------------------------------------------------

    def _recover_coordinator(self, txn_id: int, state, records) -> Generator:
        plan = self._redo_plan(records)
        if state == RecordKind.STARTED:
            # "The coordinator restarts the transaction from the
            # beginning" using the redo record.
            if plan is None:
                self.obs.annotate("recovery", self.me, txn=txn_id, action="redo-missing")
                return
            yield from self._re_execute(txn_id, plan)
        elif state == RecordKind.COMMITTED:
            # "The transaction is already committed and the coordinator
            # does nothing."  We still fold the updates if the crash hit
            # between the log force and the fold.
            yield from self.refold(txn_id, self.logged_updates(records))
            workers = plan.workers if plan is not None else []
            if len(workers) > 1:
                # With one worker, our COMMITTED record proves the
                # worker committed first.  With k > 1 it only proves
                # the decision — a straggler may have missed it, so
                # re-drive everyone; committed workers simply
                # re-acknowledge from their logs.
                inbox = self.server.open_session(txn_id)
                try:
                    yield from self._drive_stragglers(txn_id, plan, workers, inbox)
                finally:
                    self.server.close_session(txn_id)
            self.wal.checkpoint(txn_id)
            self.obs.annotate("recovery", self.me, txn=txn_id, action="already-committed")
        elif state == RecordKind.ABORTED:
            self.wal.checkpoint(txn_id)

    @staticmethod
    def _redo_plan(records) -> Optional[OpPlan]:
        for record in records:
            if record.kind == RecordKind.REDO:
                return OpPlan.from_description(record.payload["plan"])
        return None

    def _re_execute(self, txn_id: int, plan: OpPlan) -> Generator:
        """Redo-record replay: run the transaction again end to end
        ("no matter what will happen, the transaction will be committed
        eventually") — unless, again, no worker commits."""
        self.obs.annotate("recovery", self.me, txn=txn_id, action="redo")
        inbox = self.server.open_session(txn_id)
        try:
            try:
                yield from self._coordinate_body(txn_id, plan, inbox)
            except TransactionAborted as aborted:
                yield from self._abort(txn_id, aborted.reason)
                return
            self.obs.annotate("recovery", self.me, txn=txn_id, action="redo-committed")
        finally:
            self.server.close_session(txn_id)

    def _recover_worker(self, txn_id: int, state, records) -> Generator:
        if state == RecordKind.COMMITTED:
            yield from self.refold(txn_id, self.logged_updates(records))
            coordinator = self.coordinator_from(records)
            if coordinator is not None:
                yield from self.reclaim_ack(txn_id, coordinator)
        elif state == RecordKind.ENDED:
            # "The coordinator has committed and it does not need the
            # log anymore."
            self.wal.checkpoint(txn_id)

    # ------------------------------------------------------------------
    # Stray messages
    # ------------------------------------------------------------------

    def handle_stray(self, msg: Message):
        if msg.kind == MsgKind.ACK_REQ:
            # A recovered worker wants its ACK.  If our log has no entry
            # the transaction was committed and checkpointed; if it has
            # COMMITTED we committed too.  Either way: ACK.
            if self.wal.last_state(msg.txn_id) in (None, RecordKind.COMMITTED, RecordKind.ENDED):
                return self._stray_reply(msg, MsgKind.ACK)
            return immediately()
        if msg.kind == MsgKind.ACK and self.wal.last_state(msg.txn_id) == RecordKind.COMMITTED:
            # Late ACK for a worker whose session is gone.
            return immediately(self.finalize, msg.txn_id)
        return super().handle_stray(msg)


register_protocol(
    ProtocolSpec(
        name="1PC",
        engine=OnePhaseCommitProtocol,
        summary="The paper's One Phase Commit over a shared log (§III)",
        log_records=("STARTED", "REDO", "UPDATES", "COMMITTED", "ABORTED", "ENDED"),
        capabilities=frozenset({CAP_SHARED_LOG}),
        paper_figure6=24.0,
        table1_row=(3, 1, 2, 0, 1, 0),
        citation=(
            "Congiu, Narasimhamurthy, Suess & Brinkmann, 'One Phase Commit: "
            "A Low Overhead Atomic Commitment Protocol for Scalable Metadata "
            "Services' (CLUSTER 2012)"
        ),
        order=3,
    )
)
