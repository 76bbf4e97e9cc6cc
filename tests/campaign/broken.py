"""Deliberately broken engines for the mutation self-tests.

``1PC-BRK`` sends the worker's UPDATED message *before* forcing the
UPDATES+COMMITTED record — exactly the §III invariant the real
protocol's design hinges on (the forced commit *is* the vote).  With
an early vote, a worker crash inside the vote-to-force window leaves
the coordinator committed and the client acknowledged while the
worker's half of the transaction evaporates: a torn, non-atomic
namespace operation the campaign checker must flag.

Correct protocols only send UPDATED after the commit record is
durable, so the same crash window aborts or re-drives the transaction
instead — the mutation is invisible to them and the campaign stays
green.

``1PC-EAR`` ("early abort reply") keeps every durable step of 1PC but
lies to the client: once a worker goes silent it answers "aborted"
right away, then follows the fence and the log read as usual — and
commits when the worker's commit record turns out durable.  The
namespace stays consistent; only the oracle's aborted-residue pass
sees that the client was told "no" about a durable transaction.

Four more engines each break one clause of the contract the
conformance battery runs (``tests/campaign/test_broken_engines.py``):

* ``XCHAT`` forces a PREPARED record its spec never declares;
* ``XNOISY`` is registered logless yet forces a record when it
  commits a single-server transaction;
* ``XFORGET`` recovers without reading its log;
* ``XPrN`` is PrN whose recovery skips a transaction whose last
  record is ABORTED, so nobody finishes that abort.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.core.one_phase import OnePhaseCommitProtocol
from repro.protocols.lgl import LoglessOnePhaseProtocol
from repro.protocols.prn import PresumeNothingProtocol
from repro.net.message import Message
from repro.protocols.base import MsgKind, ProtocolSpec, Transaction, TxnOutcome
from repro.protocols.registry import CAP_LOGLESS, CAP_SHARED_LOG
from repro.storage.fencing import FencedError
from repro.storage.records import RecordKind
from repro.storage.wal import LogLostError

BROKEN_NAME = "1PC-BRK"
EAR_NAME = "1PC-EAR"

#: 1PC's declared vocabulary, which its variants below keep.
ONEPC_RECORDS = ("STARTED", "REDO", "UPDATES", "COMMITTED", "ABORTED", "ENDED")


class EarlyVoteOnePhaseCommit(OnePhaseCommitProtocol):
    """1PC with the worker's vote moved ahead of its forced commit."""

    name = BROKEN_NAME

    def worker_session(self, first: Message, inbox) -> Generator:
        txn_id, coordinator = first.txn_id, first.src
        try:
            if first.kind != MsgKind.UPDATE_REQ or not first.payload.get("commit"):
                self.send(coordinator, MsgKind.NOT_PREPARED, txn_id)
                return None
            if self.wal.has(RecordKind.COMMITTED, txn_id) or self.store.has_applied(txn_id):
                self.send(coordinator, MsgKind.UPDATED, txn_id, ok=True)
                yield from self.await_ack_and_finalize(txn_id, coordinator, inbox)
                return None
            if not (yield from self.execute_as_worker(first)):
                return None
            # BUG: vote first, force afterwards.  A crash between the
            # send and the force leaves a committed coordinator pointing
            # at a worker with no durable commit record to recover from.
            self.send(coordinator, MsgKind.UPDATED, txn_id, ok=True)
            try:
                yield self.wal.force(
                    self.updates_rec(txn_id, self.store.updates_of(txn_id)),
                    self.state_rec(RecordKind.COMMITTED, txn_id, coordinator=coordinator),
                )
            except (FencedError, LogLostError):
                self.store.abort(txn_id)
                self.locks.release_all(txn_id)
                self.obs.annotate("worker_fenced_mid_commit", self.me, txn=txn_id)
                return None
            self.store.commit_durable(txn_id)
            self.locks.release_all(txn_id)
            yield from self.await_ack_and_finalize(txn_id, coordinator, inbox)
            return None
        finally:
            self.server.close_session(txn_id)


def broken_spec() -> ProtocolSpec:
    """A registrable spec for the broken engine."""
    return ProtocolSpec(
        name=BROKEN_NAME,
        engine=EarlyVoteOnePhaseCommit,
        summary="1PC mutated to vote before forcing its commit (test only)",
        log_records=ONEPC_RECORDS,
        capabilities=frozenset({CAP_SHARED_LOG}),
    )


class EarlyAbortReplyOnePhaseCommit(OnePhaseCommitProtocol):
    """1PC that answers "aborted" before its probe decides."""

    name = EAR_NAME

    def __init__(self, server) -> None:
        super().__init__(server)
        #: txn_id -> the client's transaction, while it is coordinated.
        self._clients: dict[int, Transaction] = {}
        #: txn_id -> when the client was told "aborted".
        self._told: dict[int, float] = {}

    def coordinate(self, txn: Transaction) -> Generator:
        self._clients[txn.txn_id] = txn
        try:
            return (yield from super().coordinate(txn))
        finally:
            del self._clients[txn.txn_id]

    def _probe_worker(self, txn_id: int, worker: str) -> Generator:
        txn = self._clients.get(txn_id)
        if txn is not None and txn_id not in self._told:
            # BUG: a silent worker is not a refusal; only the probe
            # below can say whether its commit record is durable.
            replied = super().reply_to_client(txn, committed=False, reason=f"{worker} silent")
            self._told[txn_id] = replied
        return (yield from super()._probe_worker(txn_id, worker))

    def reply_to_client(
        self, txn: Optional[Transaction], committed: bool, reason: str = ""
    ) -> Optional[float]:
        if txn is not None and txn.txn_id in self._told:
            return self._told[txn.txn_id]  # the client already has its answer
        return super().reply_to_client(txn, committed, reason)

    def outcome(
        self,
        txn: Optional[Transaction],
        committed: bool,
        replied_at: Optional[float],
        reason: str = "",
    ) -> Optional[TxnOutcome]:
        if txn is not None and txn.txn_id in self._told:
            committed, reason = False, reason or "worker silent"
            replied_at = self._told.pop(txn.txn_id)
        return super().outcome(txn, committed, replied_at, reason)


def early_abort_spec() -> ProtocolSpec:
    """A registrable spec for the early-abort-reply engine."""
    return ProtocolSpec(
        name=EAR_NAME,
        engine=EarlyAbortReplyOnePhaseCommit,
        summary="1PC mutated to answer 'aborted' before its probe decides (test only)",
        log_records=ONEPC_RECORDS,
        capabilities=frozenset({CAP_SHARED_LOG}),
    )


class ChattyCommitProtocol(OnePhaseCommitProtocol):
    """1PC that forces a record kind its spec never declared."""

    name = "XCHAT"

    def coordinate(self, txn: Transaction) -> Generator:
        # BUG: PREPARED is outside the declared vocabulary.
        yield self.wal.force(self.state_rec(RecordKind.PREPARED, txn.txn_id))
        return (yield from super().coordinate(txn))


class NoisyLoglessProtocol(LoglessOnePhaseProtocol):
    """Logless 1PC that forces a WAL record for a local commit."""

    name = "XNOISY"

    def run_local(self, txn: Transaction) -> Generator:
        # BUG: a logless engine writes no log, ever.
        yield self.wal.force(self.state_rec(RecordKind.COMMITTED, txn.txn_id))
        self.wal.checkpoint(txn.txn_id)
        return (yield from super().run_local(txn))


class ForgetfulProtocol(OnePhaseCommitProtocol):
    """1PC whose reboot ignores the log."""

    name = "XFORGET"

    def recover(self) -> Generator:
        # BUG: no log scan, so no transaction is resolved after a crash.
        yield from ()


class AbortBlindPresumeNothing(PresumeNothingProtocol):
    """PrN whose recovery returns early on an ABORTED last record."""

    name = "XPrN"

    def _recover_coordinator(self, txn_id, state, records) -> Generator:
        if state == RecordKind.ABORTED:
            return  # BUG: the workers never hear the abort again
        yield from super()._recover_coordinator(txn_id, state, records)

    def _recover_worker(self, txn_id, state, records) -> Generator:
        if state == RecordKind.ABORTED:
            return  # BUG: the abort is never acknowledged or forgotten
        yield from super()._recover_worker(txn_id, state, records)


#: The four contract-breaking engines, as registrable specs.
CONTRACT_BREAKERS = {
    "XCHAT": ProtocolSpec(
        name="XCHAT",
        engine=ChattyCommitProtocol,
        log_records=ONEPC_RECORDS,
        capabilities=frozenset({CAP_SHARED_LOG}),
    ),
    "XNOISY": ProtocolSpec(
        name="XNOISY",
        engine=NoisyLoglessProtocol,
        capabilities=frozenset({CAP_LOGLESS}),
    ),
    "XFORGET": ProtocolSpec(
        name="XFORGET",
        engine=ForgetfulProtocol,
        log_records=ONEPC_RECORDS,
        capabilities=frozenset({CAP_SHARED_LOG}),
    ),
    "XPrN": ProtocolSpec(
        name="XPrN",
        engine=AbortBlindPresumeNothing,
        log_records=("STARTED", "UPDATES", "PREPARED", "COMMITTED", "ABORTED", "ENDED"),
    ),
}
