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

Five more engines each break one clause of the contract the
conformance battery runs (``tests/campaign/test_mutation.py``):

* ``XCHAT`` forces a PREPARED record its spec never declares;
* ``XNOISY`` is registered logless yet forces a record when it
  commits a single-server transaction;
* ``XFORGET`` recovers without reading its log;
* ``XPrN`` is PrN whose recovery skips a transaction whose last
  record is ABORTED, so nobody finishes that abort;
* ``XLOUD`` is 1PC whose coordinator reports a recovery action its
  spec never declares.

Each spec declares the vocabularies of the engine it mutates.
"""

from __future__ import annotations

from typing import Optional

from repro.core.one_phase import OnePhaseCommitProtocol, OnePhaseCoordinator, OnePhaseWorker
from repro.protocols.base import MsgKind, Protocol, ProtocolSpec, Transaction, TxnOutcome
from repro.protocols.lgl import LGLLocal, LoglessOnePhaseProtocol
from repro.protocols.prn import PresumeNothingProtocol
from repro.protocols.registry import CAP_LOGLESS, CAP_SHARED_LOG, get_spec
from repro.storage.records import RecordKind

BROKEN_NAME = "1PC-BRK"
EAR_NAME = "1PC-EAR"

#: 1PC's declared vocabularies, which its variants below keep.
ONEPC_RECORDS = get_spec("1PC").log_records
ONEPC_ACTIONS = get_spec("1PC").recovery_actions


class EarlyVoteWorker(OnePhaseWorker):
    """A 1PC worker that votes before it forces its commit."""

    _voted = False

    def force_commit(self, _) -> None:
        # BUG: vote first, force afterwards.  A crash between the
        # send and the force leaves a committed coordinator pointing
        # at a worker with no durable commit record to recover from.
        self.p.send(self.coordinator, MsgKind.UPDATED, self.txn_id, ok=True)
        self._voted = True
        super().force_commit(_)

    def vote(self, _=None) -> None:
        if self._voted:
            return self.await_ack()
        super().vote()


class EarlyVoteOnePhaseCommit(OnePhaseCommitProtocol):
    """1PC with the worker's vote moved ahead of its forced commit."""

    name = BROKEN_NAME
    Worker = EarlyVoteWorker


def broken_spec() -> ProtocolSpec:
    """A registrable spec for the broken engine."""
    return ProtocolSpec(
        name=BROKEN_NAME,
        engine=EarlyVoteOnePhaseCommit,
        summary="1PC mutated to vote before forcing its commit (test only)",
        log_records=ONEPC_RECORDS,
        recovery_actions=ONEPC_ACTIONS,
        capabilities=frozenset({CAP_SHARED_LOG}),
    )


class EarlyAbortReplyCoordinator(OnePhaseCoordinator):
    """The 1PC coordinator, registering its client while it runs."""

    def begin(self, txn: Transaction) -> None:
        self.p._clients[txn.txn_id] = txn
        super().begin(txn)

    def close(self) -> None:
        if self.txn is not None:
            del self.p._clients[self.txn_id]

    def probe(self, worker: str) -> None:
        p, txn_id = self.p, self.txn_id
        txn = p._clients.get(txn_id)
        if txn is not None and txn_id not in p._told:
            # BUG: a silent worker is not a refusal; only the probe
            # below can say whether its commit record is durable.
            replied = Protocol.reply_to_client(p, txn, committed=False, reason=f"{worker} silent")
            p._told[txn_id] = replied
        super().probe(worker)


class EarlyAbortReplyOnePhaseCommit(OnePhaseCommitProtocol):
    """1PC that answers "aborted" before its probe decides."""

    name = EAR_NAME
    Coordinator = EarlyAbortReplyCoordinator

    def __init__(self, server) -> None:
        super().__init__(server)
        #: txn_id -> the client's transaction, while it is coordinated.
        self._clients: dict[int, Transaction] = {}
        #: txn_id -> when the client was told "aborted".
        self._told: dict[int, float] = {}

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
        recovery_actions=ONEPC_ACTIONS,
        capabilities=frozenset({CAP_SHARED_LOG}),
    )


class ChattyCoordinator(OnePhaseCoordinator):
    def begin(self, txn: Transaction) -> None:
        # BUG: PREPARED is outside the declared vocabulary.
        self.txn = txn
        self.wait(self.p.wal.force(self.p.state_rec(RecordKind.PREPARED, txn.txn_id)), self._chatted)

    def _chatted(self, _) -> None:
        super().begin(self.txn)


class ChattyCommitProtocol(OnePhaseCommitProtocol):
    """1PC that forces a record kind its spec never declared."""

    name = "XCHAT"
    Coordinator = ChattyCoordinator


class NoisyLocal(LGLLocal):
    def begin(self, txn: Transaction) -> None:
        # BUG: a logless engine writes no log, ever.
        self.txn = txn
        self.wait(self.p.wal.force(self.p.state_rec(RecordKind.COMMITTED, txn.txn_id)), self._noted)

    def _noted(self, _) -> None:
        self.p.wal.checkpoint(self.txn_id)
        super().begin(self.txn)


class NoisyLoglessProtocol(LoglessOnePhaseProtocol):
    """Logless 1PC that forces a WAL record for a local commit."""

    name = "XNOISY"
    Local = NoisyLocal


class ForgetfulProtocol(OnePhaseCommitProtocol):
    """1PC whose reboot ignores the log."""

    name = "XFORGET"

    def recover(self, then) -> None:
        # BUG: no log scan, so no transaction is resolved after a crash.
        then(None)


class LoudRecoveryCoordinator(OnePhaseCoordinator):
    def redo(self, plan) -> None:
        # BUG: an action outside the declared vocabulary.
        self.p.obs.annotate("recovery", self.p.me, txn=self.txn_id, action="replay")
        super().redo(plan)


class LoudRecoveryProtocol(OnePhaseCommitProtocol):
    """1PC that reports an undeclared recovery action."""

    name = "XLOUD"
    Coordinator = LoudRecoveryCoordinator


class AbortBlindPresumeNothing(PresumeNothingProtocol):
    """PrN whose recovery returns early on an ABORTED last record."""

    name = "XPrN"

    def _recover_coordinator(self, txn_id, state, records, then) -> None:
        if state == RecordKind.ABORTED:
            return then(None)  # BUG: the workers never hear the abort again
        super()._recover_coordinator(txn_id, state, records, then)

    def _recover_worker(self, txn_id, state, records, then) -> None:
        if state == RecordKind.ABORTED:
            return then(None)  # BUG: the abort is never acknowledged or forgotten
        super()._recover_worker(txn_id, state, records, then)


#: The five contract-breaking engines, as registrable specs.
CONTRACT_BREAKERS = {
    "XCHAT": ProtocolSpec(
        name="XCHAT",
        engine=ChattyCommitProtocol,
        log_records=ONEPC_RECORDS,
        recovery_actions=ONEPC_ACTIONS,
        capabilities=frozenset({CAP_SHARED_LOG}),
    ),
    "XNOISY": ProtocolSpec(
        name="XNOISY",
        engine=NoisyLoglessProtocol,
        recovery_actions=get_spec("LGL").recovery_actions,
        capabilities=frozenset({CAP_LOGLESS}),
    ),
    "XFORGET": ProtocolSpec(
        name="XFORGET",
        engine=ForgetfulProtocol,
        log_records=ONEPC_RECORDS,
        recovery_actions=ONEPC_ACTIONS,
        capabilities=frozenset({CAP_SHARED_LOG}),
    ),
    "XPrN": ProtocolSpec(
        name="XPrN",
        engine=AbortBlindPresumeNothing,
        log_records=get_spec("PrN").log_records,
        recovery_actions=get_spec("PrN").recovery_actions,
    ),
    "XLOUD": ProtocolSpec(
        name="XLOUD",
        engine=LoudRecoveryProtocol,
        log_records=ONEPC_RECORDS,
        recovery_actions=ONEPC_ACTIONS,
        capabilities=frozenset({CAP_SHARED_LOG}),
    ),
}
