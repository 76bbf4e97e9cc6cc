"""Paxos Commit (Gray & Lamport) — extension protocol "PC".

Paxos Commit runs one Paxos consensus instance per participant over a
shared set of ``2F + 1`` acceptor processes (:mod:`repro.mds.acceptor`).
A participant's PREPARED vote is decided once a majority of acceptors
have accepted it into that participant's instance; the transaction
commits when *every* instance has a majority-accepted PREPARED ballot.
With ``F = 1`` (three acceptors) the commit decision survives the
failure of any single acceptor — the property 2PC's single coordinator
log cannot offer.

Differences from PrN in the failure-free flow:

* a participant's vote is not a single PREPARED message to the
  coordinator but a ``PAXOS_VOTE`` broadcast to the acceptors (its
  *instance*), each of which durably accepts a ballot and reports
  ``PAXOS_ACCEPTED`` to the leader;
* the coordinator (acting as Paxos leader) tallies acceptances per
  instance and moves to the commit phase once every instance has a
  quorum;
* when the outcome is settled and acknowledged, the leader releases
  the acceptors' ballots with ``PAXOS_GC``.

Modelling simplification (documented, deliberate): the coordinator's
WAL remains the authoritative record of the *outcome* (COMMITTED /
ABORTED), exactly as in PrN — the acceptors add fault-tolerant
durability for the *votes*.  A full Paxos Commit would also make the
outcome a consensus decision so that a new leader can be elected while
the old one is down; leader election is outside this simulator's
scope, so a crashed coordinator recovers from its own log (and a
recovery that cannot re-assemble a quorum aborts, which is always
safe because the outcome record was never written).

Cost accounting: with one worker and three acceptors the vote round
costs 6 ``PAXOS_VOTE`` + 6 ``PAXOS_ACCEPTED`` messages and 6 acceptor
ballot forces in place of PrN's single PREPARED message — Paxos
Commit trades messages and acceptor log writes for non-blocking
fault tolerance (see the measured Table-I extension row).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional, Sequence, Tuple

from repro.protocols.base import (
    MsgKind,
    ProtocolSpec,
    Transaction,
    TransactionAborted,
    register_protocol,
)
from repro.protocols.prn import PresumeNothingProtocol
from repro.protocols.registry import CAP_NEEDS_ACCEPTORS
from repro.sim import TIMED_OUT
from repro.storage.records import LogRecord, RecordKind

if TYPE_CHECKING:
    from repro.sim.resources import Store

_ACCEPTANCES = frozenset({MsgKind.PAXOS_ACCEPTED, MsgKind.NOT_PREPARED})


class PaxosCommitProtocol(PresumeNothingProtocol):
    """2PC with the voting phase run through Paxos acceptors."""

    name = "PC"

    #: 2F + 1 acceptor processes (F = 1): the cluster provisions this
    #: many :class:`~repro.mds.acceptor.AcceptorNode` instances.
    n_acceptors = 3

    # ------------------------------------------------------------------
    # Acceptor plumbing
    # ------------------------------------------------------------------

    def _acceptors(self) -> Tuple[str, ...]:
        return self.server.cluster.acceptor_names

    def _quorum(self) -> int:
        return len(self._acceptors()) // 2 + 1

    def _announce_vote(self, txn_id: int, coordinator: str) -> None:
        """Broadcast the durable PREPARED vote to every acceptor.

        ``coordinator`` is the Paxos leader the acceptors report to;
        ``instance`` identifies whose consensus instance the ballot
        belongs to.
        """
        for acceptor in self._acceptors():
            self.send(
                acceptor,
                MsgKind.PAXOS_VOTE,
                txn_id,
                instance=self.me,
                vote=MsgKind.PREPARED,
                leader=coordinator,
            )

    def _release_acceptors(self, txn_id: int) -> None:
        """The outcome is settled: let the acceptors drop their ballots."""
        for acceptor in self._acceptors():
            self.send(acceptor, MsgKind.PAXOS_GC, txn_id)

    # ------------------------------------------------------------------
    # Coordinator (leader)
    # ------------------------------------------------------------------

    def coordinate(self, txn: Transaction) -> Generator:
        outcome = yield from super().coordinate(txn)
        self._release_acceptors(txn.txn_id)
        return outcome

    def _own_prepare(self, txn_id: int) -> Generator:
        """Announce the coordinator's own vote once it is durable (it
        participates in its own instance like any other participant)."""
        yield from super()._own_prepare(txn_id)
        self._announce_vote(txn_id, self.me)

    def _voting_round(
        self, workers: Sequence[str], txn_id: int, inbox: "Store"
    ) -> Generator:
        """Drive every instance to a quorum of accepted PREPARED ballots.

        Acceptances for the coordinator's own instance arrive from the
        concurrently forked own-prepare; during coordinator recovery
        (own PREPARED already durable, nothing forked) the vote is
        re-announced here and the acceptors answer idempotently from
        their durable ballots.
        """
        for worker in workers:
            self.send(worker, MsgKind.PREPARE, txn_id)
        if self.wal.last_state(txn_id) == RecordKind.PREPARED:
            self._announce_vote(txn_id, self.me)

        quorum = self._quorum()
        accepted: dict[str, set[str]] = {i: set() for i in {*workers, self.me}}
        while any(len(got) < quorum for got in accepted.values()):
            msg = yield self.recv(inbox, _ACCEPTANCES, timeout=self.params.failure.reply_timeout)
            if msg is TIMED_OUT:
                missing = sorted(i for i, got in accepted.items() if len(got) < quorum)
                raise TransactionAborted(f"no acceptor quorum for instances {missing}")
            if msg.kind == MsgKind.NOT_PREPARED:
                raise TransactionAborted(
                    f"worker {msg.src} voted NOT-PREPARED: "
                    f"{msg.payload.get('reason', 'no reason given')}"
                )
            accepted.setdefault(msg.payload["instance"], set()).add(msg.src)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def _recover_coordinator(
        self,
        txn_id: int,
        state: Optional[RecordKind],
        records: Sequence[LogRecord],
    ) -> Generator:
        yield from super()._recover_coordinator(txn_id, state, records)
        self._release_acceptors(txn_id)


register_protocol(
    ProtocolSpec(
        name="PC",
        engine=PaxosCommitProtocol,
        summary="Paxos Commit: votes decided by 2F+1 acceptors (extension)",
        log_records=(
            "STARTED",
            "UPDATES",
            "PREPARED",
            "BALLOT",
            "COMMITTED",
            "ABORTED",
            "ENDED",
        ),
        capabilities=frozenset({CAP_NEEDS_ACCEPTORS}),
        # PrN's row plus 6 acceptor ballot forces (one on the critical
        # path — the parallel ballots overlap) and the vote broadcast:
        # 12 PAXOS_VOTE/PAXOS_ACCEPTED messages replace 1 PREPARED.
        table1_row=(11, 1, 5, 1, 15, 15),
        citation=(
            "Gray & Lamport, 'Consensus on Transaction Commit' "
            "(ACM TODS 31(1), 2006)"
        ),
        order=5,
        # BALLOT records are forced by the acceptor nodes, not the
        # engine class.
    )
)
