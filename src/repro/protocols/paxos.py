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

from typing import Any, Optional, Tuple

from repro.protocols.base import MsgKind, ProtocolSpec, Step, register_protocol
from repro.protocols.prn import OwnPrepare, PresumeNothingProtocol, PrNCoordinator
from repro.protocols.registry import CAP_NEEDS_ACCEPTORS
from repro.sim import TIMED_OUT, Event
from repro.storage.records import RecordKind

_ACCEPTANCES = frozenset({MsgKind.PAXOS_ACCEPTED, MsgKind.NOT_PREPARED})


class PaxosOwnPrepare(OwnPrepare):
    def _prepared(self, ev: Event) -> None:
        """Announce the coordinator's own vote once it is durable (it
        participates in its own instance like any other participant)."""
        self.p._announce_vote(self.txn_id, self.p.me)
        super()._prepared(ev)


class PaxosCoordinator(PrNCoordinator):
    """The leader: PrN's coordinator with the votes tallied per Paxos
    instance, releasing the acceptors' ballots when it ends."""

    def voting_round(self, then: Step) -> None:
        """Drive every instance to a quorum of accepted PREPARED ballots.

        Acceptances for the coordinator's own instance arrive from the
        concurrently started own prepare; during coordinator recovery
        (own PREPARED already durable, nothing started) the vote is
        re-announced here and the acceptors answer idempotently from
        their durable ballots.
        """
        p, txn_id = self.p, self.txn_id
        for worker in self.workers:
            p.send(worker, MsgKind.PREPARE, txn_id)
        if p.wal.last_state(txn_id) == RecordKind.PREPARED:
            p._announce_vote(txn_id, p.me)
        self._quorum = p._quorum()
        self._accepted: dict[str, set[str]] = {i: set() for i in {*self.workers, p.me}}
        self._then = then
        self._tally(None)

    def _tally(self, ev: Optional[Event]) -> None:
        p, accepted, quorum = self.p, self._accepted, self._quorum
        if ev is not None:
            msg = ev._value
            if msg is TIMED_OUT:
                missing = sorted(i for i, got in accepted.items() if len(got) < quorum)
                return self._refuse(f"no acceptor quorum for instances {missing}")
            if msg.kind == MsgKind.NOT_PREPARED:
                return self._refuse(
                    f"worker {msg.src} voted NOT-PREPARED: "
                    f"{msg.payload.get('reason', 'no reason given')}"
                )
            accepted.setdefault(msg.payload["instance"], set()).add(msg.src)
        if any(len(got) < quorum for got in accepted.values()):
            timeout = p.params.failure.reply_timeout
            return self.wait(p.recv(self.inbox, _ACCEPTANCES, timeout=timeout), self._tally)
        then, self._then = self._then, None
        then(None)

    def end(self, value: Any = None) -> None:
        done, self._done = self._done, None
        super().end(value)
        self.p._release_acceptors(self.txn_id)
        if done is not None:
            done(value)


class PaxosCommitProtocol(PresumeNothingProtocol):
    """2PC with the voting phase run through Paxos acceptors."""

    name = "PC"
    Coordinator = PaxosCoordinator
    OwnPrepare = PaxosOwnPrepare

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
        recovery_actions=(
            "abort", "resume-commit", "resend-commit", "resend-abort", "abort-after-vote",
            "worker-resolved", "worker-done", "still-blocked", "stray-commit",
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
