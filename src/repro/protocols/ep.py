"""Early Prepare optimisation (§II-E, Figure 4).

EP builds on PrC and piggybacks the voting phase onto the transaction
execution: the worker "autonomously prepares as soon as the last
metadata update has been completed".  The UPDATE_REQ carries a
``prepare`` flag; the worker applies the updates, forces
UPDATES+PREPARED, and its single reply is both the UPDATED response and
the PREPARED vote.

Failure-free flow:

==========  =====================================================
coordinator worker
==========  =====================================================
force STARTED
lock, update cache             (coordinator prepares concurrently)
UPDATE_REQ(prepare) ->
            lock, update cache
            force UPDATES+PREPARED
            <- PREPARED
force COMMITTED, release locks, reply to client
COMMIT ->
            lazy COMMITTED, apply, release locks
==========  =====================================================

Everything else is PrC's: this module overrides only the two steps
that differ — how the coordinator collects the votes and what the
worker does between executing and preparing (see "The skeleton and the
deltas" in ``docs/protocols.md``).

Cost accounting (Table I row EP): (4, 1) log writes total, (3, 0) in
the critical path, only 1 extra message (COMMIT) and none in the
critical path.
"""

from __future__ import annotations

from typing import Any

from repro.protocols.base import VOTES, ProtocolSpec, register_protocol
from repro.protocols.prc import PresumeCommitProtocol
from repro.protocols.prn import PrNCoordinator, PrNWorker


class EPCoordinator(PrNCoordinator):
    def collect_votes(self, _: Any) -> None:
        """Single round: ship the updates with the prepare flag set and
        start our own prepare concurrently; each worker's one reply is
        its vote."""
        p, txn = self.p, self.txn
        self.own = p.OwnPrepare(p, txn.txn_id)
        for worker in txn.workers:
            p.ship_updates(worker, txn.txn_id, txn.plan, prepare=True)
        self.gather(txn.workers, VOTES, "votes", "voted NOT-PREPARED", self._voted)


class EPWorker(PrNWorker):
    def await_prepare(self, _: Any) -> None:
        """The request carried the prepare flag: prepare autonomously,
        no UPDATED and no PREPARE round (EP workers only ever see
        prepare-carrying requests)."""
        self.prepare(None)


class EarlyPrepareProtocol(PresumeCommitProtocol):
    """PrC with the execution piggybacked into the voting phase."""

    name = "EP"
    Coordinator = EPCoordinator
    Worker = EPWorker


register_protocol(
    ProtocolSpec(
        name="EP",
        engine=EarlyPrepareProtocol,
        summary="Early Prepare: voting piggybacked on execution (§II-E)",
        log_records=("STARTED", "UPDATES", "PREPARED", "COMMITTED", "ABORTED", "ENDED"),
        # COMMITTED is checkpointed in the callback that sees it land:
        # no COMMIT outlives a blocked worker, and only a crash at the
        # instant it lands leaves it to resend.
        recovery_actions=(
            "abort", "resume-commit", "resend-commit", "resend-abort", "abort-after-vote",
            "worker-resolved", "worker-done", "still-blocked",
        ),
        paper_figure6=16.0,
        table1_row=(4, 1, 3, 0, 1, 0),  # Table I as printed in the paper
        citation=(
            "Stamos & Cristian, 'Coordinator Log Transaction Execution "
            "Protocol' (Distributed and Parallel Databases, 1993)"
        ),
        order=2,
    )
)
