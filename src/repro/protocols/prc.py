"""Presume Commit optimisation of 2PC (§II-D, Figure 3).

Differences from PrN in the commit case:

* the ACKNOWLEDGE message is eliminated — the coordinator finalises its
  log as soon as the commit outcome is decided;
* consequently the coordinator replies to the client right after its
  COMMITTED record is durable, *before* the worker commits ("the PrC
  optimization ... allows the coordinator to return to the client
  before the worker commits");
* the worker's own COMMITTED record no longer needs to be forced: if
  the worker crashes and finds no entry at the coordinator, it
  *presumes commit*.

In the abort case PrC behaves exactly like PrN (all messages and
forced writes restored) — that asymmetry is what the abort-rate
extension benchmark measures.

Cost accounting (Table I row PrC): (4, 1) log writes total,
(3, 0) in the critical path, 3 extra messages with 2 in the critical
path.
"""

from __future__ import annotations

from repro.protocols.base import ProtocolSpec, register_protocol
from repro.protocols.prn import PresumeNothingProtocol


class PresumeCommitProtocol(PresumeNothingProtocol):
    """2PC with the presumed-commit optimisation."""

    name = "PrC"

    reply_before_commit_msg = True
    worker_commit_is_forced = False
    coordinator_writes_ended = False
    ack_required = False

    # The abort path behaves exactly like PrN via ``abort_ack_required``
    # (inherited as True): the ABORTED record is forced, the workers
    # acknowledge the abort, and the log keeps the abort information —
    # only *commit* outcomes may be presumed away, and an absent
    # coordinator log entry means COMMIT (``presumed_decision``).


register_protocol(
    ProtocolSpec(
        name="PrC",
        engine=PresumeCommitProtocol,
        summary="2PC with the presumed-commit optimisation (§II-D)",
        log_records=("STARTED", "UPDATES", "PREPARED", "COMMITTED", "ABORTED", "ENDED"),
        # COMMITTED is checkpointed in the callback that sees it land:
        # no COMMIT outlives a blocked worker, and only a crash at the
        # instant it lands leaves it to resend.
        recovery_actions=(
            "abort", "resume-commit", "resend-commit", "resend-abort", "abort-after-vote",
            "worker-resolved", "worker-done", "still-blocked",
        ),
        paper_figure6=15.06,
        table1_row=(4, 1, 3, 0, 3, 2),  # Table I as printed in the paper
        citation=(
            "Mohan, Lindsay & Obermarck, 'Transaction Management in the R* "
            "Distributed Database Management System' (TODS 1986)"
        ),
        order=1,
    )
)
