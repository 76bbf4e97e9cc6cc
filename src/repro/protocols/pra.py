"""Presumed Abort — the classic dual of Presume Commit (extension).

Not evaluated in the paper (which compares PrN, PrC and EP), but it is
the other standard 2PC presumption from Mohan/Lindsay's original work
and the natural ablation partner for PrC: where PrC streamlines
*commits* and restores the full protocol on aborts, PrA streamlines
*aborts*:

* the coordinator aborts by discarding state — no forced ABORTED
  record, no abort ACKs, the log entry is simply dropped;
* a worker (or recovering worker) that finds no entry at the
  coordinator presumes ABORT;
* commits consequently need the full treatment: forced COMMITTED at
  both sides, ACK from the worker and an ENDED record before the
  coordinator's log may be garbage collected.

The ``presumed`` report artifact shows the crossover: PrA
beats PrC when the abort rate is high, and loses on commit-heavy
workloads (every workload the paper cares about).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.protocols.base import MsgKind, ProtocolSpec, Step, register_protocol
from repro.protocols.prn import PresumeNothingProtocol
from repro.storage.records import LogRecord, RecordKind


class PresumedAbortProtocol(PresumeNothingProtocol):
    """2PC with the presumed-abort optimisation."""

    name = "PrA"

    # Commits keep the full PrN treatment (every other knob inherited).
    # Aborts are presumed: no acknowledgement round — so the inherited
    # abort paths drop the transaction, tell whoever is listening and
    # move on; a recovering worker that asks later is answered by the
    # presumption.
    abort_ack_required = False

    def presumed_decision(self) -> str:
        # The defining rule: an absent coordinator log entry means the
        # transaction aborted.
        return MsgKind.ABORT

    def _force_abort_record(self, txn_id: int, **payload: Any) -> None:
        """Presumed abort never makes an ABORTED record durable — at
        the coordinator, at a worker, or on the inherited recovery
        paths (abort after a failed re-vote)."""
        return None

    def _recover_coordinator(
        self, txn_id: int, state: Optional[RecordKind], records: Sequence[LogRecord], then: Step
    ) -> None:
        if state == RecordKind.STARTED:
            # Crashed before preparing: just forget — workers presume
            # the abort when they ask.
            self.wal.checkpoint(txn_id)
            self.obs.annotate("recovery", self.me, txn=txn_id, action="presume-abort")
            return then(None)
        super()._recover_coordinator(txn_id, state, records, then)


register_protocol(
    ProtocolSpec(
        name="PrA",
        engine=PresumedAbortProtocol,
        summary="2PC with the presumed-abort optimisation (extension)",
        log_records=("STARTED", "UPDATES", "PREPARED", "COMMITTED", "ENDED"),
        # Commits keep the full PrN treatment, so the commit-path cost
        # row is PrN's; the saving is entirely on the abort path.
        table1_row=(5, 1, 4, 1, 4, 4),
        citation=(
            "Mohan & Lindsay, 'Efficient Commit Protocols for the Tree of "
            "Processes Model of Distributed Transactions' (PODC 1983)"
        ),
        order=4,
    )
)
