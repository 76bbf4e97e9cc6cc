"""1PC-N: the One Phase Commit core generalised to k workers.

The paper restricts 1PC to transactions spanning exactly two MDSs
(§III): with a single worker, the worker's forced commit *is* the
global decision, so a refusal or a crash before the force means nobody
committed and abort is unanimous.  ``1PC-N`` keeps the whole §III
machinery — one forced STARTED+REDO write at the coordinator, the
worker's combined UPDATES+COMMITTED force as its vote, fencing plus a
shared-log probe instead of blocking — but fans the updates out to all
``k`` workers of the plan and resolves the outcome from the set of
per-worker verdicts:

* **no worker committed** — refusers rolled back, crashed workers lost
  their volatile state, fenced workers can never force a record — the
  coordinator aborts, exactly as in the two-party protocol;
* **at least one worker's commit record is durable** — the only atomic
  outcome is COMMIT.  The coordinator answers the client, then *drives*
  every straggler to the decision with ``decided`` retransmissions of
  the commit-carrying UPDATE_REQ; a rebooted worker replays the session
  from scratch, one that already committed re-acknowledges from its
  log.

The second case is where the paper's two-party argument genuinely bites
(the sharded-transaction framing of Bravo et al., "Reconfigurable
Atomic Transaction Commit" makes the same observation about
single-round commits): once *any* worker force-commits, a sibling's
refusal can no longer abort the transaction — its "no" vote is
overridden and the updates it rolled back are re-applied.  That is
sound here because namespace plans give every participant a disjoint
update set guarded by its own locks (a worker refusal can only come
from fault injection or lock timeouts, both transient), but it is a
strictly weaker contract than two-party 1PC, where every vote is
decisive.  Protocols with a voting phase (the 2PC family, Paxos
Commit) do not make this trade — which is the crossover the
``repro sweep --kind fanout`` harness measures.

Cost scaling: (2 + k, 1) total log writes, (2, 0) critical-path writes
(the k worker forces run in parallel), k round trips' worth of
messages with none in the critical path — the single-phase advantage
shrinks as k grows only through the slowest-worker wait, which is the
Table-I span the fanout sweep records.
"""

from __future__ import annotations

from repro.core.one_phase import OnePhaseCommitProtocol
from repro.protocols.base import ProtocolSpec, register_protocol
from repro.protocols.registry import CAP_SHARED_LOG


class OnePhaseFanoutProtocol(OnePhaseCommitProtocol):
    """One Phase Commit fanned out to any number of workers."""

    name = "1PC-N"
    #: Unlimited fan-out: the plan decides how many shards participate.
    max_workers = None


register_protocol(
    ProtocolSpec(
        name="1PC-N",
        engine=OnePhaseFanoutProtocol,
        summary="One Phase Commit generalised to k workers (sharded namespaces)",
        log_records=("STARTED", "REDO", "UPDATES", "COMMITTED", "ABORTED", "ENDED"),
        capabilities=frozenset({CAP_SHARED_LOG}),
        paper_figure6=None,
        table1_row=(3, 1, 2, 0, 1, 0),
        citation=(
            "Congiu et al. (CLUSTER 2012) §III generalised per Bravo et al., "
            "'Reconfigurable Atomic Transaction Commit'"
        ),
        order=7,
    )
)
