"""repro — reproduction of "One Phase Commit: A Low Overhead Atomic
Commitment Protocol for Scalable Metadata Services" (CLUSTER 2012).

The package implements the paper's 1PC protocol, the 2PC baselines it
is evaluated against (PrN, PrC, EP), and every substrate the evaluation
needs: a discrete-event simulator, a cluster network, write-ahead logs
on (shared) storage with fencing, a 2PL lock manager, a distributed
metadata namespace, fault injection, workload generators and the
benchmark harness that regenerates the paper's Table I and Figure 6.

Quickstart::

    from repro import Cluster

    cluster = Cluster(protocol="1PC", server_names=["mds1", "mds2"])
    cluster.mkdir("/dir1", owner="mds1")
    client = cluster.new_client()

    def scenario(sim):
        result = yield from client.create("/dir1/file0")
        assert result["committed"]

    cluster.sim.process(scenario(cluster.sim))
    cluster.sim.run()
    assert cluster.check_invariants() == []

Observability (see :mod:`repro.obs` and ``docs/observability.md``)::

    cluster = Cluster(protocol="1PC", trace="full")
    ...
    spans = cluster.obs.spans.roots()         # per-transaction span trees
    counters = cluster.obs.metrics.snapshot() # counters + histograms
"""

from repro.config import (
    ComputeParams,
    FailureParams,
    NetworkParams,
    SimulationParams,
    StorageParams,
)
from repro.core import BatchPlanner, OnePhaseCommitProtocol
from repro.mds import Client, Cluster, MDSServer
from repro.obs import MetricsRegistry, Observability, Span, SpanCollector
from repro.protocols import (
    EarlyPrepareProtocol,
    PresumeCommitProtocol,
    PresumeNothingProtocol,
    TxnOutcome,
)

__version__ = "1.0.0"


__all__ = [
    "BatchPlanner",
    "Client",
    "Cluster",
    "ComputeParams",
    "EarlyPrepareProtocol",
    "FailureParams",
    "MDSServer",
    "MetricsRegistry",
    "NetworkParams",
    "Observability",
    "OnePhaseCommitProtocol",
    "PresumeCommitProtocol",
    "PresumeNothingProtocol",
    "SimulationParams",
    "Span",
    "SpanCollector",
    "StorageParams",
    "TxnOutcome",
    "__version__",
]
