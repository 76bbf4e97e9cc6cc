"""N-participant 1PC: the generalised forced-commit-as-vote protocol.

``1PC-N`` fans the redo updates to k workers; each worker's forced
UPDATES+COMMITTED record is its vote.  The partial-failure semantics
under test here:

* no worker force-committed -> the transaction aborts everywhere;
* any worker force-committed -> the outcome is COMMIT and the
  coordinator drives the stragglers (crashed, refused, or fenced)
  with decided retransmissions until every shard has applied.
"""

import pytest

from repro import Cluster
from repro.core.batching import BatchPlanner
from repro.fs.operations import UnsupportedOperation
from repro.fs.placement import ShardedSubtreePlacement
from repro.mds.scenarios import COORDINATOR, HOT_DIR, fanout_cluster
from repro.protocols.base import Transaction
from repro.protocols.registry import reject_fanout

K = 4


def batch_of(client, k=K):
    plans = [client.plan_create(f"{HOT_DIR}/f{i}") for i in range(k)]
    return BatchPlanner(max_batch=k, max_workers=None).merge(plans)


def hot_files(cluster, batch):
    """(dentries present, worker inodes present) for the batch."""
    table = cluster.store_of(COORDINATOR).stable_directories.get(HOT_DIR, {})
    placed = sum(1 for i in range(K) if f"f{i}" in table)
    inodes = sum(len(cluster.store_of(w).stable_inodes) for w in batch.workers)
    return placed, inodes


def test_k_worker_batch_commits_and_cleans_logs():
    cluster = fanout_cluster("1PC-N", K)
    client = cluster.new_client()
    batch = batch_of(client)
    assert len(batch.workers) == K
    done = cluster.sim.process(client.run(batch), name="wide")
    cluster.sim.run(until=done)
    assert done.value["committed"] is True
    cluster.sim.run(until=cluster.sim.now + 300.0)
    assert cluster.check_invariants() == []
    assert hot_files(cluster, batch) == (K, K)
    for node in (COORDINATOR, *batch.workers):
        assert cluster.storage.log_of(node).durable_records == ()


def test_single_refusal_is_overridden_once_siblings_committed():
    # The documented 1PC-N caveat: a worker's refusal cannot veto a
    # transaction its siblings already force-committed — the refuser
    # is driven with a decided retransmission instead.
    cluster = fanout_cluster("1PC-N", K, trace="full")
    client = cluster.new_client()
    batch = batch_of(client)
    cluster.servers[batch.workers[-1]].fail_next_vote = True
    done = cluster.sim.process(client.run(batch), name="wide")
    cluster.sim.run(until=done)
    assert done.value["committed"] is True
    cluster.sim.run(until=cluster.sim.now + 300.0)
    assert cluster.check_invariants() == []
    assert hot_files(cluster, batch) == (K, K)
    assert cluster.trace.count("partial_commit_resolution") == 1


def test_all_refusals_abort_with_no_residue():
    cluster = fanout_cluster("1PC-N", K)
    client = cluster.new_client()
    batch = batch_of(client)
    for worker in batch.workers:
        cluster.servers[worker].fail_next_vote = True
    done = cluster.sim.process(client.run(batch), name="wide")
    cluster.sim.run(until=done)
    assert done.value["committed"] is False
    cluster.sim.run(until=cluster.sim.now + 300.0)
    assert cluster.check_invariants() == []
    assert hot_files(cluster, batch) == (0, 0)
    for node in (COORDINATOR, *batch.workers):
        assert cluster.servers[node].locks._table == {}


@pytest.mark.parametrize("crash_at", [0.5e-3, 2e-3, 4e-3])
def test_partial_crash_converges_to_full_commit(crash_at):
    # One worker dies mid-transaction while its k-1 siblings are alive:
    # at least one sibling force-commits, so the outcome is COMMIT and
    # the rebooted victim must be driven until its shard has applied.
    cluster = fanout_cluster("1PC-N", K)
    client = cluster.new_client()
    batch = batch_of(client)
    victim = batch.workers[1]
    client.submit(batch)
    cluster.sim.run(until=crash_at)
    cluster.crash_server(victim)
    cluster.restart_server(victim)
    cluster.sim.run(until=cluster.sim.now + 600.0)
    assert cluster.check_invariants() == []
    assert hot_files(cluster, batch) == (K, K)
    outcomes = [o for o in cluster.outcomes if o.committed]
    assert len(outcomes) == 1


def test_reject_fanout_message_names_alternatives():
    msg = reject_fanout("1PC", 1, 4)
    assert msg.startswith("1PC handles transactions with at most 1 worker, got 4")
    for name in ("PrN", "PrC", "EP", "PrA", "PC", "1PC-N"):
        assert name in msg
    assert "fallback=" in msg


def test_1pc_engine_rejects_wide_plan_at_coordinate():
    workers = ["mds1", "mds2"]
    placement = ShardedSubtreePlacement(
        ["mds0", *workers], {"/": "mds0"}, stripe=workers
    )
    cluster = Cluster(
        protocol="1PC",
        server_names=["mds0", *workers],
        placement=placement,
        fallback=None,
        trace="off",
    )
    cluster.mkdir(HOT_DIR)
    client = cluster.new_client()
    plans = [client.plan_create(f"{HOT_DIR}/f{i}") for i in range(2)]
    batch = BatchPlanner(max_batch=2, max_workers=None).merge(plans)
    txn = Transaction(txn_id=1, plan=batch, client=client.name, submitted_at=0.0)
    engine = cluster.servers["mds0"].protocol
    with pytest.raises(UnsupportedOperation, match="fan-out-capable"):
        engine.coordinate(txn)


def test_fanout_capable_protocol_gets_no_fallback_engine():
    cluster = fanout_cluster("1PC-N", 2)
    assert cluster.servers[COORDINATOR].fallback is None
