"""Replaying an operation stream through ``drive``: closed loop keeps
order dependencies and skips what it cannot plan, open loop submits
independent operations at once."""

from repro.mds.scenarios import distributed_create_cluster
from repro.workloads import drain, drive, measure
from repro.workloads.cell import Tally

SIMPLE = [
    {"op": "create", "path": "/dir1/run/a", "gap": 1e-3},
    {"op": "create", "path": "/dir1/run/b", "gap": 1e-3},
    {"op": "rename", "path": "/dir1/run/a", "dst": "/dir1/run/a2", "gap": 1e-3},
    {"op": "delete", "path": "/dir1/run/b", "gap": 1e-3},
]


def replay(protocol, ops, window=1):
    """Run ``ops`` closed loop against a fresh two-MDS cluster."""
    cluster, _ = distributed_create_cluster(protocol)
    cluster.mkdir("/dir1/run")
    tally = Tally()
    drive(cluster, iter(ops), window, tally)
    cluster.sim.run()
    return cluster, tally


def checkpoint_rounds(ranks, rounds, period=0.01):
    """Every round each rank writes a checkpoint, then the previous
    round's are rotated out."""
    for r in range(rounds):
        for rank in range(ranks):
            yield {"op": "create", "path": f"/dir1/run/rank{rank}.r{r}", "gap": 0.0}
        for rank in range(ranks if r else 0):
            yield {"op": "delete", "path": f"/dir1/run/rank{rank}.r{r - 1}", "gap": 0.0}
        yield {"op": "stat", "path": "/dir1/run/rank0.r0", "gap": period}


def test_closed_loop_replay_preserves_dependencies(protocol):
    cluster, tally = replay(protocol, SIMPLE)
    assert len([o for o in cluster.outcomes if o.committed]) == len(SIMPLE)
    assert tally.skipped == 0
    assert cluster.check_invariants() == []
    assert cluster.lookup("/dir1/run/a2") is not None
    assert cluster.lookup("/dir1/run/a") is None
    assert cluster.lookup("/dir1/run/b") is None


def test_open_loop_replay_of_independent_ops():
    cluster, client = distributed_create_cluster("1PC")
    drive(cluster, ((client, client.plan_create(f"/dir1/f{i}")) for i in range(10)))
    drain(cluster, 10, "open-loop replay")
    assert measure(cluster, cluster.outcomes, 0.0).committed == 10
    assert cluster.check_invariants() == []


def test_replay_skips_unplannable_ops():
    ops = [
        {"op": "delete", "path": "/dir1/run/never-existed", "gap": 0.0},
        {"op": "create", "path": "/dir1/run/real", "gap": 1e-3},
    ]
    cluster, tally = replay("1PC", ops)
    assert tally.skipped == 1
    assert [o.committed for o in cluster.outcomes] == [True]
    assert cluster.lookup("/dir1/run/real") is not None


def test_checkpoint_rotation_leaves_only_the_last_round():
    # Four clients share the stream: a round's deletes start only once
    # its creates were pulled.
    cluster, tally = replay("1PC", checkpoint_rounds(ranks=4, rounds=2), window=4)
    assert cluster.check_invariants() == []
    assert tally.skipped == 0 and tally.reads == 2
    # Round 0's checkpoints were rotated out; round 1's survive.
    assert set(cluster.listdir("/dir1/run")) == {f"rank{r}.r1" for r in range(4)}


def test_replay_throughput_ordering_between_protocols():
    makespan = {}
    for protocol in ("PrN", "1PC"):
        cluster, _ = replay(protocol, checkpoint_rounds(ranks=6, rounds=2))
        makespan[protocol] = measure(cluster, cluster.outcomes, 0.0).makespan
    assert makespan["1PC"] < makespan["PrN"]
