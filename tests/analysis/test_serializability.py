"""Serial-equivalence verification of concurrent runs."""

import pytest

from repro.analysis.serializability import (
    replay_serial,
    verify_serial_equivalence,
)
from repro.fs import AddDentry, OpPlan
from repro.mds.scenarios import distributed_create_cluster


def run_concurrent_creates(protocol, n=15):
    cluster, client = distributed_create_cluster(protocol)
    plans = {}
    for i in range(n):
        plan = client.plan_create(f"/dir1/f{i}")
        plans[(plan.op, plan.path)] = plan
        client.submit(plan)
    while len(cluster.outcomes) < n:
        cluster.sim.step()
    cluster.sim.run(until=cluster.sim.now + 30.0)
    return cluster, plans


def test_concurrent_creates_are_serializable(protocol):
    cluster, plans = run_concurrent_creates(protocol)
    violations = verify_serial_equivalence(cluster, plans, {"/dir1": "mds1"})
    assert violations == []


def test_create_delete_interleaving_is_serializable():
    cluster, client = distributed_create_cluster("1PC")
    plans = {}

    def driver(sim):
        for i in range(8):
            plan = client.plan_create(f"/dir1/f{i}")
            plans[(plan.op, plan.path)] = plan
            result = yield from client.run(plan)
            assert result["committed"]
        for i in range(0, 8, 2):
            plan = client.plan_delete(f"/dir1/f{i}")
            plans[(plan.op, plan.path)] = plan
            result = yield from client.run(plan)
            assert result["committed"]

    p = cluster.sim.process(driver(cluster.sim))
    cluster.sim.run(until=p)
    cluster.sim.run(until=cluster.sim.now + 30.0)
    violations = verify_serial_equivalence(cluster, plans, {"/dir1": "mds1"})
    assert violations == []


def test_aborted_transactions_excluded_from_replay():
    cluster, client = distributed_create_cluster("1PC")
    plans = {}
    # First create aborts (vote refusal); the retry commits.
    cluster.servers["mds2"].fail_next_vote = True

    def driver(sim):
        a = client.plan_create("/dir1/x")
        plans[(a.op, a.path)] = a
        r1 = yield from client.run(a)
        b = client.plan_create("/dir1/x")
        plans[(b.op, b.path)] = b  # overwrites; same key, same effect
        r2 = yield from client.run(b)
        return r1["committed"], r2["committed"]

    p = cluster.sim.process(driver(cluster.sim))
    cluster.sim.run(until=p)
    cluster.sim.run(until=cluster.sim.now + 30.0)
    assert p.value == (False, True)
    violations = verify_serial_equivalence(cluster, plans, {"/dir1": "mds1"})
    assert violations == []


def test_replay_serial_detects_impossible_history():
    plan = OpPlan(
        op="CREATE",
        path="/d/x",
        updates={"mds1": [AddDentry("/d", "x", 1), AddDentry("/d", "x", 2)]},
        coordinator="mds1",
    )
    from repro.fs import UpdateError

    with pytest.raises(UpdateError):
        replay_serial([plan], {"/d": "mds1"})


def test_verify_flags_divergent_state():
    cluster, plans = run_concurrent_creates("1PC", n=4)
    # Corrupt the run state behind the protocol's back.
    cluster.store_of("mds1").apply(999, AddDentry("/dir1", "phantom", 424242))
    cluster.store_of("mds1").commit_durable(999)
    violations = verify_serial_equivalence(cluster, plans, {"/dir1": "mds1"})
    assert violations
    assert any(v.kind == "directories-differ" for v in violations)
    assert "phantom" in str(violations[0])


def test_precedence_graph_acyclic_for_concurrent_runs(protocol):
    from repro.analysis.serializability import (
        assert_conflict_serializable,
        precedence_graph,
    )

    cluster, _plans = run_concurrent_creates(protocol, n=12)
    edges = precedence_graph(cluster.trace)
    # Twelve creates through one directory: a long chain of conflicts.
    assert len(edges) >= 11
    assert_conflict_serializable(cluster.trace)


def test_precedence_graph_detects_artificial_cycle():
    from repro.analysis.serializability import assert_conflict_serializable
    from repro.sim import Simulator, TraceLog

    sim = Simulator()
    trace = TraceLog(sim)
    # txn 1 then 2 on object A; txn 2 then 1 on object B: a cycle.
    trace.emit("lock_grant", "m", txn=1, obj="A")
    trace.emit("lock_grant", "m", txn=2, obj="A")
    trace.emit("lock_grant", "m", txn=2, obj="B")
    trace.emit("lock_grant", "m", txn=1, obj="B")
    with pytest.raises(AssertionError, match="conflict cycle"):
        assert_conflict_serializable(trace)


def test_precedence_graph_cuts_grant_history_at_a_crash():
    """A reboot loses the lock table: recovery's re-acquisitions must
    not be chained onto the grants the crash wiped (campaign seed 9
    cell 14 read 9, 10, <crash>, 9, <crash>, 9, 10 on one object)."""
    from repro.analysis.serializability import precedence_graph
    from repro.sim import Simulator, TraceLog

    trace = TraceLog(Simulator())
    for step in (9, 10, "crash", 9, "crash", 9, 10):
        if step == "crash":
            trace.emit("crash", "mds1")
        else:
            trace.emit("lock_grant", "locks:mds1", txn=step, obj="/hot")
    assert precedence_graph(trace) == [(9, 10), (9, 10)]
    # Another node's crash cuts nothing here.
    trace.emit("crash", "mds2")
    trace.emit("lock_grant", "locks:mds1", txn=9, obj="/hot")
    assert precedence_graph(trace)[-1] == (10, 9)


def test_missing_plan_raises():
    cluster, plans = run_concurrent_creates("1PC", n=3)
    plans.pop(("CREATE", "/dir1/f0"))
    with pytest.raises(KeyError):
        verify_serial_equivalence(cluster, plans, {"/dir1": "mds1"})
