"""The oracle's serializability pass on concurrent runs: the durable
image equals a serial replay of the committed plans in reply order."""

from repro.analysis.oracle import check
from repro.fs import AddDentry
from repro.mds.scenarios import distributed_create_cluster


def run_concurrent_creates(protocol, n=15):
    cluster, client = distributed_create_cluster(protocol)
    plans = [client.plan_create(f"/dir1/f{i}") for i in range(n)]
    for plan in plans:
        client.submit(plan)
    assert cluster.run_until_answered(n, 60.0)
    cluster.sim.run(until=cluster.sim.now + 30.0)
    return cluster, plans


def test_concurrent_creates_are_serializable(protocol):
    cluster, plans = run_concurrent_creates(protocol)
    assert check(cluster, plans) == []


def test_create_delete_interleaving_is_serializable():
    cluster, client = distributed_create_cluster("1PC")
    plans = []

    def driver(sim):
        for i in range(8):
            plan = client.plan_create(f"/dir1/f{i}")
            plans.append(plan)
            result = yield from client.run(plan)
            assert result["committed"]
        for i in range(0, 8, 2):
            plan = client.plan_delete(f"/dir1/f{i}")
            plans.append(plan)
            result = yield from client.run(plan)
            assert result["committed"]

    p = cluster.sim.process(driver(cluster.sim))
    cluster.sim.run(until=p)
    cluster.sim.run(until=cluster.sim.now + 30.0)
    # Effect presence counts CREATE effects only, so the four CREATEs a
    # later DELETE undid read as not durable; every other pass is clean.
    found = check(cluster, plans)
    assert [v for v in found if v.check != "durability"] == []
    assert sorted(v.subject for v in found) == [f"/dir1/f{i}" for i in range(0, 8, 2)]


def test_aborted_transactions_excluded_from_replay():
    cluster, client = distributed_create_cluster("1PC")
    plans = []
    # First create aborts (vote refusal); the retry commits.
    cluster.servers["mds2"].fail_next_vote = True

    def driver(sim):
        a = client.plan_create("/dir1/x")
        b = client.plan_create("/dir1/x")
        plans.extend((a, b))
        r1 = yield from client.run(a)
        r2 = yield from client.run(b)
        return r1["committed"], r2["committed"]

    p = cluster.sim.process(driver(cluster.sim))
    cluster.sim.run(until=p)
    cluster.sim.run(until=cluster.sim.now + 30.0)
    assert p.value == (False, True)
    assert check(cluster, plans) == []


def test_verify_flags_divergent_state():
    cluster, plans = run_concurrent_creates("1PC", n=4)
    # Corrupt the run state behind the protocol's back.
    cluster.store_of("mds1").apply(999, AddDentry("/dir1", "phantom", 424242))
    cluster.store_of("mds1").commit_durable(999)
    found = [v for v in check(cluster, plans) if v.check == "serializability"]
    assert [v.detail.partition(":")[0] for v in found] == ["directories-differ"]
    assert found[0].subject == "mds1" and "phantom" in str(found[0])


def test_precedence_graph_acyclic_for_concurrent_runs(protocol):
    cluster, plans = run_concurrent_creates(protocol, n=12)
    # Twelve creates through one directory: a long chain of conflicts.
    assert len(cluster.obs.precedence()) >= 11
    assert [v for v in check(cluster, plans) if v.check == "conflict-cycle"] == []
