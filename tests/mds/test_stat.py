"""Metadata reads (STAT): shared locking, cache visibility, POSIX view."""

from tests.protocols.conftest import drain, make_cluster, run_create


def test_stat_finds_committed_file(protocol):
    cluster, client = make_cluster(protocol)
    run_create(cluster, client)
    drain(cluster)

    def reader(sim):
        result = yield from client.stat("/dir1/f0")
        return result

    p = cluster.sim.process(reader(cluster.sim))
    cluster.sim.run(until=p)
    assert p.value["found"] is True
    assert p.value["ino"] == cluster.lookup("/dir1/f0")


def test_stat_missing_file(protocol):
    cluster, client = make_cluster(protocol)

    def reader(sim):
        result = yield from client.stat("/dir1/ghost")
        return result

    p = cluster.sim.process(reader(cluster.sim))
    cluster.sim.run(until=p)
    assert p.value["found"] is False and p.value["ino"] is None


def test_stat_blocks_behind_inflight_create(protocol):
    """POSIX consistent-view semantics: a read of the directory queues
    behind the exclusive lock of an in-flight create — so it observes
    the create's outcome, never the intermediate state."""
    cluster, client = make_cluster(protocol)
    client.submit(client.plan_create("/dir1/f0"))
    # Let the create acquire its directory lock.
    while not cluster.trace.select(
        "lock_grant", predicate=lambda r: r.get("obj").kind == "dir"
    ):
        cluster.sim.step()

    def reader(sim):
        result = yield from client.stat("/dir1/f0")
        return (result, sim.now)

    p = cluster.sim.process(reader(cluster.sim))
    cluster.sim.run(until=p)
    result, when = p.value
    assert result["found"] is True
    # The reply came only after the create released the lock.
    release = cluster.trace.select(
        "lock_release", predicate=lambda r: r.get("obj").kind == "dir"
    )
    assert release and when >= release[0].time


def test_stat_sees_1pc_early_committed_state():
    """1PC releases the directory lock after the worker's commit but
    before the coordinator's own forced write: a stat in that window
    must already see the new file (served from the cache image)."""
    cluster, client = make_cluster("1PC")
    client.submit(client.plan_create("/dir1/f0"))
    # Run exactly until the coordinator replies to the client.
    while not cluster.trace.select("client_reply"):
        cluster.sim.step()
    # The coordinator's own commit record is not durable yet...
    assert not cluster.store_of("mds1").stable_directories["/dir1"]
    # ...but a read already sees the file.
    def reader(sim):
        result = yield from client.stat("/dir1/f0")
        return result

    p = cluster.sim.process(reader(cluster.sim))
    cluster.sim.run(until=p)
    assert p.value["found"] is True
    drain(cluster)
    assert cluster.check_invariants() == []


def test_concurrent_stats_share_the_lock():
    cluster, client = make_cluster("1PC")
    run_create(cluster, client)
    drain(cluster)
    results = []

    def reader(sim, tag):
        yield from client.stat("/dir1/f0")
        results.append((tag, sim.now))

    for tag in range(4):
        cluster.sim.process(reader(cluster.sim, tag))
    cluster.sim.run(until=cluster.sim.now + 1.0)
    # All four served at (nearly) the same instant: shared locks.
    times = [t for _tag, t in results]
    assert len(results) == 4
    assert max(times) - min(times) < 2e-3


def test_stat_timeout_raises():
    from repro.mds.client import ClientTimeout

    cluster, client = make_cluster("1PC")
    cluster.crash_server("mds1")

    def reader(sim):
        try:
            yield from client.stat("/dir1/f0", timeout=0.1)
        except ClientTimeout:
            return "timeout"

    p = cluster.sim.process(reader(cluster.sim))
    cluster.sim.run(until=p)
    assert p.value == "timeout"


def test_stat_after_a_timed_out_stat_waits_for_its_own_reply():
    """A timed-out stat's late reply stays in the client's mailbox; the
    next stat of the same path must not take it for its own answer."""
    from repro.fs.objects import ObjectId
    from repro.locks import LockMode
    from repro.mds.client import ClientTimeout

    cluster, client = make_cluster("1PC")
    locks = cluster.servers["mds1"].locks

    def holder(sim):
        yield from locks.acquire("holder", ObjectId.directory("/dir1"), LockMode.EXCLUSIVE)
        yield sim.timeout(0.05)
        locks.release_all("holder")

    def first_reader(sim):
        try:
            yield from client.stat("/dir1/f0", timeout=0.01)
        except ClientTimeout:
            return "timeout"

    cluster.sim.process(holder(cluster.sim))
    p = cluster.sim.process(first_reader(cluster.sim))
    cluster.sim.run(until=p)
    assert p.value == "timeout"
    drain(cluster, budget=1.0)  # the late reply ({"found": False}) arrives
    assert run_create(cluster, client)["committed"]
    assert cluster.lookup("/dir1/f0") is not None

    def second_reader(sim):
        started = sim.now
        result = yield from client.stat("/dir1/f0")
        return result, sim.now - started

    p = cluster.sim.process(second_reader(cluster.sim))
    cluster.sim.run(until=p)
    result, waited = p.value
    assert result["found"] is True and result["ino"] == cluster.lookup("/dir1/f0")
    assert waited > 0
