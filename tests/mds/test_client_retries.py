"""A client matches each reply to its own request."""

from tests.protocols.conftest import drain, make_cluster


def test_stale_fire_and_forget_reply_does_not_poison_run():
    """Regression: a fire-and-forget submission leaves its reply in the
    client's mailbox; a later run() on the same path must match its own
    reply (by request id), not the stale one."""
    cluster, client = make_cluster("1PC")
    cluster.servers["mds2"].fail_next_vote = True
    # Fire-and-forget; this attempt aborts and its reply is never read.
    client.submit(client.plan_create("/dir1/same"))
    while len(cluster.outcomes) < 1:
        cluster.sim.step()
    assert not cluster.outcomes[0].committed

    def second(sim):
        result = yield from client.run(client.plan_create("/dir1/same"))
        return result

    p = cluster.sim.process(second(cluster.sim))
    cluster.sim.run(until=p)
    # Without request-id matching this returned the stale abort.
    assert p.value["committed"] is True
    drain(cluster)
    assert cluster.check_invariants() == []
