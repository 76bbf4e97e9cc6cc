"""`HeartbeatService`: a chain of callback timers, one per beat."""

from repro.fs.placement import ForcedDistributedPlacement
from repro.mds.cluster import Cluster


def heartbeat_cluster():
    return Cluster(
        protocol="1PC",
        server_names=["mds1", "mds2"],
        placement=ForcedDistributedPlacement("mds1", "mds2"),
        trace="full",
        heartbeats=True,
    )


def beats(cluster, node):
    return [r.time for r in cluster.trace.select("msg_send", actor=node, kind="HEARTBEAT")]


def grid(interval, until):
    out, t = [], 0.0
    while t <= until:
        out.append(t)
        t += interval
    return out


def test_beats_leave_on_the_interval_grid_from_the_start_instant():
    cluster = heartbeat_cluster()
    interval = cluster.params.failure.heartbeat_interval
    cluster.sim.run(until=0.055)
    assert beats(cluster, "mds1") == beats(cluster, "mds2") == grid(interval, 0.055)


def test_crash_silences_a_node_and_restart_resumes_one_chain():
    cluster = heartbeat_cluster()
    interval = cluster.params.failure.heartbeat_interval
    cluster.sim.run(until=0.025)
    cluster.crash_server("mds2")
    # Down and up again before the orphaned timer (due at 0.03) pops:
    # it must not beat alongside the new chain.
    cluster.restart_server("mds2", after=0.0)
    cluster.heartbeat_services["mds2"].start()  # already running: no second chain
    cluster.sim.run(until=0.05)
    assert beats(cluster, "mds2") == [
        0.0, interval, interval + interval,
        0.025, 0.025 + interval, 0.025 + interval + interval,
    ]
    cluster.crash_server("mds2")
    before = len(beats(cluster, "mds2"))
    cluster.sim.run(until=0.2)
    assert len(beats(cluster, "mds2")) == before
    assert beats(cluster, "mds1") == grid(interval, 0.2)  # the peer never paused
