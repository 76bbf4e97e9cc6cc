"""Unit tests for fault actions and schedules."""

import pytest

from repro.campaign.runner import SETTLE_SECONDS, run_fault_cell
from repro.faults import ACTIONS, FAULT_KINDS, Fault, FaultPlan, TraceTrigger, scenario, window
from repro.harness.conformance import DEFAULT_CRASH_POINTS
from repro.protocols import default_protocols
from tests.protocols.conftest import drain, make_cluster, run_create


def test_fault_requires_exactly_one_trigger():
    with pytest.raises(ValueError, match="exactly one"):
        Fault("crash", "mds1")
    with pytest.raises(ValueError, match="exactly one"):
        Fault("crash", "mds1", at=1.0, trigger=window("at-vote", "mds1"))


def test_crash_fault_requires_node():
    with pytest.raises(ValueError, match="crash fault requires a node"):
        Fault("crash", at=1.0)


def test_partition_fault_requires_groups():
    """The group a partition cuts off is its node."""
    with pytest.raises(ValueError, match="partition fault requires a node"):
        Fault("partition", at=1.0)


def test_link_fault_requires_endpoints():
    with pytest.raises(ValueError, match="link fault requires a peer"):
        Fault("link", "mds1", at=1.0)
    with pytest.raises(ValueError, match="link fault requires a node"):
        Fault("link", peer="mds2", at=1.0)


def test_vote_refusal_requires_node():
    with pytest.raises(ValueError, match="refuse fault requires a node"):
        Fault("refuse", at=1.0)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown fault kind 'meteor'"):
        Fault("meteor", "mds1", at=1.0)


def test_a_fault_is_a_frozen_value_and_a_kind_is_a_table_row():
    fault = Fault("crash", "mds2", at=1e-3)
    assert fault == Fault("crash", "mds2", at=1e-3) and hash(fault) == hash(
        Fault("crash", "mds2", at=1e-3)
    )
    with pytest.raises(AttributeError):
        fault.node = "mds1"
    assert FAULT_KINDS == tuple(ACTIONS) == ("crash", "partition", "link", "refuse", "stall")


def test_one_fault_tuple_serves_two_runs():
    """What fired is the plan's, not the fault's: the same immutable
    faults installed on two clusters fire on both."""
    faults = (Fault("crash", "mds2", trigger=window("at-vote", "mds2")),)
    for _ in range(2):
        cluster, client = make_cluster("1PC")
        plan = FaultPlan(faults)
        plan.install(cluster)
        client.submit(client.plan_create("/dir1/f0"))
        cluster.sim.run(until=cluster.sim.now + 120.0)
        assert plan.fired == list(faults)
        assert cluster.trace.count("fault") == 1


def test_timed_crash_fires_and_restarts():
    cluster, client = make_cluster("1PC")
    plan = FaultPlan([Fault("crash", "mds2", at=1e-3, restart_after=0.05)])
    plan.install(cluster)
    client.submit(client.plan_create("/dir1/f0"))
    cluster.sim.run(until=cluster.sim.now + 120.0)
    assert plan.fired == plan.faults
    assert cluster.trace.count("crash", actor="mds2") >= 1
    assert not cluster.servers["mds2"].crashed
    assert cluster.check_invariants() == []


def test_crash_without_restart():
    cluster, _client = make_cluster("1PC")
    plan = FaultPlan([Fault("crash", "mds2", at=1e-3, restart_after=float("inf"))])
    plan.install(cluster)
    cluster.sim.run(until=1.0)
    assert cluster.servers["mds2"].crashed


def test_trace_triggered_crash():
    cluster, client = make_cluster("1PC")
    received = TraceTrigger("msg_recv", where=(("kind", "UPDATE_REQ"),))
    plan = FaultPlan([Fault("crash", "mds2", trigger=received)])
    plan.install(cluster)
    client.submit(client.plan_create("/dir1/f0"))
    cluster.sim.run(until=cluster.sim.now + 120.0)
    assert plan.fired == plan.faults
    # The crash happened after the worker had received the request.
    crash_time = cluster.trace.select("crash", actor="mds2")[0].time
    recv_time = cluster.trace.select("msg_recv", kind="UPDATE_REQ")[0].time
    assert crash_time >= recv_time
    assert cluster.check_invariants() == []


def test_partition_fault_heals():
    cluster, client = make_cluster("1PC")
    plan = FaultPlan([Fault("partition", "mds2", heal_after=0.5, at=1e-3)])
    plan.install(cluster)
    cluster.sim.run(until=0.1)
    assert not cluster.network.connected("mds1", "mds2")
    cluster.sim.run(until=0.6)
    assert cluster.network.connected("mds1", "mds2")


def test_link_fault_restores():
    cluster, _client = make_cluster("1PC")
    plan = FaultPlan([Fault("link", "mds1", peer="mds2", restore_after=0.5, at=1e-3)])
    plan.install(cluster)
    cluster.sim.run(until=0.1)
    assert not cluster.network.connected("mds1", "mds2")
    cluster.sim.run(until=0.7)
    assert cluster.network.connected("mds1", "mds2")


def test_vote_refusal_fault_aborts_next_txn():
    cluster, client = make_cluster("1PC")
    FaultPlan([Fault("refuse", "mds2", at=0.0)]).install(cluster)
    result = run_create(cluster, client)
    assert result["committed"] is False
    drain(cluster)
    assert cluster.check_invariants() == []


def test_disk_stall_fault_requires_node_and_duration():
    with pytest.raises(ValueError, match="stall fault requires a node"):
        Fault("stall", at=1.0)
    with pytest.raises(ValueError, match="positive duration"):
        Fault("stall", "mds2", duration=0.0, at=1.0)


def test_disk_stall_fault_delays_wal_traffic():
    cluster, client = make_cluster("1PC")
    FaultPlan([Fault("stall", "mds2", duration=2.0, at=1e-3)]).install(cluster)
    client.submit(client.plan_create("/dir1/f0"))
    cluster.sim.run(until=cluster.sim.now + 300.0)
    stalls = cluster.trace.select("disk_stall")
    assert len(stalls) == 1
    assert stalls[0].get("duration") == 2.0
    assert cluster.check_invariants() == []


def test_past_at_rejected_at_install():
    cluster, _client = make_cluster("1PC")
    cluster.sim.run(until=1.0)
    plan = FaultPlan([Fault("crash", "mds2", at=0.5)])
    with pytest.raises(ValueError) as excinfo:
        plan.install(cluster)
    # The error names the stale fault and the current clock.
    assert "crash(mds2, at=0.5)" in str(excinfo.value)
    assert "sim time is already 1" in str(excinfo.value)
    assert not plan.installed


def test_unknown_node_rejected_at_install():
    """Not a ``KeyError('mds9')`` out of a kernel timer mid-run."""
    cluster, _client = make_cluster("1PC")
    plan = FaultPlan(
        [
            Fault("crash", "mds2", at=0.5),
            Fault("crash", "mds9", at=0.01),
            Fault("link", "mds1", peer="mds7", trigger=window("at-vote", "mds1")),
        ]
    )
    with pytest.raises(ValueError) as excinfo:
        plan.install(cluster)
    message = str(excinfo.value)
    assert "2 fault(s)" in message and "['mds1', 'mds2']" in message
    assert "crash(mds9, at=0.01)" in message and "link(mds1<->mds7, trigger(" in message
    assert "crash(mds2" not in message
    assert not plan.installed
    cluster.sim.run(until=1.0)
    assert cluster.trace.count("fault") == 0


def test_at_equal_to_now_still_allowed():
    # The vote-refusal scenario arms at t=0 on a fresh cluster; an
    # at==now fault must keep installing fine.
    cluster, client = make_cluster("1PC")
    FaultPlan([Fault("refuse", "mds2", at=0.0)]).install(cluster)
    result = run_create(cluster, client)
    assert result["committed"] is False


def test_double_install_rejected():
    cluster, _client = make_cluster("1PC")
    plan = FaultPlan([Fault("crash", "mds2", at=1.0)])
    plan.install(cluster)
    with pytest.raises(RuntimeError):
        plan.install(cluster)


def test_fault_emits_trace_record():
    cluster, _client = make_cluster("1PC")
    FaultPlan([Fault("crash", "mds2", at=1e-3)]).install(cluster)
    cluster.sim.run(until=0.01)
    faults = cluster.trace.select("fault")
    assert len(faults) == 1
    # The record's text is pinned by the digest goldens.
    assert faults[0].get("fault") == "CrashFault(at=0.001)"


def test_named_scenarios_construct():
    for name in (
        "worker-crash-before-commit",
        "worker-crash-after-prepare",
        "coordinator-crash-after-start",
        "partition-at-vote",
        "flaky-link",
        "vote-refusal",
    ):
        plan = scenario(name)
        assert isinstance(plan, FaultPlan)
        assert plan.faults


def test_unknown_scenario_rejected():
    with pytest.raises(KeyError):
        scenario("meteor-strike")


@pytest.mark.parametrize(
    "name",
    [
        "worker-crash-before-commit",
        "worker-crash-after-prepare",
        "coordinator-crash-after-start",
        "partition-at-vote",
        "vote-refusal",
    ],
)
def test_every_scenario_preserves_atomicity(protocol, name):
    """Each named scenario, against each protocol: consistent end state."""
    cluster, client = make_cluster(protocol)
    scenario(name).install(cluster)
    client.submit(client.plan_create("/dir1/f0"))
    cluster.sim.run(until=cluster.sim.now + 200.0)
    assert cluster.check_invariants() == [], (protocol, name)
    dentry = cluster.store_of("mds1").stable_directories.get("/dir1", {}).get("f0")
    inodes = cluster.store_of("mds2").stable_inodes
    assert (dentry is not None) == (len(inodes) > 0), (protocol, name)


@pytest.mark.parametrize("crash_at", DEFAULT_CRASH_POINTS, ids=lambda t: f"{t * 1e3:g}ms")
@pytest.mark.parametrize("victim", ["mds1", "mds2"])
@pytest.mark.parametrize("protocol", sorted(default_protocols()))
def test_timed_crash_fault_is_a_direct_crash_and_restart(protocol, victim, crash_at):
    """The fault cell's timed crash (what the conformance sweep and the
    recovery artifact run) leaves the trace a direct ``crash_server`` +
    ``restart_server`` at the same instant leaves, record for record,
    plus its one ``fault`` record."""
    direct, client = make_cluster(protocol)
    client.submit(client.plan_create("/dir1/f0"))
    direct.sim.run(until=crash_at)
    direct.crash_server(victim)
    direct.restart_server(victim)
    direct.sim.run(until=direct.sim.now + SETTLE_SECONDS)

    faulted, client = make_cluster(protocol)
    crash = FaultPlan([Fault("crash", victim, at=crash_at)])
    run_fault_cell(faulted, [(0.0, client, client.plan_create("/dir1/f0"))], crash)

    records = faulted.trace.records
    assert [r.category for r in records].count("fault") == 1
    assert [r for r in records if r.category != "fault"] == direct.trace.records
