"""The one oracle, ``check(cluster, plans)``: its passes on hand-made
wreckage, and the same-name race it must not flag."""

import dataclasses

import pytest

from repro.analysis.oracle import check, replay_serial
from repro.fs import AddDentry, DecLink, OpPlan, UpdateError
from repro.mds.scenarios import distributed_create_cluster
from repro.protocols.base import TxnOutcome
from repro.protocols.registry import default_protocols
from repro.obs import Observability
from repro.sim import Simulator


def settled_create(protocol="1PC"):
    cluster, client = distributed_create_cluster(protocol)
    plan = client.plan_create("/dir1/f0")
    client.submit(plan)
    cluster.sim.run(until=cluster.sim.now + 30.0)
    return cluster, plan


def kinds(violations):
    return sorted(v.check for v in violations)


@pytest.mark.parametrize("protocol", default_protocols())
def test_same_name_race_is_clean(protocol):
    """Two clients CREATE ``/dir1/race``; one wins.  Matching outcomes
    to plans by ``(op, path)`` once read the loser's plan as the
    winner's and reported a durability and two serializability
    violations on this correct run."""
    cluster, client = distributed_create_cluster(protocol)
    other = cluster.new_client()
    plans = [client.plan_create("/dir1/race"), other.plan_create("/dir1/race")]
    client.submit(plans[0])
    other.submit(plans[1])
    assert cluster.run_until_answered(2, 60.0)
    cluster.sim.run(until=cluster.sim.now + 30.0)
    assert sorted(o.committed for o in cluster.outcomes) == [False, True]
    assert check(cluster, plans) == []


def test_an_outcome_knows_its_plan():
    cluster, plan = settled_create()
    (outcome,) = cluster.outcomes
    assert outcome.plan is plan
    assert dataclasses.replace(outcome, plan=None) == outcome  # not part of equality
    assert "plan" not in repr(outcome)


def test_a_durable_abort_is_aborted_residue():
    cluster, plan = settled_create()
    cluster.outcomes[0] = dataclasses.replace(cluster.outcomes[0], committed=False)
    found = check(cluster, [plan])
    assert kinds(found) == ["aborted-residue"]
    assert str(found[0]) == "[aborted-residue] /dir1/f0: CREATE answered aborted, 2/2 effects durable"


def test_a_lost_effect_is_torn_and_not_durable():
    cluster, plan = settled_create()
    worker = cluster.store_of("mds2")
    (ino,) = worker.stable_inodes
    # The worker's half vanishes behind the protocol's back.
    worker.apply(999, DecLink(ino))
    worker.commit_durable(999)
    found = check(cluster, [plan])
    assert kinds(found) == ["atomicity", "durability", "invariant", "serializability"]


def test_precedence_graph_detects_artificial_cycle():
    cluster, plan = settled_create()
    # txn 1 then 2 on object A; txn 2 then 1 on object B: a cycle.
    for txn, obj in ((1, "A"), (2, "A"), (2, "B"), (1, "B")):
        cluster.obs.lock_grant("m", txn=txn, obj=obj, mode="X")
    found = check(cluster, [plan])
    assert kinds(found) == ["conflict-cycle"]
    assert "lock-precedence cycle" in found[0].detail


def test_precedence_graph_cuts_grant_history_at_a_crash():
    """A reboot loses the lock table: recovery's re-acquisitions must
    not be chained onto the grants the crash wiped (campaign seed 9
    cell 14 read 9, 10, <crash>, 9, <crash>, 9, 10 on one object)."""
    for mode in ("attribute", "full"):
        obs = Observability(Simulator(), mode)
        obs.keep_precedence()  # what the campaign runner asks before its run
        for step in (9, 10, "crash", 9, "crash", 9, 10):
            if step == "crash":
                obs.node_crash("mds1")
            else:
                obs.lock_grant("locks:mds1", txn=step, obj="/hot", mode="X")
        assert obs.precedence() == {(9, 10)}
        # Another node's crash cuts nothing here.
        obs.node_crash("mds2")
        obs.lock_grant("locks:mds1", txn=9, obj="/hot", mode="X")
        assert obs.precedence() == {(9, 10), (10, 9)}


def test_replay_serial_detects_impossible_history():
    plan = OpPlan(
        op="CREATE",
        path="/dir1/x",
        updates={"mds1": [AddDentry("/dir1", "x", 1), AddDentry("/dir1", "x", 2)]},
        coordinator="mds1",
    )
    with pytest.raises(UpdateError):
        replay_serial([plan], {"/dir1": "mds1"})
    # Acknowledged as committed, it is a history no serial run makes.
    cluster, _ = distributed_create_cluster("1PC")
    cluster.sim.run(until=1.0)
    cluster.outcomes.append(
        TxnOutcome(
            txn_id=1, op="CREATE", path="/dir1/x", committed=True, submitted_at=0.0,
            replied_at=0.5, finished_at=0.5, coordinator="mds1", plan=plan,
        )
    )
    found = [v for v in check(cluster, [plan]) if v.check == "serializability"]
    assert [v.detail.partition(":")[0] for v in found] == ["no-serial-history"]
