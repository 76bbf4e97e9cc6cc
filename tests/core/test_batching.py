"""The §VI aggregation extension: merging namespace ops into batches."""

from dataclasses import replace

import pytest

from repro.core import BatchPlanner
from repro.fs import InodeAllocator, UnsupportedOperation, plan_create
from repro.fs.placement import ForcedDistributedPlacement
from tests.protocols.conftest import drain, make_cluster


def make_plans(n, start=100):
    placement = ForcedDistributedPlacement("mds1", "mds2")
    alloc = InodeAllocator(start=start)
    return [plan_create(f"/dir1/b{i}", placement, alloc) for i in range(n)]


def test_merge_combines_updates_per_node():
    planner = BatchPlanner(max_batch=8)
    batch = planner.merge(make_plans(4))
    assert batch.op == "BATCH"
    assert batch.coordinator == "mds1"
    assert len(batch.updates["mds1"]) == 4  # four AddDentry
    assert len(batch.updates["mds2"]) == 4  # four CreateInode
    assert batch.detail["size"] == 4


def test_merge_single_plan_passthrough():
    planner = BatchPlanner()
    plans = make_plans(1)
    assert planner.merge(plans) is plans[0]


def test_merge_empty_rejected():
    with pytest.raises(ValueError):
        BatchPlanner().merge([])


def test_merge_respects_max_batch():
    planner = BatchPlanner(max_batch=2)
    with pytest.raises(UnsupportedOperation):
        planner.merge(make_plans(3))


def test_merge_rejects_mixed_coordinators():
    plans = make_plans(2)
    # Roles are fixed at construction: another coordinator is another plan.
    plans[1] = replace(
        plans[1],
        coordinator="mds2",
        updates={"mds2": plans[1].updates["mds1"] + plans[1].updates["mds2"]},
    )
    planner = BatchPlanner()
    with pytest.raises(UnsupportedOperation):
        planner.merge(plans)


def test_merge_respects_worker_limit():
    plans = make_plans(2)
    # Move one create's inode to a third server.
    plans[1] = replace(
        plans[1],
        updates={"mds1": plans[1].updates["mds1"], "mds3": plans[1].updates["mds2"]},
    )
    assert plans[1].workers == ["mds3"]
    planner = BatchPlanner(max_workers=1)
    with pytest.raises(UnsupportedOperation):
        planner.merge(plans)
    # Unlimited workers accepts it.
    wide = BatchPlanner(max_workers=None).merge(plans)
    assert set(wide.updates) == {"mds1", "mds2", "mds3"}


def test_partition_groups_greedily():
    planner = BatchPlanner(max_batch=3)
    batches = planner.partition(make_plans(8))
    assert [b.detail.get("size", 1) for b in batches] == [3, 3, 2]


def test_partition_locks_directory_once_per_batch():
    planner = BatchPlanner(max_batch=4)
    batch = planner.merge(make_plans(4))
    locks = batch.locks("mds1")
    # One directory lock plus nothing else on the coordinator.
    assert len(locks) == 1


def test_batched_create_executes_atomically():
    """A merged batch commits all members in one transaction."""
    cluster, client = make_cluster("1PC")
    planner = BatchPlanner(max_batch=16)
    plans = [client.plan_create(f"/dir1/b{i}") for i in range(8)]
    batch = planner.merge(plans)
    done = cluster.sim.process(client.run(batch), name="batch")
    cluster.sim.run(until=done)
    assert done.value["committed"] is True
    drain(cluster)
    assert cluster.check_invariants() == []
    assert len(cluster.listdir("/dir1")) == 8
    # One transaction only.
    assert len(cluster.outcomes) == 1


def test_batching_reduces_log_forces():
    """The point of §VI: one batch of N creates needs far fewer forced
    writes than N separate transactions."""

    def forced_writes(batched):
        cluster, client = make_cluster("1PC")
        plans = [client.plan_create(f"/dir1/b{i}") for i in range(8)]
        if batched:
            plans = [BatchPlanner(max_batch=16).merge(plans)]
        for plan in plans:
            done = cluster.sim.process(client.run(plan), name="op")
            cluster.sim.run(until=done)
        drain(cluster)
        return cluster.trace.count("log_append", sync=True)

    assert forced_writes(batched=True) < forced_writes(batched=False) / 2


def test_batch_abort_aborts_all_members():
    cluster, client = make_cluster("1PC")
    cluster.servers["mds2"].fail_next_vote = True
    plans = [client.plan_create(f"/dir1/b{i}") for i in range(4)]
    batch = BatchPlanner(max_batch=8).merge(plans)
    done = cluster.sim.process(client.run(batch), name="batch")
    cluster.sim.run(until=done)
    assert done.value["committed"] is False
    drain(cluster)
    assert cluster.check_invariants() == []
    assert cluster.listdir("/dir1") == {}


def test_invalid_max_batch_rejected():
    with pytest.raises(ValueError):
        BatchPlanner(max_batch=0)
