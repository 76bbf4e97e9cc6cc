"""Torture tests: random fault schedules over concurrent workloads.

The strongest correctness statement in the suite: for a battery of
seeded random fault plans (crashes with restarts, partitions that heal,
link flaps, vote refusals) injected into a burst of concurrent
distributed creates, the durable namespace must stay consistent — no
orphaned inodes, no dangling dentries — and every transaction must be
all-or-nothing once the dust settles.
"""

import pytest

from repro.faults import random_fault_plan
from repro.mds.scenarios import distributed_create_cluster

pytestmark = pytest.mark.slow


def run_torture(protocol, seed, n_ops=12, n_faults=3):
    cluster, client = distributed_create_cluster(protocol, trace=True)
    plan = random_fault_plan(
        seed,
        nodes=["mds1", "mds2"],
        horizon=0.1,
        n_faults=n_faults,
    )
    plan.install(cluster)
    for i in range(n_ops):
        client.submit(client.plan_create(f"/dir1/t{i}"))
    # Long settle: reboots, healed partitions and decision queries all
    # need to play out (timeout ladders reach ~12 s of virtual time).
    cluster.sim.run(until=cluster.sim.now + 300.0)
    return cluster


def assert_all_or_nothing(cluster):
    """Every created inode is referenced; every dentry's inode exists."""
    violations = cluster.check_invariants()
    assert violations == [], violations
    dentries = cluster.store_of("mds1").stable_directories.get("/dir1", {})
    inodes = set(cluster.store_of("mds2").stable_inodes)
    assert set(dentries.values()) == inodes


@pytest.mark.parametrize("seed", range(10))
def test_torture_1pc(seed):
    cluster = run_torture("1PC", seed)
    assert_all_or_nothing(cluster)


@pytest.mark.parametrize("seed", range(5))
def test_torture_prn(seed):
    cluster = run_torture("PrN", seed)
    assert_all_or_nothing(cluster)


@pytest.mark.parametrize("seed", range(5))
def test_torture_prc(seed):
    cluster = run_torture("PrC", seed)
    assert_all_or_nothing(cluster)


@pytest.mark.parametrize("seed", range(5))
def test_torture_ep(seed):
    cluster = run_torture("EP", seed)
    assert_all_or_nothing(cluster)


@pytest.mark.parametrize("seed", [100, 101, 102])
def test_torture_heavy_faults(protocol, seed):
    """Five faults over a dozen transactions."""
    cluster = run_torture(protocol, seed, n_ops=12, n_faults=5)
    assert_all_or_nothing(cluster)


def run_torture_mixed(protocol, seed, n_faults=3):
    """Mixed mkdir/create/delete/rmdir stream under random faults."""
    cluster, client = distributed_create_cluster(protocol, trace=True)
    plan = random_fault_plan(seed, nodes=["mds1", "mds2"], horizon=0.15, n_faults=n_faults)
    plan.install(cluster)

    def driver(sim):
        ops = [
            ("mkdir", "/dir1/sub"),
            ("create", "/dir1/a"),
            ("create", "/dir1/sub/b"),
            ("create", "/dir1/sub/c"),
            ("delete", "/dir1/sub/b"),
            ("delete", "/dir1/sub/c"),
            ("rmdir", "/dir1/sub"),
            ("create", "/dir1/d"),
            ("delete", "/dir1/a"),
        ]
        for op, path in ops:
            try:
                if op == "mkdir":
                    yield from client.mkdir(path, timeout=30.0)
                elif op == "create":
                    yield from client.create(path, timeout=30.0)
                elif op == "delete":
                    yield from client.delete(path, timeout=30.0)
                else:
                    yield from client.rmdir(path, timeout=30.0)
            except (FileNotFoundError, Exception):
                # Aborts / crashes surface as missing files or reply
                # timeouts; the driver carries on like a real client.
                continue

    cluster.sim.process(driver(cluster.sim), name="mixed-torture")
    cluster.sim.run(until=cluster.sim.now + 400.0)
    return cluster


@pytest.mark.parametrize("seed", range(8))
def test_torture_mixed_ops_1pc(seed):
    cluster = run_torture_mixed("1PC", seed)
    assert cluster.check_invariants() == []


@pytest.mark.parametrize("protocol_name", ["PrN", "PrC", "EP", "PrA"])
@pytest.mark.parametrize("seed", [0, 3, 7])
def test_torture_mixed_ops_2pc_family(protocol_name, seed):
    cluster = run_torture_mixed(protocol_name, seed)
    assert cluster.check_invariants() == []


def test_torture_is_deterministic():
    a = run_torture("1PC", seed=3)
    b = run_torture("1PC", seed=3)
    sig_a = [(r.time, r.category, r.actor) for r in a.trace.records]
    sig_b = [(r.time, r.category, r.actor) for r in b.trace.records]
    assert sig_a == sig_b
