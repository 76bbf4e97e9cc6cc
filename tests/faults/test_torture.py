"""Torture tests: random fault schedules over concurrent workloads.

The strongest correctness statement in the suite: for a battery of
seeded schedules from the one generator, ``generate_schedule`` (timed
crashes with restarts, partitions that heal, link flaps, vote refusals
and disk stalls, plus crashes, partitions and stalls aimed at the
protocol-critical windows), run as campaign cells over a dozen
concurrent distributed creates, the campaign verdict must be clean:
namespace invariants, per-transaction atomicity, durability of every
acknowledged commit, serial equivalence and no conflict cycle.

A seed that ever fails is not swapped: shrink it (``repro campaign
shrink``) and commit the repro document beside this file.
"""

import pytest

from repro.campaign import generate_schedule, run_campaign_cell
from repro.mds.scenarios import distributed_create_cluster

pytestmark = pytest.mark.slow


def run_torture(protocol, seed, n_ops=12, n_faults=3):
    """One campaign cell; returns the settled cluster and its verdict."""
    return run_campaign_cell(generate_schedule(protocol, seed, n_faults=n_faults, n_ops=n_ops))


def assert_clean(run):
    _cluster, verdict = run
    assert verdict["ok"], verdict["violations"]


@pytest.mark.parametrize("seed", range(10))
def test_torture_1pc(seed):
    assert_clean(run_torture("1PC", seed))


@pytest.mark.parametrize("seed", range(5))
def test_torture_prn(seed):
    assert_clean(run_torture("PrN", seed))


@pytest.mark.parametrize("seed", range(5))
def test_torture_prc(seed):
    assert_clean(run_torture("PrC", seed))


@pytest.mark.parametrize("seed", range(5))
def test_torture_ep(seed):
    assert_clean(run_torture("EP", seed))


@pytest.mark.parametrize("seed", [100, 101, 102])
def test_torture_heavy_faults(protocol, seed):
    """Five faults over a dozen transactions."""
    assert_clean(run_torture(protocol, seed, n_ops=12, n_faults=5))


def run_torture_mixed(protocol, seed, n_faults=3):
    """Mixed mkdir/create/delete/rmdir stream under random faults."""
    cluster, client = distributed_create_cluster(protocol, trace="full")
    schedule = generate_schedule(protocol, seed, n_faults=n_faults, horizon=0.15)
    schedule.build_plan().install(cluster)

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
    a, _ = run_torture("1PC", seed=3)
    b, _ = run_torture("1PC", seed=3)
    sig_a = [(r.time, r.category, r.actor) for r in a.trace.records]
    sig_b = [(r.time, r.category, r.actor) for r in b.trace.records]
    assert sig_a == sig_b
