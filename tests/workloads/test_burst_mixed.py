"""Workload generators: burst, delete-burst, and mixed streams and
mdtest phases put to the cluster through ``drive``."""

import pytest

from repro.mds.scenarios import HOT_DIR, distributed_create_cluster
from repro.workloads import drain, drive, measure, run_burst
from repro.workloads.cell import Tally
from repro.workloads.composite import CompositeConfig, composite_trace

#: Create / delete / rename in the one hot directory, closed loop.
MIX = CompositeConfig(
    ops=60, mix=(("create", 0.6), ("delete", 0.2), ("rename", 0.2)), hot_fraction=1.0, window=4
)


def test_burst_create_all_commit():
    result = run_burst("1PC", n=20)
    assert result.committed == 20 and result.aborted == 0
    assert result.throughput > 0
    assert result.makespan > 0
    assert result.cluster.check_invariants() == []
    assert result.latency.count == 20


def test_burst_invalid_op_rejected():
    with pytest.raises(ValueError):
        run_burst("1PC", n=1, op="stat")


def test_burst_delete_measures_delete_phase():
    result = run_burst("1PC", n=10, op="delete")
    assert result.committed == 10
    # Everything deleted.
    assert result.cluster.listdir("/dir1") == {}
    assert result.cluster.check_invariants() == []


def test_burst_throughput_ordering_matches_figure6():
    """Even at a small burst the protocol ordering must hold."""
    tputs = {p: run_burst(p, n=30).throughput for p in ("PrN", "PrC", "EP", "1PC")}
    assert tputs["1PC"] > tputs["EP"] > tputs["PrC"] >= tputs["PrN"] * 0.999


def test_burst_latency_stats_sane():
    result = run_burst("PrN", n=15)
    stats = result.latency
    assert stats.minimum <= stats.p50 <= stats.p95 <= stats.maximum
    # Queueing behind the directory lock stretches the tail.
    assert stats.maximum > stats.minimum * 3


def run_mix(protocol, seed):
    cluster, _ = distributed_create_cluster(protocol)
    cluster.mkdir(HOT_DIR)
    tally = Tally()
    drive(cluster, composite_trace(MIX, seed), MIX.window, tally)
    cluster.sim.run()
    return cluster, tally


def test_mixed_workload_runs_clean():
    cluster, tally = run_mix("1PC", seed=3)
    assert len(cluster.outcomes) + tally.skipped == MIX.ops
    # The vast majority commit (aborts only from benign plan races).
    assert len([o for o in cluster.outcomes if o.committed]) >= 50
    assert cluster.check_invariants() == []


def test_mixed_workload_deterministic():
    a, tally_a = run_mix("1PC", seed=9)
    b, tally_b = run_mix("1PC", seed=9)
    assert [o.replied_at for o in a.outcomes] == [o.replied_at for o in b.outcomes]
    assert tally_a.skipped == tally_b.skipped


def test_mixed_all_protocols_consistent():
    for protocol in ("PrN", "PrC", "EP", "1PC"):
        cluster, _ = run_mix(protocol, seed=5)
        assert cluster.check_invariants() == [], protocol


def test_mdtest_phases_create_then_delete():
    cluster, client = distributed_create_cluster("1PC")
    paths = [f"/dir1/mdtest{i}" for i in range(12)]
    rates = {}
    for phase, planner in (("create", client.plan_create), ("delete", client.plan_delete)):
        cluster.outcomes.clear()
        start = cluster.sim.now
        drive(cluster, [(client, planner(path)) for path in paths])
        drain(cluster, len(paths), f"mdtest {phase} phase")
        m = measure(cluster, cluster.outcomes, start)
        assert m.committed == len(paths), phase
        rates[phase] = m.per_second(m.committed)
    assert rates["create"] > 0 and rates["delete"] > 0
    assert cluster.listdir("/dir1") == {}
