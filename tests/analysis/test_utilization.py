"""Trace-derived utilisation and contention statistics."""

import pytest

from repro.analysis.utilization import (
    device_utilization,
    lock_contention,
    message_stats,
    txn_breakdown,
)
from repro.workloads import run_burst


@pytest.fixture(scope="module")
def burst_trace():
    run_burst("1PC", n=20)
    # run_burst disables tracing by default; re-run one with tracing.
    from repro.mds.scenarios import distributed_create_cluster

    cluster, client = distributed_create_cluster("1PC", trace="full")
    for i in range(20):
        client.submit(client.plan_create(f"/dir1/f{i}"))
    while len(cluster.outcomes) < 20:
        cluster.sim.step()
    cluster.sim.run(until=cluster.sim.now + 30.0)
    return cluster.trace


def test_device_utilization_bounds(burst_trace):
    utils = device_utilization(burst_trace)
    assert utils, "expected disk activity"
    for util in utils.values():
        assert 0.0 < util.utilization <= 1.0
        assert util.operations > 0
        assert util.bytes_moved > 0


def test_coordinator_disk_is_busiest_under_1pc(burst_trace):
    utils = device_utilization(burst_trace)
    # 1PC writes STARTED+REDO and UPDATES+COMMITTED at the coordinator
    # vs UPDATES+COMMITTED (+tiny ENDED) at the worker.
    assert utils["disk:mds1"].bytes_moved > utils["disk:mds2"].bytes_moved


def test_empty_trace_yields_no_devices():
    from repro.sim import Simulator, TraceLog

    assert device_utilization(TraceLog(Simulator())) == {}


def test_lock_contention_on_shared_directory(burst_trace):
    contention = lock_contention(burst_trace)
    dir_key = "dir:/dir1"
    assert dir_key in contention
    stats = contention[dir_key]
    assert stats.grants == 20
    assert stats.waits >= 18  # all but the first couple had to wait
    assert stats.max_wait >= stats.mean_wait > 0


def test_message_stats_counts(burst_trace):
    stats = message_stats(burst_trace)
    assert stats["UPDATE_REQ"].sent == 20
    assert stats["UPDATE_REQ"].received == 20
    assert stats["UPDATE_REQ"].dropped == 0
    assert stats["ACK"].sent == 20


def test_txn_breakdown_accounts_for_total(burst_trace):
    # The last transaction waited behind 19 others: its lock wait
    # dominates.
    breakdown = txn_breakdown(burst_trace, 20)
    assert breakdown is not None
    assert breakdown.committed
    assert breakdown.total > 0
    assert breakdown.lock_wait + breakdown.log_force_wait <= breakdown.total + 1e-9
    assert breakdown.other >= 0
    first = txn_breakdown(burst_trace, 1)
    assert first.lock_wait <= breakdown.lock_wait


def test_txn_breakdown_unknown_txn():
    from repro.sim import Simulator, TraceLog

    assert txn_breakdown(TraceLog(Simulator()), 42) is None


def test_breakdown_identifies_lock_wait_as_dominant_for_late_txns(burst_trace):
    late = txn_breakdown(burst_trace, 20)
    assert late.lock_wait > late.log_force_wait
