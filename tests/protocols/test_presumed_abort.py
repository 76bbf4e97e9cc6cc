"""The Presumed Abort extension protocol."""

import pytest

from repro.analysis.costs import CostRow, measure_protocol_costs
from repro.storage.records import RecordKind
from tests.protocols.conftest import drain, make_cluster, run_create


def test_pra_commit_path_works():
    cluster, client = make_cluster("PrA")
    result = run_create(cluster, client)
    assert result["committed"] is True
    drain(cluster)
    assert cluster.check_invariants() == []
    assert cluster.lookup("/dir1/f0") is not None


def test_pra_commit_costs_match_prn():
    """PrA streamlines aborts only; its commit path costs exactly PrN."""
    assert measure_protocol_costs("PrA").row == CostRow(5, 1, 4, 1, 4, 4)


def test_pra_abort_is_cheap():
    """A PrA abort writes nothing to the coordinator's log."""
    cluster, client = make_cluster("PrA")
    cluster.servers["mds2"].fail_next_vote = True
    result = run_create(cluster, client)
    assert result["committed"] is False
    drain(cluster)
    assert cluster.check_invariants() == []
    # No forced ABORTED record anywhere.
    assert cluster.trace.count("log_append", kind=str(RecordKind.ABORTED)) == 0
    # Logs fully clean.
    assert cluster.storage.log_of("mds1").durable_records == ()
    assert cluster.storage.log_of("mds2").durable_records == ()


def test_pra_prepared_worker_presumes_abort_after_coordinator_crash():
    """The defining recovery rule: a prepared worker asking a
    coordinator with no log entry must be told ABORT."""
    cluster, client = make_cluster("PrA")
    client.submit(client.plan_create("/dir1/f0"))
    # Run until the worker's PREPARED record is durable.
    while not any(
        r.category == "log_durable" and r.actor == "mds2" and r.get("kind") == "PREPARED"
        for r in cluster.trace.records
    ):
        cluster.sim.step()
    cluster.crash_server("mds1")
    cluster.restart_server("mds1")
    cluster.sim.run(until=cluster.sim.now + 200.0)
    assert cluster.check_invariants() == []
    # Nothing committed anywhere.
    assert cluster.store_of("mds1").stable_directories["/dir1"] == {}
    assert cluster.store_of("mds2").stable_inodes == {}


def test_pra_abort_rate_advantage_over_prc():
    """With heavy aborts PrA outperforms PrC (whose aborts degrade to
    full PrN); with no aborts PrC is at least as good."""
    from repro.exec import RunSpec, execute_spec

    def burst(protocol, rate):
        spec = RunSpec(kind="abort_burst", protocol=protocol, n=30, abort_rate=rate, seed=7)
        return execute_spec(spec).throughput

    assert burst("PrA", 0.34) > burst("PrC", 0.34)
    clean_pra = burst("PrA", 0.0)
    clean_prc = burst("PrC", 0.0)
    assert clean_prc >= clean_pra * 0.98


@pytest.mark.parametrize("crash_at", [1e-3, 3e-3, 5e-3, 8e-3])
@pytest.mark.parametrize("victim", ["mds1", "mds2"])
def test_pra_crash_atomicity(victim, crash_at):
    cluster, client = make_cluster("PrA")
    client.submit(client.plan_create("/dir1/f0"))
    cluster.sim.run(until=crash_at)
    cluster.crash_server(victim)
    cluster.restart_server(victim)
    cluster.sim.run(until=cluster.sim.now + 200.0)
    assert cluster.check_invariants() == []
    dentry = cluster.store_of("mds1").stable_directories.get("/dir1", {}).get("f0")
    inodes = cluster.store_of("mds2").stable_inodes
    assert (dentry is not None) == (len(inodes) > 0)


def test_pra_differential_matches_prn_on_abort_free_schedules():
    """PrA only changes the abort path: on an abort-free schedule its
    measured behaviour is indistinguishable from PrN — same commits,
    same timing, same cell document apart from the protocol label."""
    import json

    from repro.exec import RunSpec, execute_spec

    docs = {}
    for proto in ("PrN", "PrA"):
        spec = RunSpec(kind="burst", protocol=proto, n=25, seed=3, point="diff")
        doc = execute_spec(spec).to_dict()
        # The protocol label and the seed derived from it are the only
        # admissible differences.
        doc["spec"] = {k: v for k, v in doc["spec"].items() if k != "protocol"}
        doc.pop("derived_seed", None)
        docs[proto] = json.dumps(doc, sort_keys=True)
    assert docs["PrN"] == docs["PrA"]


def test_pra_differential_diverges_from_prn_under_aborts():
    """Sanity check on the differential above: with refused votes in
    the schedule the two protocols are *not* byte-identical (PrA skips
    the forced ABORTED record and the ack round)."""
    from repro.exec import RunSpec, execute_spec

    cells = {}
    for proto in ("PrN", "PrA"):
        spec = RunSpec(kind="abort_burst", protocol=proto, n=20, abort_rate=0.3, seed=3)
        cells[proto] = execute_spec(spec)
    assert cells["PrN"].committed == cells["PrA"].committed
    assert cells["PrA"].throughput > cells["PrN"].throughput


def test_pra_torture():
    from tests.faults.test_torture import assert_clean, run_torture

    for seed in range(4):
        assert_clean(run_torture("PrA", seed))
