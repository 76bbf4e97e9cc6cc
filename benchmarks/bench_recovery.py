"""Extension — recovery time after a mid-transaction crash.

Measures how long each protocol takes to reach a decided, consistent
state after the worker (or the coordinator) of an in-flight distributed
CREATE crashes.  1PC trades a fencing delay for never blocking on the
dead peer; the 2PC family relies on reboot + decision queries.
"""


from repro.analysis.tables import render_table
from repro.harness.recovery import measure_crash_recovery

PROTOCOLS = ("PrN", "PrC", "EP", "1PC")


def test_bench_recovery_worker_crash(once):
    def run_all():
        return {p: measure_crash_recovery(p, "mds2") for p in PROTOCOLS}

    results = once(run_all)
    rows = [
        [p, f"{r.settle_time * 1e3:.1f}", str(r.committed), str(r.invariant_violations)]
        for p, r in results.items()
    ]
    print("\n" + render_table(
        ["Protocol", "Settle time (ms)", "Committed", "Violations"],
        rows,
        title="Recovery after a worker crash at t=0.1 ms",
    ))
    for p, r in results.items():
        assert r.invariant_violations == 0, p


def test_bench_recovery_heartbeats_accelerate_1pc(once):
    """With the heartbeat detector running, the 1PC coordinator fences
    a dead worker on suspicion (~30 ms) instead of the 1 s protocol
    timeout."""
    from repro import Cluster
    from repro.fs.placement import ForcedDistributedPlacement

    def run(heartbeats):
        cluster = Cluster(
            protocol="1PC",
            server_names=["mds1", "mds2"],
            placement=ForcedDistributedPlacement("mds1", "mds2"),
            heartbeats=heartbeats,
        )
        cluster.mkdir("/dir1")
        client = cluster.new_client()
        cluster.sim.run(until=0.2)
        client.submit(client.plan_create("/dir1/f0"))
        while not any(
            r.category == "msg_recv" and r.actor == "mds2" and r.get("kind") == "UPDATE_REQ"
            for r in cluster.trace.records
        ):
            cluster.sim.step()
        crash_time = cluster.sim.now
        cluster.crash_server("mds2")
        while not cluster.outcomes:
            cluster.sim.step()
        return cluster.outcomes[0].replied_at - crash_time

    def run_both():
        return {"heartbeats": run(True), "timeout-only": run(False)}

    results = once(run_both)
    rows = [[k, f"{v * 1e3:.1f}"] for k, v in results.items()]
    print("\n" + render_table(
        ["Detection", "Crash -> client answer (ms)"],
        rows,
        title="1PC worker-crash decision latency",
    ))
    assert results["heartbeats"] < results["timeout-only"] / 2


def test_bench_recovery_coordinator_crash(once):
    def run_all():
        return {p: measure_crash_recovery(p, "mds1") for p in PROTOCOLS}

    results = once(run_all)
    rows = [
        [p, f"{r.settle_time * 1e3:.1f}", str(r.committed), str(r.invariant_violations)]
        for p, r in results.items()
    ]
    print("\n" + render_table(
        ["Protocol", "Settle time (ms)", "Committed", "Violations"],
        rows,
        title="Recovery after a coordinator crash at t=0.1 ms",
    ))
    for p, r in results.items():
        assert r.invariant_violations == 0, p
