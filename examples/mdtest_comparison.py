#!/usr/bin/env python3
"""mdtest-style phases and a checkpoint/rotate stream across protocols.

mdtest is the standard metadata benchmark on HPC systems: create all
files, stat them, delete them, reporting per-phase operations per
second.  This example runs those phases against the simulated cluster
for every registered commit protocol, the extensions included.
Stat is a read — it needs no commit protocol, so its rate is protocol
independent; create and delete are two-MDS distributed transactions
and spread exactly as Figure 6 predicts.

It then replays an HPC checkpoint/rotate stream (every round each rank
writes a checkpoint, then the previous round's are deleted) closed
loop under PrN and 1PC: the way to evaluate the protocols on your own
application's operation stream.  Every phase is one ``drive`` call.

Run:  python examples/mdtest_comparison.py
"""

from repro.analysis.tables import render_table
from repro.mds.scenarios import distributed_create_cluster
from repro.protocols.registry import default_protocols
from repro.workloads import drain, drive, measure
from repro.workloads.cell import SETTLE, Tally

N_FILES = 40
RANKS, ROUNDS, PERIOD = 12, 3, 0.02


def mdtest_phases(protocol: str) -> dict[str, float]:
    """Create all, stat all, delete all in one directory; ops/s each."""
    cluster, client = distributed_create_cluster(protocol)
    sim = cluster.sim
    paths = [f"/dir1/mdtest{i}" for i in range(N_FILES)]
    rates = {}
    for phase, planner in (("create", client.plan_create), ("delete", client.plan_delete)):
        cluster.outcomes.clear()
        start = sim.now
        # Open loop: the whole phase is submitted at once.
        drive(cluster, [(client, planner(path)) for path in paths])
        drain(cluster, N_FILES, f"mdtest {phase} phase")
        m = measure(cluster, cluster.outcomes, start)
        assert m.committed == N_FILES, phase
        rates[phase] = m.per_second(N_FILES)
        if phase == "create":
            # Closed loop, one client: stat the files back to back.
            start, tally = sim.now, Tally()
            stats = ({"op": "stat", "path": p, "gap": 0.0} for p in paths)
            drive(cluster, stats, 1, tally)
            sim.run()
            rates["stat"] = tally.reads / (tally.last_reply - start)
            sim.run(until=sim.now + SETTLE)
    return rates


def checkpoint_rounds():
    """Each round every rank creates a checkpoint; from the second
    round on the previous generation is deleted."""
    for r in range(ROUNDS):
        for rank in range(RANKS):
            gap = PERIOD if rank == 0 else 0.0
            yield {"op": "create", "path": f"/dir1/ckpt/rank{rank}.r{r}", "gap": gap}
        for rank in range(RANKS if r else 0):
            yield {"op": "delete", "path": f"/dir1/ckpt/rank{rank}.r{r - 1}", "gap": 0.0}


def main() -> None:
    rows = []
    for protocol in default_protocols():
        rates = mdtest_phases(protocol)
        rows.append(
            [
                protocol,
                f"{rates['create']:.1f}",
                f"{rates['stat']:.0f}",
                f"{rates['delete']:.1f}",
            ]
        )
    print(render_table(
        ["Protocol", "Create (ops/s)", "Stat (ops/s)", "Delete (ops/s)"],
        rows,
        title=f"mdtest phases, {N_FILES} files in one shared directory",
    ))
    print(
        "\nCreates and deletes are distributed transactions and follow "
        "the Figure 6 ordering; stats are local reads and identical "
        "everywhere.\n"
    )

    rows = []
    for protocol in ("PrN", "1PC"):
        cluster, _ = distributed_create_cluster(protocol)
        cluster.mkdir("/dir1/ckpt")
        tally = Tally()
        drive(cluster, checkpoint_rounds(), 1, tally)
        cluster.sim.run()
        assert cluster.check_invariants() == [] and tally.skipped == 0
        m = measure(cluster, cluster.outcomes, 0.0)
        rows.append(
            [
                protocol,
                str(m.committed),
                f"{m.makespan * 1e3:.1f}",
                f"{m.latency.p95 * 1e3:.2f}",
            ]
        )
    print(render_table(
        ["Protocol", "Ops committed", "Makespan (ms)", "p95 latency (ms)"],
        rows,
        title=f"Checkpoint/rotate stream, {RANKS} ranks x {ROUNDS} rounds (closed loop)",
    ))
    print("\nSurviving files:", sorted(cluster.listdir("/dir1/ckpt"))[:4], "...")


if __name__ == "__main__":
    main()
