#!/usr/bin/env python3
"""mdtest-style phase comparison across every registered protocol.

mdtest is the standard metadata benchmark on HPC systems: create all
files, stat them, delete them, reporting per-phase operations per
second.  This example runs those phases against the simulated cluster
for every registered commit protocol, the extensions included.
Stat is a read — it needs no commit protocol, so its rate is protocol
independent; create and delete are two-MDS distributed transactions
and spread exactly as Figure 6 predicts.

Run:  python examples/mdtest_comparison.py
"""

from repro.analysis.tables import render_table
from repro.mds.scenarios import distributed_create_cluster
from repro.protocols.registry import default_protocols
from repro.workloads import run_mdtest_phases

N_FILES = 40


def stat_phase_rate(protocol: str, n: int) -> float:
    """Stat all files back to back; ops/s."""
    cluster, client = distributed_create_cluster(protocol, trace=False)

    def build(sim):
        for i in range(n):
            result = yield from client.create(f"/dir1/mdtest{i}")
            assert result["committed"]

    p = cluster.sim.process(build(cluster.sim))
    cluster.sim.run(until=p)
    cluster.sim.run(until=cluster.sim.now + 30.0)

    start = cluster.sim.now

    def stat_all(sim):
        for i in range(n):
            result = yield from client.stat(f"/dir1/mdtest{i}")
            assert result["found"]

    p = cluster.sim.process(stat_all(cluster.sim))
    cluster.sim.run(until=p)
    return n / (cluster.sim.now - start)


def main() -> None:
    rows = []
    for protocol in default_protocols():
        phases = run_mdtest_phases(protocol, n_files=N_FILES)
        stat_rate = stat_phase_rate(protocol, N_FILES)
        rows.append(
            [
                protocol,
                f"{phases['create']:.1f}",
                f"{stat_rate:.0f}",
                f"{phases['delete']:.1f}",
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
        "everywhere."
    )


if __name__ == "__main__":
    main()
