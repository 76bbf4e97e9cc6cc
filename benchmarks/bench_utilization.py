"""Extension — where the time goes, per protocol.

Explains Figure 6: for a 30-create burst, report per-protocol device
utilisation and the directory-lock contention profile.  1PC's win shows
up directly as a shorter mean wait on the shared directory lock.
"""

from repro.analysis.tables import render_table
from repro.analysis.utilization import device_utilization, lock_contention
from repro.workloads import run_burst

PROTOCOLS = ("PrN", "PrC", "EP", "1PC")
N = 30


def test_bench_utilization(once):
    def run_all():
        return {p: run_burst(p, n=N, trace=True).cluster for p in PROTOCOLS}

    clusters = once(run_all)
    rows = []
    waits = {}
    for protocol, cluster in clusters.items():
        utils = device_utilization(cluster.trace)
        locks = lock_contention(cluster.trace)["dir:/dir1"]
        waits[protocol] = locks.mean_wait
        rows.append(
            [
                protocol,
                f"{utils['disk:mds1'].utilization:.0%}",
                f"{utils['disk:mds2'].utilization:.0%}",
                f"{locks.mean_wait * 1e3:.1f}",
                f"{locks.max_wait * 1e3:.1f}",
            ]
        )
    print("\n" + render_table(
        ["Protocol", "Coord disk util", "Worker disk util",
         "Mean dir-lock wait (ms)", "Max (ms)"],
        rows,
        title=f"Resource profile of a {N}-create burst",
    ))
    # The mechanism of Figure 6: 1PC holds the directory lock for the
    # shortest time, so everyone behind it waits the least.
    assert waits["1PC"] < waits["EP"] < waits["PrN"]
    for cluster in clusters.values():
        assert cluster.check_invariants() == []
