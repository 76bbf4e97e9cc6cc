#!/usr/bin/env python3
"""Quickstart: a two-MDS cluster running the 1PC protocol.

Builds the smallest interesting deployment — two metadata servers with
their logs on shared storage — creates a handful of files whose parent
directory and inodes live on *different* servers (so every CREATE is a
distributed transaction), deletes one, renames another, and verifies
the namespace invariants at the end.

Run:  python examples/quickstart.py
"""

from repro import Cluster
from repro.fs.placement import ForcedDistributedPlacement


def main() -> None:
    # Directory entries on mds1, inodes on mds2: every namespace
    # operation spans both servers and needs atomic commitment.
    cluster = Cluster(
        protocol="1PC",
        server_names=["mds1", "mds2"],
        placement=ForcedDistributedPlacement("mds1", "mds2"),
    )
    cluster.mkdir("/data")
    client = cluster.new_client()

    def scenario(sim):
        for i in range(4):
            result = yield from client.create(f"/data/file{i}")
            print(f"t={sim.now * 1e3:7.3f} ms  CREATE /data/file{i} -> "
                  f"{'committed' if result['committed'] else 'ABORTED'}")
        result = yield from client.delete("/data/file0")
        print(f"t={sim.now * 1e3:7.3f} ms  DELETE /data/file0 -> "
              f"{'committed' if result['committed'] else 'ABORTED'}")
        result = yield from client.rename("/data/file1", "/data/renamed")
        print(f"t={sim.now * 1e3:7.3f} ms  RENAME file1 -> renamed: "
              f"{'committed' if result['committed'] else 'ABORTED'}")

    done = cluster.sim.process(scenario(cluster.sim), name="quickstart")
    cluster.sim.run(until=done)
    cluster.sim.run(until=cluster.sim.now + 60.0)  # settle trailing I/O

    print("\nDirectory /data:", cluster.listdir("/data"))
    print("mds1 owns:", cluster.store_of("mds1").stable_directories)
    print("mds2 inodes:", sorted(cluster.store_of("mds2").stable_inodes))

    violations = cluster.check_invariants()
    print(f"\nInvariant check: {'OK' if not violations else violations}")
    print(f"Transactions: {len(cluster.outcomes)} "
          f"({sum(o.committed for o in cluster.outcomes)} committed)")
    mean_latency = sum(o.client_latency for o in cluster.outcomes) / len(cluster.outcomes)
    print(f"Mean client latency: {mean_latency * 1e3:.3f} ms")


if __name__ == "__main__":
    main()
