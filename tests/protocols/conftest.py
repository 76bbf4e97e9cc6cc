"""Shared helpers for protocol tests (fixtures live in tests/conftest.py)."""

from repro.mds.scenarios import distributed_create_cluster

ALL_PROTOCOLS = ("PrN", "PrC", "EP", "1PC")
TWO_PC_FAMILY = ("PrN", "PrC", "EP")


def make_cluster(protocol, **kwargs):
    return distributed_create_cluster(protocol, **kwargs)


def run_create(cluster, client, path="/dir1/f0"):
    """Drive one create to completion; returns the reply payload."""
    done = cluster.sim.process(client.create(path), name="t")
    cluster.sim.run(until=done)
    return done.value


def drain(cluster, budget=120.0):
    """Run the remaining schedule (trailing ACKs, GC, recovery)."""
    cluster.sim.run(until=cluster.sim.now + budget)
