"""Differential drive: running the kernel's loop until ``record_outcome``
stops it must be indistinguishable from stepping it one event at a time.

The ``peek``/``step`` loop every cell used to wait in is kept here as
the reference (the frozen-reference pattern of
``tests/sim/test_differential_kernel.py``): same events processed, same
clock at the stop and after the settle, same outcomes, same trace
stream, for every registered protocol.
"""

import pytest

from repro.analysis.traceio import trace_to_string
from repro.mds.cluster import Cluster
from repro.protocols import default_protocols
from repro.workloads.burst import run_abort_burst, run_burst


def _stepped_until_answered(cluster, expected, budget):
    """The reference wait: one ``peek`` and one ``step`` per event."""
    sim = cluster.sim
    deadline = sim.now + budget
    while len(cluster.outcomes) < expected:
        if sim.peek() > deadline:
            return False
        sim.step()
    return True


def _drive(monkeypatch, wait, cell):
    """Run ``cell`` with ``wait`` as the cluster's wait; returns what a
    driver can observe of it."""
    stops = []

    def observed(cluster, expected, budget):
        answered = wait(cluster, expected, budget)
        stops.append((answered, cluster.sim.events_processed, cluster.sim.now))
        return answered

    with monkeypatch.context() as patch:
        patch.setattr(Cluster, "run_until_answered", observed)
        cluster = cell().cluster
    return {
        "stop": stops,
        "events": cluster.sim.events_processed,
        "now": cluster.sim.now,
        "left": cluster.sim.peek(),
        "outcomes": cluster.outcomes,
        "trace": trace_to_string(cluster.trace),
    }


@pytest.mark.parametrize("protocol", sorted(default_protocols()))
def test_a_traced_burst_runs_exactly_as_it_steps(monkeypatch, protocol):
    def cell():
        return run_burst(protocol, n=20, trace="full")

    stepped = _drive(monkeypatch, _stepped_until_answered, cell)
    ran = _drive(monkeypatch, Cluster.run_until_answered, cell)
    assert ran == stepped
    assert len(ran["outcomes"]) == 20 and ran["trace"]
    # The wait stopped on the event that recorded the last outcome,
    # short of the settle.
    ((answered, events, now),) = ran["stop"]
    assert answered and events < ran["events"]
    assert max(o.replied_at for o in ran["outcomes"]) <= now < ran["now"] - 29.0


@pytest.mark.parametrize("protocol", sorted(default_protocols()))
def test_an_abort_burst_without_settle_stops_on_the_last_reply(monkeypatch, protocol):
    # settle=0.0: the cell's clock and event count *are* the stop's, and
    # the abort injector's polling timer is still in the heap.
    def cell():
        return run_abort_burst(protocol, n=20, abort_rate=0.25)

    stepped = _drive(monkeypatch, _stepped_until_answered, cell)
    ran = _drive(monkeypatch, Cluster.run_until_answered, cell)
    assert ran == stepped
    assert ran["stop"] == [(True, ran["events"], ran["now"])]
    assert ran["left"] < float("inf")
