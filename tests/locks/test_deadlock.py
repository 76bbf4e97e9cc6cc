"""Unit tests for wait-for-graph deadlock detection."""

import pytest

from repro.locks import LockManager, WaitForGraph, find_deadlock_cycle
from repro.sim import Simulator


def test_no_cycle_in_empty_graph():
    assert WaitForGraph().find_cycle() is None


def test_no_cycle_in_chain():
    assert find_deadlock_cycle([(1, 2), (2, 3), (3, 4)]) is None


def test_two_cycle_detected():
    cycle = find_deadlock_cycle([(1, 2), (2, 1)])
    assert cycle is not None
    assert set(cycle) == {1, 2}


def test_three_cycle_detected():
    cycle = find_deadlock_cycle([(1, 2), (2, 3), (3, 1)])
    assert set(cycle) == {1, 2, 3}


def test_cycle_found_in_larger_graph():
    edges = [(1, 2), (2, 3), (3, 4), (4, 2), (5, 1)]
    cycle = find_deadlock_cycle(edges)
    assert set(cycle) == {2, 3, 4}


def test_self_edge_rejected():
    with pytest.raises(ValueError):
        WaitForGraph([(1, 1)])


def test_remove_transaction_breaks_cycle():
    g = WaitForGraph([(1, 2), (2, 1)])
    assert g.find_cycle() is not None
    g.remove_transaction(1)
    assert g.find_cycle() is None
    assert 1 not in g.nodes


def test_successors_and_nodes():
    g = WaitForGraph([(1, 2), (1, 3)])
    assert g.successors(1) == frozenset({2, 3})
    assert g.nodes == frozenset({1, 2, 3})


def test_deterministic_cycle_report():
    edges = [(1, 2), (2, 3), (3, 1), (4, 5), (5, 4)]
    assert find_deadlock_cycle(edges) == find_deadlock_cycle(edges)


def test_live_deadlock_detected_from_lock_manager():
    """Two transactions acquiring a/b in opposite order deadlock; the
    wait-for graph built from the lock manager exposes the cycle."""
    sim = Simulator()
    mgr = LockManager(sim)

    def t1(sim):
        if grant := mgr.request(1, "a"):
            yield grant
        yield sim.timeout(0.1)
        if grant := mgr.request(1, "b"):
            yield grant

    def t2(sim):
        if grant := mgr.request(2, "b"):
            yield grant
        yield sim.timeout(0.1)
        if grant := mgr.request(2, "a"):
            yield grant

    sim.process(t1(sim))
    sim.process(t2(sim))
    sim.run(until=1.0)
    cycle = find_deadlock_cycle(mgr.wait_edges())
    assert cycle is not None
    assert set(cycle) == {1, 2}
