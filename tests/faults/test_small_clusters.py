"""Regression tests: ``generate_schedule`` on degenerate cluster sizes.

A random generator used to crash on single-node lists (the link-fault
branch drew from an empty peer pool) and could partition the only
node, stalling the whole run until the heal.
"""

import pytest

from repro.campaign import generate_schedule
from repro.campaign.schedule import TIMED_KINDS, WINDOW_KINDS


def test_single_node_plan_builds():
    for seed in range(20):
        schedule = generate_schedule("1PC", seed, nodes=["mds1"], n_faults=5)
        assert len(schedule.faults) == 5
        for fault in schedule.faults:
            # Only kinds that make sense with one node.
            assert fault.kind in ("crash", "refuse", "stall"), fault
            assert fault.node == "mds1" and fault.peer == ""


def test_empty_node_list_rejected():
    with pytest.raises(ValueError, match="at least one node"):
        generate_schedule("1PC", 0, nodes=[])


def test_multi_node_draws_unchanged():
    """The small-cluster guard must not perturb ≥2-node schedules."""
    a = generate_schedule("1PC", 7, n_faults=4)
    assert a == generate_schedule("1PC", 7, nodes=["mds1", "mds2"], n_faults=4)
    # Per-index RNG streams: a shorter schedule is a prefix of a longer one.
    short = generate_schedule("1PC", 7, n_faults=2)
    assert short.faults == a.faults[:2]
    # Every menu entry remains reachable across seeds on two nodes.
    drawn = set()
    for seed in range(60):
        for fault in generate_schedule("1PC", seed, n_faults=3).faults:
            drawn.add(fault.kind if fault.at is not None else (fault.kind, fault.trigger.category))
    assert drawn >= set(TIMED_KINDS)
    assert len(drawn) == len(TIMED_KINDS) + len(WINDOW_KINDS)
