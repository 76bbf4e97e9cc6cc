"""Properties of the random schedule generator, ``generate_schedule``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import generate_schedule
from repro.faults import FAULT_KINDS, WINDOWS

pytestmark = pytest.mark.slow

NODES = ["mds1", "mds2", "mds3"]


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=8))
@settings(max_examples=80, deadline=None)
def test_random_plan_is_well_formed(seed, n_faults):
    schedule = generate_schedule("1PC", seed, nodes=NODES, n_faults=n_faults, horizon=1.0)
    assert len(schedule.faults) == n_faults
    for fault in schedule.faults:
        assert fault.kind in FAULT_KINDS and fault.node in NODES
        assert (fault.at is None) != (fault.trigger is None)
        if fault.at is not None:
            # Chaos starts once the workload has.
            assert 0.1 <= fault.at <= 1.0
        else:
            assert fault.trigger in [make(fault.node) for make in WINDOWS.values()]
        if fault.kind == "link":
            assert fault.peer in NODES and fault.peer != fault.node
        else:
            assert fault.peer == ""
        delays = (fault.restart_after, fault.heal_after, fault.restore_after, fault.duration)
        set_delays = [d for d in delays if d is not None]
        assert len(set_delays) == (0 if fault.kind == "refuse" else 1)
        assert all(d > 0 for d in set_delays)
    assert len(schedule.build_plan().faults) == n_faults


@given(st.integers(min_value=0, max_value=10_000))
@settings(deadline=None)
def test_random_plan_is_deterministic_per_seed(seed):
    a = generate_schedule("PrN", seed, nodes=NODES, n_faults=4)
    b = generate_schedule("PrN", seed, nodes=NODES, n_faults=4)
    assert a == b and a.describe() == b.describe() and a.to_json() == b.to_json()
