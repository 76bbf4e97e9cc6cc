"""Shrinker unit tests against synthetic (no-simulation) oracles."""

import dataclasses

import pytest

from repro.campaign.schedule import CampaignSchedule
from repro.campaign.shrink import shrink_schedule
from repro.faults import Fault, TraceTrigger


def sched(n_faults=4, n_ops=8, n_clients=2):
    faults = tuple(
        Fault(kind="crash", node=f"mds{i % 2 + 1}", at=0.01 * (i + 1))
        for i in range(n_faults)
    )
    return CampaignSchedule(
        protocol="1PC", seed=0, n_ops=n_ops, n_clients=n_clients, faults=faults
    )


def test_shrinks_to_single_culprit_fault():
    culprit = sched().faults[2]

    def oracle(candidate):
        return culprit in candidate.faults

    result = shrink_schedule(sched(), oracle)
    assert result.schedule.faults == (culprit,)
    assert result.schedule.n_ops == 1
    assert result.schedule.n_clients == 1
    assert result.steps > 0
    assert result.tried > result.steps


def test_result_is_one_minimal():
    """Removing any remaining fault must un-reproduce."""
    needed = {sched().faults[0], sched().faults[3]}

    def oracle(candidate):
        return needed <= set(candidate.faults)

    result = shrink_schedule(sched(), oracle)
    assert set(result.schedule.faults) == needed
    for i in range(len(result.schedule.faults)):
        faults = result.schedule.faults[:i] + result.schedule.faults[i + 1 :]
        candidate = dataclasses.replace(result.schedule, faults=faults)
        assert not oracle(candidate)


def test_workload_only_shrink():
    """An always-reproducing oracle shrinks everything away."""
    result = shrink_schedule(sched(), lambda candidate: True)
    assert result.schedule.faults == ()
    assert result.schedule.n_ops == 1
    assert result.schedule.n_clients == 1


def test_non_reproducing_schedule_rejected():
    with pytest.raises(ValueError, match="does not reproduce"):
        shrink_schedule(sched(), lambda candidate: False)


def test_trigger_tightening():
    """An unbound trigger gets pinned to the fault's node."""
    loose = Fault("crash", "mds2", trigger=TraceTrigger(category="fence", min_count=3))

    def oracle(candidate):
        # Reproduces as long as a crash on mds2 with a fence trigger
        # remains, however tight.
        return any(
            f.kind == "crash" and f.node == "mds2" and f.trigger is not None
            for f in candidate.faults
        )

    base = CampaignSchedule(protocol="1PC", seed=0, n_ops=2, faults=(loose,))
    result = shrink_schedule(base, oracle)
    (fault,) = result.schedule.faults
    assert fault.trigger is not None
    assert fault.trigger.actor == "mds2"
    assert fault.trigger.min_count == 1


def test_oracle_call_budget_is_linear():
    """Greedy ddmin stays cheap: O(faults) per fixpoint round."""
    calls = []

    def oracle(candidate):
        calls.append(candidate)
        return True

    shrink_schedule(sched(n_faults=8, n_ops=16), oracle)
    assert len(calls) < 40
