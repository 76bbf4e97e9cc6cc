"""Campaign runner: clean verdicts, registry-wide smoke, determinism."""

import pytest

from repro.campaign.runner import run_campaign_cell
from repro.campaign.schedule import CampaignSchedule, generate_schedule
from repro.campaign.shrink import violation_kinds
from repro.exec import campaign_grid, run_sweep
from repro.exec.runners import execute_spec
from repro.faults import Fault
from repro.protocols.registry import default_protocols


def test_faultless_run_is_clean():
    sched = CampaignSchedule(protocol="1PC", seed=0, n_ops=4)
    cluster, verdict = run_campaign_cell(sched)
    assert verdict["ok"] is True
    assert verdict["violations"] == []
    assert verdict["committed"] == 4
    assert verdict["faults_planned"] == 0
    assert cluster.obs.metrics.counter("campaign.runs").value == 1


def test_verdict_counts_fired_faults():
    sched = generate_schedule("1PC", seed=1)
    _cluster, verdict = run_campaign_cell(sched)
    assert verdict["faults_planned"] == 3
    assert 0 <= verdict["faults_fired"] <= 3


def test_fault_on_a_node_the_cell_lacks_is_refused_before_the_run():
    """It used to surface as ``KeyError('mds9')`` out of a kernel timer."""
    sched = CampaignSchedule(protocol="1PC", seed=0, faults=(Fault("crash", "mds9", at=0.01),))
    with pytest.raises(ValueError, match=r"node the cluster does not have.*: crash\(mds9, at=0.01\)"):
        run_campaign_cell(sched)


def test_campaign_grid_specs_are_cacheable_identities():
    a = campaign_grid("1PC", runs=3, seed=5)
    b = campaign_grid("1PC", runs=3, seed=5)
    assert [s.to_dict() for s in a] == [s.to_dict() for s in b]
    # Distinct runs get distinct schedules.
    assert len({s.campaign for s in a}) == 3
    # Round-trip through the serialised form preserves identity.
    for spec in a:
        assert type(spec).from_dict(spec.to_dict()).to_dict() == spec.to_dict()


def test_campaign_cell_executes_through_executor():
    spec = campaign_grid("1PC", runs=1, seed=2)[0]
    cell = execute_spec(spec)
    assert cell.spec.kind == "campaign"
    assert cell.verdict is not None
    assert violation_kinds(cell) == set()
    # The verdict is part of the cell's document.
    assert cell.to_dict()["verdict"] == cell.verdict


@pytest.mark.slow
def test_registry_smoke_all_protocols_zero_violations():
    """Every registered protocol survives a seeded campaign block."""
    for proto in default_protocols():
        for spec in campaign_grid(proto, runs=2, seed=11):
            cell = execute_spec(spec)
            assert cell.verdict is not None
            assert cell.verdict["violations"] == [], (proto, spec.point)


@pytest.mark.slow
def test_serial_and_pooled_sweeps_byte_identical():
    specs = campaign_grid("1PC", runs=4, seed=3)
    serial = run_sweep(specs, kind="campaign", workers=1)
    pooled = run_sweep(specs, kind="campaign", workers=2)
    assert serial.to_json(canonical=True) == pooled.to_json(canonical=True)
