"""Attribute mode answers what full mode answers, without the stream.

Each scenario runs twice, with the hub in ``"attribute"`` and in
``"full"`` mode, and everything a run decides or reports must be
identical: the verdict, the faults fired and the instant each fired,
every reply instant, the kernel's event count and final clock, the
metrics snapshot, the lock-precedence edges, and the per-transaction
attribution — in full mode the same fold fed from the stream.  The
scenarios: every registered protocol's Figure-6 burst (100 creates)
and the 48 fault schedules of the ledger's ``fault-campaign``.
"""

import pytest

from repro.analysis.costs import BASE_MESSAGES, fold_span_costs
from repro.campaign.runner import run_campaign_cell
from repro.campaign.schedule import CampaignSchedule
from repro.cli import main
from repro.exec import RunSpec, campaign_grid, figure6_grid
from repro.faults import Fault, FaultPlan, TraceTrigger
from repro.mds.cluster import Cluster
from repro.mds.scenarios import distributed_create_cluster
from repro.obs import Observability
from repro.protocols import default_protocols
from repro.sim import Simulator
from repro.workloads.burst import run_burst

CAMPAIGN_PROTOCOLS = ("1PC", "PrN")


def _burst(protocol, mode):
    params = RunSpec(kind="burst", protocol=protocol, n=100, seed=0).seeded_params()
    return run_burst(protocol, n=100, params=params, trace=mode).cluster, None


def _campaign(spec, mode, monkeypatch):
    fired = []
    fire = FaultPlan._fire

    def timed(plan, fault):
        fired.append((fault.describe(), plan._cluster.sim.now.hex()))
        fire(plan, fault)

    monkeypatch.setattr(FaultPlan, "_fire", timed)
    cluster, verdict = run_campaign_cell(
        CampaignSchedule.from_json(spec.campaign), params=spec.seeded_params(), trace=mode
    )
    monkeypatch.undo()
    return cluster, (verdict, fired)


def observed(cluster):
    """What a run reports, as plain data."""
    attribution = {key: stats.values for key, stats in cluster.obs.attribution().items()}
    return {
        "replied_at": [o.replied_at.hex() for o in cluster.outcomes],
        "events": cluster.sim.events_processed,
        "now": cluster.sim.now.hex(),
        "metrics": cluster.obs.metrics.snapshot(),
        "precedence": cluster.obs.precedence(),
        "attribution": attribution,
    }


def assert_same(attribute, full):
    assert observed(attribute) == observed(full)
    assert len(attribute.trace.records) == 0 and len(attribute.obs.spans) == 0
    assert len(full.trace.records) > 0


@pytest.mark.parametrize("protocol", default_protocols())
def test_a_burst_reports_the_same_in_attribute_and_full_mode(protocol):
    attribute, _ = _burst(protocol, "attribute")
    full, _ = _burst(protocol, "full")
    assert_same(attribute, full)
    # Every transaction was attributed: one observation per component.
    counts = {stats.count for stats in attribute.obs.attribution().values()}
    assert counts == {100}


@pytest.mark.parametrize("protocol", CAMPAIGN_PROTOCOLS)
def test_every_ledger_campaign_cell_decides_the_same_in_attribute_and_full_mode(
    protocol, monkeypatch
):
    for spec in campaign_grid(protocol, runs=24, seed=0, n_ops=12, n_clients=2):
        attribute, decided = _campaign(spec, "attribute", monkeypatch)
        full, decided_full = _campaign(spec, "full", monkeypatch)
        assert decided == decided_full, spec.point
        assert_same(attribute, full)


def test_the_executor_runs_a_campaign_cell_in_attribute_mode():
    from repro.exec import execute_spec

    spec = campaign_grid("1PC", runs=24, seed=0, n_ops=12, n_clients=2)[10]
    cluster = execute_spec(spec, keep_cluster=True).payload
    assert cluster.obs.mode == "attribute"
    assert len(cluster.trace.records) == 0 and len(cluster.obs.spans._spans) == 0


@pytest.mark.parametrize("spelling", [True, False, 1, None])
def test_a_mode_that_is_not_one_of_the_three_is_refused(spelling):
    with pytest.raises(TypeError, match="'off', 'attribute', 'full'"):
        Cluster(trace=spelling)
    with pytest.raises(TypeError, match="'off', 'attribute', 'full'"):
        run_burst("1PC", n=1, trace=spelling)
    with pytest.raises(TypeError, match="'off', 'attribute', 'full'"):
        Observability(Simulator(), "everything")


def test_a_run_spec_keeps_its_document_and_seed():
    """``"trace": true`` still means full and off leaves no key, so no
    derived seed moves."""
    full = RunSpec(kind="burst", protocol="1PC", trace="full")
    assert full.to_dict()["trace"] is True
    assert "trace" not in RunSpec(kind="burst", protocol="1PC").to_dict()
    parsed = RunSpec.from_dict(full.to_dict())
    assert parsed.trace == "full" and parsed.identity() == full.identity()


@pytest.mark.parametrize("spelling", ["attribute", "on", 1, None])
def test_a_run_spec_holds_only_the_modes_its_document_can(spelling):
    """A spec's document spells off and full only, so a spec is off or
    full (its document's ``true`` and ``false`` read as them); a
    campaign spec runs off in attribute mode."""
    doc = RunSpec(kind="burst", protocol="1PC").to_dict()
    for spelled, mode in ((True, "full"), (False, "off")):
        assert RunSpec.from_dict({**doc, "trace": spelled}).trace == mode
    with pytest.raises(TypeError, match="'off', 'full'"):
        RunSpec(kind="burst", protocol="1PC", trace=spelling)


def _two_crash_plan():
    return FaultPlan(
        [
            Fault("crash", "mds2", trigger=TraceTrigger("msg_recv", actor="mds2")),
            Fault("crash", "mds1", trigger=TraceTrigger("fence")),
        ]
    )


def test_an_attribute_hub_refuses_a_trigger_on_a_category_it_already_counted():
    cluster, client = distributed_create_cluster("1PC", trace="attribute")
    done = cluster.sim.process(client.create("/dir1/f0"), name="first")
    cluster.sim.run(until=done)
    # A full hub would replay its stream to the trigger; this one has none.
    named = r"1 fault\(s\).*already counted: crash\(mds2, trigger\(msg_recv"
    with pytest.raises(ValueError, match=named):
        _two_crash_plan().install(cluster)


def test_a_plan_installed_before_any_record_fires_where_full_mode_fires_it():
    fired = {}
    for mode in ("attribute", "full"):
        cluster, client = distributed_create_cluster("1PC", trace=mode)
        plan = _two_crash_plan()
        plan.install(cluster)
        instants = []
        cluster.obs.subscribe(lambda record: instants.append(record.time.hex()), ["fault"])
        client.submit(client.plan_create("/dir1/f0"))
        cluster.sim.run(until=5.0)
        fired[mode] = (
            [f.describe() for f in plan.fired],
            instants,
            cluster.obs.metrics.snapshot()["counters"],
            [o.replied_at.hex() for o in cluster.outcomes],
        )
    assert fired["attribute"] == fired["full"]
    assert len(fired["full"][1]) == 2


@pytest.mark.parametrize("protocol", default_protocols())
def test_explain_counts_the_table_one_columns_the_span_fold_counts(protocol):
    """Forced writes and messages per transaction, measured two ways:
    the attribute-mode accumulator ``repro explain`` prints for a
    Figure-6 cell, and ``fold_span_costs`` over the same cell's spans in
    full mode."""
    n = 20
    (spec,) = figure6_grid([protocol], n=n)
    burst = run_burst(protocol, n=n, params=spec.seeded_params(), trace="attribute")
    found = burst.cluster.obs.attribution()
    full = run_burst(protocol, n=n, params=spec.seeded_params(), trace="full").cluster
    rows = [fold_span_costs(root) for root in full.obs.spans.roots()]
    assert len(rows) == n
    forces, messages = (found[protocol, "CREATE", c].values for c in ("forces", "messages"))
    assert sum(forces) == sum(row.sync_total for row in rows)
    assert sum(messages) - BASE_MESSAGES * n == sum(row.msgs_total for row in rows)


def test_repro_explain_prints_the_table_one_row_of_its_cell(capsys):
    assert main(["explain", "--protocol", "PrN", "--n", "10"]) == 0
    row = capsys.readouterr().out.splitlines()[-1].split("|")
    assert [cell.strip() for cell in row[:3]] == ["PrN", "CREATE", "10"]
    # Table I's PrN row: 5 forced writes, 4 messages beyond the two.
    assert [cell.strip() for cell in row[-2:]] == ["5.00", "4.00"]
