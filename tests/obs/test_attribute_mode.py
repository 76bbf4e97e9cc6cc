"""Attribute mode decides what full mode decides, without the stream,
and attributes a sample of what full mode attributes.

Each scenario runs twice, with the hub in ``"attribute"`` and in
``"full"`` mode, and everything a run decides must be identical: the
verdict, the faults fired and the instant each fired, every reply
instant, the kernel's event count and final clock, and the
lock-precedence edges where a reader asked for them (a campaign cell
does).  An attribute hub attributes 1 transaction in
``SAMPLE_EVERY``: its attribution must equal, value for value, the full
hub's restricted to the sampled transactions.  The scenarios: every
registered protocol's Figure-6 burst (100 creates) and the 48 fault
schedules of the ledger's ``fault-campaign``.
"""

import pytest

from repro.analysis.costs import BASE_MESSAGES, fold_span_costs
from repro.campaign.runner import run_campaign_cell
from repro.campaign.schedule import CampaignSchedule
from repro.cli import main
from repro.config import SimulationParams
from repro.exec import RunSpec, campaign_grid, figure6_grid
from repro.faults import Fault, FaultPlan, TraceTrigger
from repro.mds.cluster import Cluster
from repro.mds.scenarios import distributed_create_cluster
from repro.obs import Observability
from repro.obs.hub import SAMPLE_EVERY, SPREAD, WORD
from repro.protocols import default_protocols
from repro.sim import Simulator
from repro.workloads.burst import run_burst
from repro.workloads.composite import CompositeConfig, run_composite, setup_group

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


def sampled(txn):
    """Whether an attribute hub attributes transaction ``txn``."""
    return txn * SPREAD & WORD < (WORD + 1) // SAMPLE_EVERY


def decisions(cluster):
    """What a run decides, as plain data."""
    return {
        "replied_at": [o.replied_at.hex() for o in cluster.outcomes],
        "events": cluster.sim.events_processed,
        "now": cluster.sim.now.hex(),
    }


def attributed(cluster):
    return {key: stats.values for key, stats in cluster.obs.attribution().items()}


def restricted(full):
    """The full hub's attribution restricted to the sampled
    transactions: each ``(protocol, op)`` row observes its transactions
    in ``txn_done`` order, which the full stream replays."""
    opened, observed = {}, {}
    for record in full.trace.records:
        txn = record.detail.get("txn")
        if record.category == "txn_start" and txn not in opened:
            opened[txn] = (record.detail["protocol"], record.detail["op"])
        elif record.category == "txn_done" and txn in opened:
            observed.setdefault(opened.pop(txn), []).append(txn)
    rows = {}
    for key, values in attributed(full).items():
        txns = observed[key[:2]]
        assert len(txns) == len(values)
        kept = [value for value, txn in zip(values, txns) if sampled(txn)]
        if kept:
            rows[key] = kept
    return rows


def assert_same(attribute, full):
    assert decisions(attribute) == decisions(full)
    assert attributed(attribute) == restricted(full)
    assert len(attribute.trace.records) == 0 and len(attribute.obs.spans) == 0
    assert len(full.trace.records) > 0


@pytest.mark.parametrize("protocol", default_protocols())
def test_a_burst_reports_the_same_in_attribute_and_full_mode(protocol):
    attribute, _ = _burst(protocol, "attribute")
    full, _ = _burst(protocol, "full")
    assert_same(attribute, full)
    # Every sampled transaction was attributed, one observation per
    # component, and only those: the burst's are transactions 1-100.
    counts = {stats.count for stats in attribute.obs.attribution().values()}
    assert counts == {sum(map(sampled, range(1, 101)))} and counts != {0}
    # Nobody asked this burst's hub for edges; a full hub keeps them.
    with pytest.raises(ValueError, match="never asked"):
        attribute.obs.precedence()
    assert full.obs.precedence()


@pytest.mark.parametrize("protocol", CAMPAIGN_PROTOCOLS)
def test_every_ledger_campaign_cell_decides_the_same_in_attribute_and_full_mode(
    protocol, monkeypatch
):
    for spec in campaign_grid(protocol, runs=24, seed=0, n_ops=12, n_clients=2):
        attribute, decided = _campaign(spec, "attribute", monkeypatch)
        full, decided_full = _campaign(spec, "full", monkeypatch)
        assert decided == decided_full, spec.point
        assert_same(attribute, full)
        assert attribute.obs.precedence() == full.obs.precedence(), spec.point
        assert attribute.obs.sampled == {} == full.obs.sampled, spec.point


@pytest.mark.parametrize("protocol, point", [("1PC", 10), ("PrN", 23)])
def test_a_crashed_coordinator_leaves_no_accumulator_behind(protocol, point):
    # Each cell crashes the coordinator of 12 transactions it opened,
    # which no txn_done will file: node_crash drops their accumulators.
    spec = campaign_grid(protocol, runs=24, seed=0, n_ops=12, n_clients=2)[point]
    cluster, _ = run_campaign_cell(
        CampaignSchedule.from_json(spec.campaign), params=spec.seeded_params(), trace="full"
    )
    starts = {r.detail["txn"]: r.actor for r in cluster.trace.records if r.category == "txn_start"}
    done = {r.detail["txn"] for r in cluster.trace.records if r.category == "txn_done"}
    crashed = {r.actor for r in cluster.trace.records if r.category == "crash"}
    assert len([t for t, actor in starts.items() if t not in done and actor in crashed]) == 12
    assert cluster.obs.sampled == {}


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
            [o.replied_at.hex() for o in cluster.outcomes],
        )
    assert fired["attribute"] == fired["full"]
    assert len(fired["full"][1]) == 2


@pytest.mark.parametrize("protocol", default_protocols())
def test_explain_counts_the_table_one_columns_the_span_fold_counts(protocol):
    """Forced writes and messages per transaction, measured two ways
    over one full-mode Figure-6 cell: the hooks' accumulator that
    ``repro explain`` prints, and ``fold_span_costs`` over the cell's
    spans."""
    n = 20
    (spec,) = figure6_grid([protocol], n=n)
    full = run_burst(protocol, n=n, params=spec.seeded_params(), trace="full").cluster
    found = full.obs.attribution()
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


#: The ledger's composite shape: two shard groups, 16 clients each.
COMPOSITE = CompositeConfig(ops=4000, groups=2, window=16, working_set=256)


def test_the_sampled_set_is_a_pure_function_of_transaction_ids():
    """A hub samples the ids the hash picks, whatever else it is told,
    and each shard group of a 4,000-op composite attributes exactly the
    sampled ones among its transactions (a group numbers them from 1):
    about 1 in ``SAMPLE_EVERY``."""
    obs = Observability(Simulator(), "attribute")
    for txn in range(1, 4001):
        obs.txn_start("mds1", txn, op="CREATE", protocol="1PC", submitted_at=0.0)
    assert set(obs.sampled) == set(filter(sampled, range(1, 4001)))
    result = run_composite("1PC", COMPOSITE)
    for outcome in result.per_group:
        txns = outcome.committed + outcome.aborted
        found = sum(s.count for key, s in outcome.attribution.items() if key[2] == "forces")
        assert found == sum(map(sampled, range(1, txns + 1)))
        assert abs(found - txns / SAMPLE_EVERY) < 0.05 * txns / SAMPLE_EVERY
    # The merge folds the groups' rows, key by key.
    merged = {key: stats.count for key, stats in result.attribution.items()}
    assert merged == {
        key: sum(o.attribution[key].count for o in result.per_group if key in o.attribution)
        for key in merged
    }


def test_a_drained_composite_group_leaves_no_hub_state_behind():
    """Nothing the hooks hold for a transaction outlives it: a sampled
    transaction's last message arrives after its ``txn_done`` (its
    delivery still calls, by ``msg_id``), and a lock slot goes with its
    last sampled holder when nobody asked for the edges."""
    sim = Simulator()
    params = SimulationParams.paper_defaults()
    hosted = [setup_group(sim, "1PC", COMPOSITE, params, group) for group in range(2)]
    sim.run()
    for cluster, _ in hosted:
        obs = cluster.obs
        assert obs.sampled == {} and obs.sent == {}
        assert obs._forcing == {} and obs._waits == {}
        assert all(owners for table in obs._locks.values() for _, owners in table.values())


def test_precedence_is_refused_by_a_hub_that_never_asked():
    attribute = Observability(Simulator(), "attribute")
    with pytest.raises(ValueError, match="never asked"):
        attribute.precedence()
    attribute.keep_precedence()
    attribute.lock_grant("locks:mds1", txn=1, obj="/d", mode="X")
    attribute.lock_grant("locks:mds1", txn=2, obj="/d", mode="X")
    assert attribute.precedence() == {(1, 2)}
    # A full hub keeps them unasked; an off hub has none to keep.
    assert Observability(Simulator(), "full").precedence() == set()
    with pytest.raises(ValueError, match="off hub"):
        Observability(Simulator(), "off").keep_precedence()
    # An edge is kept from the ask on, so the ask comes before the run.
    cluster, client = distributed_create_cluster("1PC", trace="attribute")
    cluster.sim.run(until=cluster.sim.process(client.create("/dir1/f0")))
    with pytest.raises(ValueError, match="before the run"):
        cluster.obs.keep_precedence()
