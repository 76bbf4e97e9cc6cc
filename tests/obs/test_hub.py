"""Observability hub: the one-record contract and lifecycle semantics."""

import pytest

from repro.campaign.runner import run_campaign_cell
from repro.campaign.schedule import CampaignSchedule
from repro.exec.grids import campaign_grid
from repro.mds.scenarios import distributed_create_cluster
from repro.obs import Observability
from repro.obs.hub import _FINISHED
from repro.sim import Simulator
from repro.sim.monitor import TraceRecord


def hub():
    return Observability(Simulator())


def test_disabled_hub_records_nothing():
    obs = Observability(Simulator(), "off")
    assert not obs.enabled
    obs.txn_start("mds1", 1, op="CREATE", protocol="1PC", submitted_at=0.0)
    obs.msg_send("mds1", kind="UPDATE_REQ", dst="mds2", txn=1, msg_id=1)
    obs.annotate("whatever", "mds1", txn=1)
    obs.txn_done(
        "mds1", 1, committed=True, op="CREATE", latency=0.1, replied_at=0.1
    )
    assert len(obs.trace) == 0
    assert len(obs.spans) == 0
    assert obs.metrics.snapshot() == {"counters": {}, "histograms": {}}


#: Every public hook with one sample call: (positional, keyword,
#: whether the record also lands on a span or the cluster-scope list).
HOOKS = {
    "annotate": (("ack_gave_up", "mds2"), dict(txn=1, waited=0.5), True),
    "txn_start": (("mds1", 2), dict(op="CREATE", protocol="1PC", submitted_at=0.0), False),
    "txn_fallback": (("mds1", 1), dict(op="RENAME", workers=3), True),
    "client_reply": (("mds1", 1), dict(committed=True, op="CREATE"), True),
    "txn_done": (
        ("mds1", 1),
        dict(committed=True, op="CREATE", latency=0.1, replied_at=0.1),
        False,
    ),
    "msg_send": (("mds1",), dict(kind="UPDATE_REQ", dst="mds2", txn=1, msg_id=1), True),
    "msg_recv": (("mds2",), dict(kind="UPDATE_REQ", src="mds1", txn=1, msg_id=1), True),
    "msg_drop": (("mds2",), dict(reason="partitioned", kind="ACK", txn=1), True),
    "log_append": (("mds2",), dict(kind="REDO", txn=1, sync=True, nbytes=64.0), True),
    "log_durable": (("mds2",), dict(kind="REDO", txn=1, sync=True, nbytes=64.0), True),
    "log_crash": (("mds2",), dict(lost_jobs=2), False),
    "log_restart": (("mds2",), {}, False),
    "log_gc": (("mds2",), dict(txn=1, removed=3), False),
    "lock_grant": (("locks:mds2",), dict(txn=1, obj="/d", mode="X"), True),
    "lock_upgrade": (("locks:mds2",), dict(txn=1, obj="/d"), False),
    "lock_wait": (("locks:mds2",), dict(txn=1, obj="/d", mode="X"), True),
    "lock_timeout": (("locks:mds2",), dict(txn=1, obj="/d"), True),
    "lock_release": (("locks:mds2",), dict(txn=1, obj="/d"), True),
    "node_crash": (("mds2",), {}, True),
    "node_restart": (("mds2",), {}, True),
    "node_recovered": (("mds2",), {}, False),
    "fence": (("mds1",), dict(target="mds2"), True),
    "unfence": (("mds1",), dict(target="mds2"), True),
}

#: Span lifecycle only: the stream has no record for a worker session.
SPAN_ONLY = {"worker_open", "worker_close"}

#: Readers of the stream, not writers.
SUBSCRIPTION = {"subscribe", "unsubscribe"}

#: Readers of what the hooks fold, in both modes that are on.
VIEWS = {"categories_seen", "precedence", "attribution"}


def span_events(obs):
    events = list(obs.spans.cluster_events)
    for span in obs.spans:
        events.extend(span.events)
    return events


def test_contract_table_covers_every_public_hook():
    public = {
        name
        for name, member in vars(Observability).items()
        if callable(member) and not name.startswith("_")
    }
    assert public == set(HOOKS) | SPAN_ONLY | SUBSCRIPTION | VIEWS


def test_listeners_get_the_appended_record_and_may_unsubscribe_in_the_call():
    obs = hub()
    heard = []

    def once(record):
        heard.append(("once", record))
        obs.unsubscribe(once)

    obs.subscribe(once)
    obs.subscribe(lambda record: heard.append(("always", record)))
    obs.fence("mds1", target="mds2")
    obs.fence("mds1", target="mds2")
    first, second = obs.trace.records
    # Dropping out mid-delivery neither skips nor repeats the other listener.
    assert [(who, rec is first, rec is second) for who, rec in heard] == [
        ("once", True, False),
        ("always", True, False),
        ("always", False, True),
    ]


@pytest.mark.parametrize("hook", sorted(HOOKS))
def test_hook_appends_one_record_shared_with_its_span(hook):
    args, kwargs, on_span = HOOKS[hook]
    obs = hub()
    obs.txn_start("mds1", 1, op="CREATE", protocol="1PC", submitted_at=0.0)
    obs.worker_open("mds2", 1, opener="UPDATE_REQ")
    before = len(obs.trace)
    getattr(obs, hook)(*args, **kwargs)
    assert len(obs.trace) == before + 1
    record = obs.trace.records[-1]
    assert isinstance(record, TraceRecord)
    # The span view holds the very object the stream holds — never a copy.
    assert [e for e in span_events(obs) if e is record] == [record] * on_span


@pytest.mark.parametrize("hook", sorted(set(HOOKS) - {"annotate"}))
def test_annotate_refuses_a_category_its_typed_hook_folds(hook):
    """A record written through ``annotate`` would bypass the hook's
    fold (a ``lock_grant`` there would be missing from ``precedence()``),
    so ``annotate`` names the hook instead."""
    args, kwargs, _ = HOOKS[hook]
    obs = hub()
    getattr(obs, hook)(*args, **kwargs)
    (record,) = obs.trace.records
    with pytest.raises(ValueError, match=rf"annotate\('{record.category}'\).* {hook}\(\)"):
        obs.annotate(record.category, record.actor, **record.detail)
    assert obs.trace.records == [record]


@pytest.mark.parametrize("hook", sorted(HOOKS))
def test_disabled_hub_appends_nothing_and_opens_no_span(hook):
    args, kwargs, _ = HOOKS[hook]
    obs = Observability(Simulator(), "off")
    obs.worker_open("mds2", 1, opener="UPDATE_REQ")
    getattr(obs, hook)(*args, **kwargs)
    obs.worker_close("mds2", 1)
    assert len(obs.trace) == 0
    assert len(obs.spans) == 0 and span_events(obs) == []
    assert obs.metrics.snapshot() == {"counters": {}, "histograms": {}}


def test_worker_session_hooks_touch_spans_only():
    obs = hub()
    obs.worker_open("mds2", 1, opener="UPDATE_REQ")
    obs.worker_close("mds2", 1)
    assert len(obs.trace) == 0
    assert obs.spans.leg_of(1, "mds2").closed


def test_lock_record_lands_on_the_nodes_leg_under_the_managers_name():
    obs = hub()
    obs.txn_start("mds1", 1, op="CREATE", protocol="1PC", submitted_at=0.0)
    obs.worker_open("mds2", 1, opener="UPDATE_REQ")
    obs.lock_grant("locks:mds2", txn=1, obj="/d", mode="X")
    obs.lock_grant("locks:mds2", txn="recovery", obj="/d", mode="X")  # not a txn
    (event,) = obs.spans.leg_of(1, "mds2").events
    assert (event.category, event.actor) == ("lock_grant", "locks:mds2")
    assert obs.metrics.get_counter("locks.granted").value == 2


def test_txn_lifecycle_emits_legacy_records_and_closes_root():
    obs = hub()
    root = obs.txn_start(
        "mds1", 5, op="CREATE", protocol="1PC", submitted_at=0.0, client="c1"
    )
    obs.client_reply("mds1", 5, committed=True, op="CREATE")
    obs.txn_done(
        "mds1", 5, committed=True, op="CREATE", latency=0.2, replied_at=0.2
    )
    assert obs.trace.count("txn_start") == 1
    assert obs.trace.count("client_reply") == 1
    assert obs.trace.count("txn_done") == 1
    assert root.closed and root.status == "committed"
    assert root.attrs["replied_at"] == 0.2  # txn_done's authoritative value
    assert obs.metrics.get_counter("txn.started").value == 1
    assert obs.metrics.get_counter("txn.committed").value == 1
    assert obs.metrics.get_histogram("txn.client_latency").count == 1


def test_worker_leg_inherits_decided_outcome():
    obs = hub()
    obs.txn_start("mds1", 1, op="CREATE", protocol="1PC", submitted_at=0.0)
    obs.worker_open("mds2", 1, opener="UPDATE_REQ", protocol="1PC")
    obs.txn_done("mds1", 1, committed=True, op="CREATE", latency=0.1, replied_at=0.1)
    # 1PC shape: the coordinator decides before the worker session closes.
    obs.worker_close("mds2", 1)
    assert obs.spans.leg_of(1, "mds2").status == "committed"


def test_worker_leg_closed_before_decision_reads_closed():
    obs = hub()
    obs.txn_start("mds1", 1, op="CREATE", protocol="PrN", submitted_at=0.0)
    obs.worker_open("mds2", 1, opener="PREPARE", protocol="PrN")
    # 2PC shape: the worker ACKs and closes first.
    obs.worker_close("mds2", 1)
    assert obs.spans.leg_of(1, "mds2").status == "closed"


def test_annotate_matches_legacy_emit_bytes():
    """annotate() must produce the record built from its arguments."""
    sim = Simulator()
    obs = Observability(sim)
    obs.annotate("ack_gave_up", "mds2", txn=3, waited=0.5)
    ref = TraceRecord(sim.now, "ack_gave_up", "mds2", {"txn": 3, "waited": 0.5})
    rec = obs.trace.records[0]
    assert rec == ref and repr(rec) == repr(ref)
    assert list(rec.detail) == list(ref.detail)  # kwargs order preserved
    assert rec.node == "mds2"
    # The span side sees the same record, under its own category.
    events = obs.spans.cluster_events  # txn 3 has no span -> cluster scope
    assert events == [rec]
    # Without a txn an annotation stays off the spans entirely.
    obs.annotate("net_heal", "network")
    assert len(obs.trace) == 2 and obs.spans.cluster_events == [rec]


def test_lock_hold_time_histogram():
    sim = Simulator()
    obs = Observability(sim)
    obs.lock_grant("locks:mds1", txn=1, obj="dentry:/d/f", mode="X")
    sim.run(until=0.25)
    obs.lock_release("locks:mds1", txn=1, obj="dentry:/d/f")
    hist = obs.metrics.get_histogram("locks.hold_time")
    assert hist.count == 1
    assert hist.values[0] == 0.25
    # Releasing an unknown lock does not observe anything.
    obs.lock_release("locks:mds1", txn=9, obj="ghost")
    assert hist.count == 1


def test_txn_done_folds_span_into_per_txn_metrics():
    obs = hub()
    obs.txn_start("mds1", 1, op="CREATE", protocol="1PC", submitted_at=0.0)
    obs.worker_open("mds2", 1, opener="UPDATE_REQ")
    obs.log_append("mds1", kind="commit", txn=1, sync=True, nbytes=100)
    obs.log_append("mds2", kind="redo", txn=1, sync=True, nbytes=100)
    obs.log_append("mds2", kind="done", txn=1, sync=False, nbytes=10)
    obs.msg_send("mds1", kind="UPDATE_REQ", dst="mds2", txn=1, msg_id=1)
    obs.msg_send("mds1", kind="CLIENT_REPLY", dst="client1", txn=1, msg_id=2)
    obs.txn_done("mds1", 1, committed=True, op="CREATE", latency=0.1, replied_at=0.1)
    assert obs.metrics.get_histogram("txn.forced_writes").values == [2.0]
    # Client traffic is not a protocol message.
    assert obs.metrics.get_histogram("txn.messages").values == [1.0]


def test_a_message_dropped_in_flight_leaves_no_send_time_behind():
    """Ledger campaign cell PrN 22: its partition drops a message in
    flight, and the delivery names the ``msg_id`` to ``msg_drop``, which
    forgets its send time; the record does not carry it."""
    spec = campaign_grid("PrN", runs=24, seed=0, n_ops=12, n_clients=2)[22]
    schedule = CampaignSchedule.from_json(spec.campaign)
    for mode in ("attribute", "full"):
        cluster, _ = run_campaign_cell(schedule, params=spec.seeded_params(), trace=mode)
        assert cluster.obs._sent == {}
    in_flight = [r.detail for r in cluster.trace.select("msg_drop") if "dst" not in r.detail]
    assert any(d["reason"] == "partitioned" for d in in_flight)
    assert not any("msg_id" in d for d in in_flight)


def test_attribution_observes_every_finished_transaction_in_order_across_buffer_fills():
    sim = Simulator()
    obs = Observability(sim, "attribute")
    waited = []
    for txn in range(1, 2 * _FINISHED + 4):
        obs.txn_start("mds1", txn, op="CREATE", protocol="1PC", submitted_at=sim.now)
        obs.lock_wait("locks:mds1", txn=txn, obj="/d", mode="X")
        asked = sim.now
        sim.run(until=sim.now + txn * 1e-6)
        obs.lock_grant("locks:mds1", txn=txn, obj="/d", mode="X")
        waited.append(sim.now - asked)
        obs.txn_done("mds1", txn, committed=True, op="CREATE", latency=0.0, replied_at=sim.now)
    assert obs._filled == 3  # two full buffers were observed as they filled
    assert obs.attribution()["1PC", "CREATE", "lock_wait"].values == waited
    assert obs._filled == 0


def held(obs):
    """``(manager, owner, obj)`` of every grant the fold's lock table
    still times a hold from."""
    return [
        (manager, owner, obj)
        for manager, table in obs._locks.items()
        for obj, (_, owners) in table.items()
        for owner in owners
    ]


def test_a_crash_drops_the_lock_hold_shadow_of_that_nodes_manager_only():
    sim = Simulator()
    obs = Observability(sim)
    obs.lock_grant("locks:mds1", txn=1, obj="/d", mode="X")
    obs.lock_grant("locks:mds2", txn=1, obj="inode:7", mode="X")
    sim.run(until=0.1)
    obs.node_crash("mds1")  # the table vanishes: no release will name /d
    assert held(obs) == [("locks:mds2", 1, "inode:7")]
    sim.run(until=0.2)
    obs.lock_grant("locks:mds1", txn=1, obj="/d", mode="X")  # recovery re-acquires
    sim.run(until=0.5)
    obs.lock_release("locks:mds1", txn=1, obj="/d")
    obs.lock_release("locks:mds2", txn=1, obj="inode:7")
    assert obs.metrics.get_histogram("locks.hold_time").values == [0.5 - 0.2, 0.5]
    assert held(obs) == []


def test_a_crashed_server_leaves_no_lock_hold_shadow_behind():
    cluster, client = distributed_create_cluster("1PC")
    client.submit(client.plan_create("/dir1/f0"))
    cluster.sim.run(until=2e-3)
    (grant,) = [key for key in held(cluster.obs) if key[0] == "locks:mds1"]
    crashed_at = cluster.sim.now
    cluster.crash_server("mds1")
    assert not [key for key in held(cluster.obs) if key[0] == "locks:mds1"]
    cluster.restart_server("mds1")
    cluster.sim.run(until=60.0)
    # Recovery redid the transaction: its hold is timed from the new
    # grant, not from the one the crash wiped out.
    trace = cluster.trace
    (regrant,) = [
        r for r in trace.select("lock_grant", actor="locks:mds1", txn=grant[1], obj=grant[2])
        if r.time > crashed_at
    ]
    (release,) = trace.select("lock_release", actor="locks:mds1", txn=grant[1], obj=grant[2])
    assert release.time - regrant.time in cluster.metrics.get_histogram("locks.hold_time").values
    assert held(cluster.obs) == []


@pytest.mark.parametrize("mode", ["attribute", "full"])
def test_counters_are_copied_from_the_counts_when_read_and_a_counterless_category_makes_none(mode):
    obs = Observability(Simulator(), mode)
    obs.lock_upgrade("locks:mds2", txn=1, obj="/d")
    obs.log_restart("mds2")
    obs.log_restart("mds2")
    assert obs.metrics.snapshot()["counters"] == {}
    assert obs.categories_seen() == {"lock_upgrade", "log_restart"}
    obs.msg_send("mds1", kind="UPDATE_REQ", dst="mds2", txn=1, msg_id=1)
    obs.msg_send("mds1", kind="UPDATE_REQ", dst="mds2", txn=1, msg_id=2)
    obs.log_append("mds2", kind="REDO", txn=1, sync=False, nbytes=64.0)
    obs.log_gc("mds2", txn=1, removed=3)
    # Counted in the hook, copied at the read: the registry holds nothing yet.
    assert obs.metrics._counters == {}
    assert obs.metrics.snapshot()["counters"] == {
        "net.sent": 2.0,
        "wal.gc_records": 3.0,
        "wal.lazy_appends": 1.0,
    }
    # A counter written through the registry is the registry's own.
    obs.metrics.inc("campaign.runs")
    obs.msg_send("mds1", kind="UPDATE_REQ", dst="mds2", txn=1, msg_id=3)
    assert obs.metrics.counter("net.sent").value == 3.0
    assert obs.metrics.counter("campaign.runs").value == 1.0
