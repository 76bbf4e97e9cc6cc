"""Observability hub: the one-record contract and lifecycle semantics."""

import pytest

from repro.mds.scenarios import distributed_create_cluster
from repro.obs import Observability
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

#: Readers of the attribute fold (a full hub feeds it its stream).
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
    obs.annotate("fence", "mds1", target="mds2")
    obs.annotate("fence", "mds1", target="mds2")
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


def test_a_crash_drops_the_lock_hold_shadow_of_that_nodes_manager_only():
    sim = Simulator()
    obs = Observability(sim)
    obs.lock_grant("locks:mds1", txn=1, obj="/d", mode="X")
    obs.lock_grant("locks:mds2", txn=1, obj="inode:7", mode="X")
    sim.run(until=0.1)
    obs.node_crash("mds1")  # the table vanishes: no release will name /d
    obs.metrics.snapshot()  # a read folds the stream so far
    assert list(obs._grants) == [("locks:mds2", 1, "inode:7")]
    sim.run(until=0.2)
    obs.lock_grant("locks:mds1", txn=1, obj="/d", mode="X")  # recovery re-acquires
    sim.run(until=0.5)
    obs.lock_release("locks:mds1", txn=1, obj="/d")
    obs.lock_release("locks:mds2", txn=1, obj="inode:7")
    assert obs.metrics.get_histogram("locks.hold_time").values == [0.5 - 0.2, 0.5]
    assert obs._grants == {}


def test_a_crashed_server_leaves_no_lock_hold_shadow_behind():
    cluster, client = distributed_create_cluster("1PC")
    client.submit(client.plan_create("/dir1/f0"))
    cluster.sim.run(until=2e-3)
    cluster.metrics.snapshot()  # fold the stream so far
    (held,) = [key for key in cluster.obs._grants if key[0] == "locks:mds1"]
    crashed_at = cluster.sim.now
    cluster.crash_server("mds1")
    cluster.metrics.snapshot()
    assert not [key for key in cluster.obs._grants if key[0] == "locks:mds1"]
    cluster.restart_server("mds1")
    cluster.sim.run(until=60.0)
    # Recovery redid the transaction: its hold is timed from the new
    # grant, not from the one the crash wiped out.
    trace = cluster.trace
    (regrant,) = [
        r for r in trace.select("lock_grant", actor="locks:mds1", txn=held[1], obj=held[2])
        if r.time > crashed_at
    ]
    (release,) = trace.select("lock_release", actor="locks:mds1", txn=held[1], obj=held[2])
    assert release.time - regrant.time in cluster.metrics.get_histogram("locks.hold_time").values
    assert cluster.obs._grants == {}


def test_counters_bind_at_their_first_bump_and_a_counterless_category_makes_none():
    obs = hub()
    obs.lock_upgrade("locks:mds2", txn=1, obj="/d")
    obs.log_restart("mds2")
    obs.log_restart("mds2")  # the bound "no counter" answer is reused
    assert obs.metrics.snapshot()["counters"] == {}
    obs.msg_send("mds1", kind="UPDATE_REQ", dst="mds2", txn=1, msg_id=1)
    obs.msg_send("mds1", kind="UPDATE_REQ", dst="mds2", txn=1, msg_id=2)
    obs.log_append("mds2", kind="REDO", txn=1, sync=False, nbytes=64.0)
    obs.log_gc("mds2", txn=1, removed=3)
    assert obs.metrics.snapshot()["counters"] == {
        "net.sent": 2.0,
        "wal.gc_records": 3.0,
        "wal.lazy_appends": 1.0,
    }
    # Bound, not copied: the registry's counter is the one being bumped.
    assert obs.metrics.counter("net.sent").value == 2.0
