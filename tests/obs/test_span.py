"""Span and SpanCollector lifecycle unit tests."""

from repro.obs import COORDINATOR, UNCLOSED, WORKER, Observability, SpanCollector
from repro.sim import Simulator
from repro.sim.monitor import TraceRecord


def collector():
    return SpanCollector(Simulator())


def rec(time, category, actor, **detail):
    return TraceRecord(time, category, actor, detail)


def test_root_span_opens_and_closes():
    spans = collector()
    root = spans.begin(1, name="CREATE", role=COORDINATOR, actor="mds1", protocol="1PC")
    assert root.txn_id == 1 and root.role == COORDINATOR
    assert not root.closed and root.duration is None
    spans.close(root, "committed", reason="")
    assert root.closed and root.status == "committed"
    assert spans.span_of(1) is root
    assert spans.roots() == [root]


def test_worker_leg_links_to_root():
    spans = collector()
    root = spans.begin(7, name="CREATE", role=COORDINATOR, actor="mds1")
    leg = spans.begin(7, name="UPDATE_REQ", role=WORKER, actor="mds2")
    assert leg.parent_id == root.span_id
    assert root.children == [leg]
    assert spans.leg_of(7, "mds2") is leg


def test_reopening_a_leg_returns_the_original():
    spans = collector()
    spans.begin(1, name="CREATE", role=COORDINATOR, actor="mds1")
    first = spans.begin(1, name="UPDATE_REQ", role=WORKER, actor="mds2")
    again = spans.begin(1, name="UPDATE_REQ", role=WORKER, actor="mds2")
    assert again is first
    assert len(spans) == 2
    # Same for the coordinator side.
    assert spans.begin(1, name="CREATE", role=COORDINATOR, actor="mds1") is spans.span_of(1)


def test_record_prefers_the_actors_leg_over_the_root():
    spans = collector()
    root = spans.begin(1, name="CREATE", role=COORDINATOR, actor="mds1")
    leg = spans.begin(1, name="UPDATE_REQ", role=WORKER, actor="mds2")
    spans.record(1, "mds2", rec(0.0, "log_append", "mds2", sync=True))
    spans.record(1, "mds1", rec(0.0, "msg_send", "mds1", kind="UPDATE_REQ"))
    # A lock record's actor is the manager; the node names its leg.
    spans.record(1, "mds2", rec(0.0, "lock_grant", "locks:mds2"))
    assert [e.category for e in leg.events] == ["log_append", "lock_grant"]
    assert [e.category for e in root.events] == ["msg_send"]
    # iter_events recurses into the legs.
    assert len(list(root.iter_events())) == 3
    assert len(list(root.iter_events(recurse=False))) == 1


def test_record_without_txn_goes_to_cluster_events():
    spans = collector()
    spans.record(None, "mds2", rec(1.0, "crash", "mds2"))
    spans.record(99, "mds1", rec(2.0, "msg_send", "mds1"))  # unknown txn
    assert [e.category for e in spans.cluster_events] == ["crash", "msg_send"]


def test_disabled_collector_records_nothing():
    """The hub's one switch is the collector's too: no span, no event."""
    obs = Observability(Simulator(), enabled=False)
    assert obs.txn_start("mds1", 1, op="CREATE", protocol="1PC", submitted_at=0.0) is None
    obs.worker_open("mds2", 1, opener="UPDATE_REQ")
    obs.msg_send("mds1", kind="UPDATE_REQ", dst="mds2", txn=1, msg_id=1)
    obs.node_crash("mds2")
    assert len(obs.spans) == 0 and obs.spans.cluster_events == []


def test_close_open_bounds_unclosed_spans():
    """A transaction cut short (crash) leaves its span open; close_open
    must close it at the latest known time with UNCLOSED status."""
    sim = Simulator()
    spans = SpanCollector(sim)
    root = spans.begin(1, name="CREATE", role=COORDINATOR, actor="mds1")
    root.events.append(rec(5.0, "msg_send", "mds1"))
    done = spans.begin(2, name="CREATE", role=COORDINATOR, actor="mds1")
    spans.close(done, "committed")
    closed = spans.close_open()
    assert closed == [root]
    assert root.status == UNCLOSED
    assert root.end == 5.0  # last event time > sim.now == 0
    assert spans.open_spans() == []
    # Idempotent: nothing left to close.
    assert spans.close_open() == []


def test_close_is_idempotent():
    spans = collector()
    root = spans.begin(1, name="CREATE", role=COORDINATOR, actor="mds1")
    spans.close(root, "committed")
    spans.close(root, "aborted")  # ignored: already closed
    assert root.status == "committed"


def test_events_of_merges_legs_in_time_order():
    spans = collector()
    spans.begin(1, name="CREATE", role=COORDINATOR, actor="mds1")
    spans.begin(1, name="UPDATE_REQ", role=WORKER, actor="mds2")
    spans.record(1, "mds2", rec(2.0, "log_append", "mds2"))
    spans.record(1, "mds1", rec(1.0, "msg_send", "mds1"))
    assert [e.time for e in spans.events_of(1)] == [1.0, 2.0]
    assert spans.events_of(42) == []


def test_last_time_considers_children():
    spans = collector()
    root = spans.begin(1, name="CREATE", role=COORDINATOR, actor="mds1")
    leg = spans.begin(1, name="UPDATE_REQ", role=WORKER, actor="mds2")
    leg.events.append(rec(9.0, "log_append", "mds2"))
    assert root.last_time() == 9.0
