"""Span and SpanCollector lifecycle unit tests."""

from repro.obs import COORDINATOR, UNCLOSED, WORKER, Observability, Span, SpanCollector
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


def hub():
    return Observability(Simulator())


def open_txn(obs, txn=1, coordinator="mds1"):
    return obs.txn_start(coordinator, txn, op="CREATE", protocol="1PC", submitted_at=0.0)


def leg(obs, actor, txn=1):
    obs.worker_open(actor, txn, opener="UPDATE_REQ")
    return obs.spans.leg_of(txn, actor)


def categories(events):
    return [e.category for e in events]


def test_record_prefers_the_actors_leg_over_the_root():
    obs = hub()
    root = open_txn(obs)
    worker = leg(obs, "mds2")
    obs.log_append("mds2", kind="REDO", txn=1, sync=True, nbytes=64.0)
    obs.msg_send("mds1", kind="UPDATE_REQ", dst="mds2", txn=1, msg_id=1)
    # A lock record's actor is the manager; the node names its leg.
    obs.lock_grant("locks:mds2", txn=1, obj="/d", mode="X")
    # Membership is folded when the collector is read.
    assert obs.spans.leg_of(1, "mds2") is worker and obs.spans.span_of(1) is root
    assert categories(worker.events) == ["log_append", "lock_grant"]
    assert categories(root.events) == ["msg_send"]
    # iter_events recurses into the legs.
    assert len(list(root.iter_events())) == 3
    assert len(list(root.iter_events(recurse=False))) == 1


def test_a_record_at_a_worker_node_before_its_leg_opens_lands_on_the_root():
    obs = hub()
    root = open_txn(obs)
    obs.msg_recv("mds2", kind="UPDATE_REQ", src="mds1", txn=1, msg_id=1)
    worker = leg(obs, "mds2")
    obs.log_append("mds2", kind="REDO", txn=1, sync=True, nbytes=64.0)
    assert obs.spans.span_of(1) is root
    assert categories(root.events) == ["msg_recv"]
    assert categories(worker.events) == ["log_append"]


def test_a_leg_at_the_coordinators_node_takes_its_records_from_then_on():
    obs = hub()
    root = open_txn(obs)
    obs.log_append("mds1", kind="REDO", txn=1, sync=True, nbytes=64.0)
    local = leg(obs, "mds1")
    obs.log_durable("mds1", kind="REDO", txn=1, sync=True, nbytes=64.0)
    obs.msg_send("mds1", kind="UPDATED", dst="mds2", txn=1, msg_id=1)
    assert obs.spans.span_of(1) is root
    assert categories(root.events) == ["log_append"]
    assert categories(local.events) == ["log_durable", "msg_send"]
    assert root.children == [local]


def test_reopening_a_leg_changes_no_routing():
    obs = hub()
    root = open_txn(obs)
    worker = leg(obs, "mds2")
    opened = [span.opened for span in obs.spans]
    assert leg(obs, "mds2") is worker
    assert open_txn(obs) is root
    assert [span.opened for span in obs.spans] == opened
    obs.log_append("mds2", kind="REDO", txn=1, sync=True, nbytes=64.0)
    obs.log_append("mds1", kind="REDO", txn=1, sync=True, nbytes=64.0)
    assert obs.spans.span_of(1) is root
    assert [e.actor for e in worker.events] == ["mds2"]
    assert [e.actor for e in root.events] == ["mds1"]


def test_record_without_txn_goes_to_cluster_events():
    obs = hub()
    open_txn(obs)
    obs.node_crash("mds2")  # txn=None
    obs.msg_send("mds1", kind="UPDATE_REQ", dst="mds2", txn=99, msg_id=1)  # unknown txn
    assert categories(obs.spans.cluster_events) == ["crash", "msg_send"]
    assert list(obs.spans.span_of(1).iter_events()) == []


def test_disabled_collector_records_nothing():
    """The hub's one switch is the collector's too: no span, no event."""
    obs = Observability(Simulator(), "off")
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
    obs = hub()
    open_txn(obs)
    leg(obs, "mds2")
    obs.sim.run(until=1.0)
    obs.log_append("mds2", kind="REDO", txn=1, sync=True, nbytes=64.0)
    obs.sim.run(until=2.0)
    obs.msg_send("mds1", kind="UPDATE_REQ", dst="mds2", txn=1, msg_id=1)
    # The root's record comes first span by span, last in time.
    assert [e.time for e in obs.spans.span_of(1).iter_events()] == [2.0, 1.0]
    assert [e.time for e in obs.spans.events_of(1)] == [1.0, 2.0]
    assert obs.spans.events_of(42) == []


def test_last_time_considers_children():
    spans = collector()
    root = spans.begin(1, name="CREATE", role=COORDINATOR, actor="mds1")
    leg = spans.begin(1, name="UPDATE_REQ", role=WORKER, actor="mds2")
    leg.events.append(rec(9.0, "log_append", "mds2"))
    assert root.last_time() == 9.0


def _recursive_iter_events(span, recurse=True):
    """The generator ``Span.iter_events`` used to be: the order reference."""
    yield from span.events
    if recurse:
        for child in span.children:
            yield from _recursive_iter_events(child)


def test_iter_events_walks_span_by_span_depth_first_like_the_recursive_reference():
    obs = hub()
    root = open_txn(obs)
    leg(obs, "mds2")
    leg(obs, "mds3")
    # Interleaved in time: the walk is by span, not by timestamp.
    for t, node in enumerate(["mds3", "mds1", "mds2", "mds1", "mds3", "mds2"]):
        obs.sim.run(until=float(t))
        obs.msg_send(node, kind="UPDATE_REQ", dst="mds2", txn=1, msg_id=1)
    assert obs.spans.span_of(1) is root
    walked = list(root.iter_events())
    assert [(e.actor, e.time) for e in walked] == [
        ("mds1", 1.0), ("mds1", 3.0), ("mds2", 2.0), ("mds2", 5.0), ("mds3", 0.0), ("mds3", 4.0),
    ]
    assert all(a is b for a, b in zip(walked, _recursive_iter_events(root)))
    # Without recursion: the span's own records only, legs untouched.
    own = list(root.iter_events(recurse=False))
    assert own == root.events and all(a is b for a, b in zip(own, root.events))
    assert list(root.children[0].iter_events(recurse=False)) == root.children[0].events


def test_iter_events_reaches_a_hand_built_tree_of_any_depth():
    def span(span_id, *events, children=()):
        return Span(
            span_id=span_id, txn_id=1, name="s", role=WORKER, actor="n", start=0.0,
            events=list(events), children=list(children),
        )

    a, b, c, d = (rec(float(t), "x", "n") for t in range(4))
    tree = span(1, a, children=[span(2, b, children=[span(3, c)]), span(4, d)])
    assert list(tree.iter_events()) == [a, b, c, d] == list(_recursive_iter_events(tree))
    assert list(tree.iter_events(recurse=False)) == [a]
    assert list(span(5).iter_events()) == []
