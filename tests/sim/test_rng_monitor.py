"""Unit tests for RNG streams and the trace log."""

import pickle

import pytest

from repro.obs import Observability
from repro.sim import RngRegistry, Simulator
from repro.sim.monitor import TraceRecord


def test_rng_same_seed_same_draws():
    a = RngRegistry(42).stream("net")
    b = RngRegistry(42).stream("net")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_rng_streams_independent():
    reg = RngRegistry(42)
    net_first = reg.stream("net").random()
    # Drawing from another stream must not perturb "net".
    reg2 = RngRegistry(42)
    reg2.stream("disk").random()
    assert reg2.stream("net").random() == net_first


def test_rng_different_seeds_differ():
    a = RngRegistry(1).stream("s").random()
    b = RngRegistry(2).stream("s").random()
    assert a != b


def test_rng_spawn_derives_child():
    reg = RngRegistry(7)
    child1 = reg.spawn("node1")
    child2 = reg.spawn("node2")
    assert child1.root_seed != child2.root_seed
    assert RngRegistry(7).spawn("node1").root_seed == child1.root_seed


def test_rng_bernoulli_validated():
    reg = RngRegistry(0)
    with pytest.raises(ValueError):
        reg.bernoulli("b", 1.5)
    assert reg.bernoulli("always", 1.0) is True
    assert reg.bernoulli("never", 0.0) is False


def hub(sim, mode="full"):
    """A trace is written through the hub, its one write path."""
    obs = Observability(sim, mode)
    return obs, obs.trace


def test_tracelog_emit_and_select():
    sim = Simulator()
    obs, trace = hub(sim)
    obs.annotate("msg", "mds1", kind="PREPARE", txn=1)
    obs.annotate("msg", "mds2", kind="PREPARED", txn=1)
    obs.annotate("log_write", "mds1", sync=True)
    assert len(trace) == 3
    assert trace.count("msg") == 2
    assert trace.count("msg", kind="PREPARE") == 1
    assert [r.actor for r in trace.select("log_write")] == ["mds1"]


def test_tracelog_records_simulation_time():
    sim = Simulator()
    obs, trace = hub(sim)

    def proc(sim):
        yield sim.timeout(2.0)
        obs.annotate("tick", "p")

    sim.process(proc(sim))
    sim.run()
    assert trace.records[0].time == 2.0


def test_tracelog_disabled_records_nothing():
    sim = Simulator()
    obs, trace = hub(sim, "off")
    obs.annotate("msg", "a")
    assert len(trace) == 0


def test_tracelog_clear_drops_everything():
    sim = Simulator()
    obs, trace = hub(sim)
    for _ in range(4):
        obs.annotate("msg", "a")
    assert trace.clear() == 4
    assert len(trace) == 0 and trace.records == []
    assert trace.clear() == 0
    # The log keeps accepting records after a clear (warm-up pattern).
    obs.annotate("msg", "a")
    assert len(trace) == 1
    # Stream positions count the dropped records too.
    assert trace.dropped == 4


def test_tracelog_predicate_select():
    sim = Simulator()
    obs, trace = hub(sim)
    for i in range(5):
        obs.annotate("msg", "a", seq=i)
    assert len(trace.select(predicate=lambda r: r.get("seq", 0) >= 3)) == 2


def test_trace_record_is_frozen_slotted_and_pickles():
    record = TraceRecord((1.5, "msg_send", "mds1", {"kind": "PREPARE", "txn": 3}, None))
    assert (record.time, record.category, record.actor) == (1.5, "msg_send", "mds1")
    assert record.detail == {"kind": "PREPARE", "txn": 3} and record.node is None
    with pytest.raises(AttributeError):
        record.time = 2.0
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and copy is not record
    assert repr(copy) == repr(record)
    assert repr(record) == (
        "TraceRecord(time=1.5, category='msg_send', actor='mds1', "
        "detail={'kind': 'PREPARE', 'txn': 3})"
    )
    assert record.get("kind") == "PREPARE" and record.get("missing", 0) == 0
    # The span leg a hook files a record by is not part of what it observed.
    filed = TraceRecord((1.5, "msg_send", "mds1", {"kind": "PREPARE", "txn": 3}, "mds1"))
    assert filed == record and repr(filed) == repr(record) and filed.node == "mds1"
    assert not filed != record
    assert pickle.loads(pickle.dumps(filed)).node == "mds1"
    assert filed != TraceRecord((1.5, "msg_send", "mds2", {"kind": "PREPARE", "txn": 3}, "mds1"))
