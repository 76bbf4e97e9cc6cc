"""Metrics registry unit tests."""

import pytest

from repro.obs import MetricsRegistry


def test_counter_bumps():
    reg = MetricsRegistry()
    reg.inc("txn.committed")
    reg.inc("txn.committed", 2)
    assert reg.get_counter("txn.committed").value == 3.0


def test_histogram_summary_quantiles():
    reg = MetricsRegistry()
    for v in range(1, 101):
        reg.observe("lat", float(v))
    hist = reg.get_histogram("lat")
    assert hist.count == 100
    assert hist.minimum == 1.0 and hist.maximum == 100.0
    assert hist.mean == pytest.approx(50.5)
    summary = hist.summary()
    assert summary["p50"] == pytest.approx(50.5)
    assert summary["p95"] > summary["p50"]
    assert summary["p99"] > summary["p95"]


def test_empty_histogram_summary_and_errors():
    reg = MetricsRegistry()
    hist = reg.histogram("empty")
    assert hist.summary() == {"count": 0}
    with pytest.raises(ValueError):
        _ = hist.mean


def test_disabled_registry_is_a_noop():
    """The registry has no switch of its own: a disabled hub never
    reaches it, so no counter or histogram is ever created."""
    from repro.obs import Observability
    from repro.sim import Simulator

    obs = Observability(Simulator(), "off")
    obs.msg_send("mds1", kind="UPDATE_REQ", dst="mds2", txn=1, msg_id=1)
    obs.lock_grant("locks:mds1", txn=1, obj="d", mode="X")
    obs.lock_release("locks:mds1", txn=1, obj="d")
    reg = obs.metrics
    assert reg.get_counter("net.sent") is None
    assert reg.get_histogram("locks.hold_time") is None
    assert reg.snapshot() == {"counters": {}, "histograms": {}}


def test_snapshot_is_sorted_plain_data():
    import json

    reg = MetricsRegistry()
    reg.inc("b")
    reg.inc("a")
    reg.observe("z", 1.0)
    snap = reg.snapshot()
    assert list(snap["counters"]) == ["a", "b"]
    assert snap["histograms"]["z"]["count"] == 1
    json.dumps(snap)  # fully serialisable


def test_create_on_first_use_returns_same_object():
    reg = MetricsRegistry()
    assert reg.counter("x") is reg.counter("x")
    assert reg.histogram("y") is reg.histogram("y")
    assert [c.name for c in reg.counters()] == ["x"]
    assert [h.name for h in reg.histograms()] == ["y"]
