"""Additional event/kernel edge cases."""

import pytest

from repro.sim import AnyOf, Condition, Simulator, Timeout
from repro.sim.errors import EventRefusedError


def test_trigger_like_copies_success():
    sim = Simulator()
    src, dst = sim.event(), sim.event()
    src.succeed("payload")
    dst.trigger_like(src)
    assert dst.triggered and dst.ok and dst.value == "payload"


def test_trigger_like_copies_failure():
    sim = Simulator()
    src, dst = sim.event(), sim.event()
    src.fail(ValueError("boom"))
    src.defused = True
    dst.trigger_like(src)
    dst.defused = True
    assert dst.triggered and not dst.ok


def test_timeout_carries_value():
    sim = Simulator()
    got = []

    def proc(sim):
        value = yield Timeout(sim, 1.0, value="tick")
        got.append(value)

    sim.process(proc(sim))
    sim.run()
    assert got == ["tick"]


def test_anyof_value_contains_only_triggered_members():
    sim = Simulator()
    fast, slow = sim.event(), sim.event()
    results = []

    def waiter(sim):
        values = yield AnyOf(sim, [fast, slow])
        results.append(dict(values))

    sim.process(waiter(sim))
    fast.succeed("F")
    sim.run(until=1.0)
    slow.succeed("S")
    sim.run()
    assert results == [{fast: "F"}]


def test_condition_with_duplicate_member_counts_once_per_entry():
    sim = Simulator()
    e = sim.event()

    def both(events, count):
        return count == len(events)

    cond = Condition(sim, both, [e, e])
    e.succeed("x")
    sim.run()
    assert cond.ok
    assert cond.value[e] == "x"


def test_process_value_before_completion_refused():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)

    p = sim.process(proc(sim))
    with pytest.raises(EventRefusedError):
        _ = p.value
    sim.run()
    assert p.value is None


def test_nested_processes_three_deep():
    sim = Simulator()

    def leaf(sim):
        yield sim.timeout(1.0)
        return 1

    def middle(sim):
        value = yield sim.process(leaf(sim))
        yield sim.timeout(1.0)
        return value + 1

    def root(sim):
        value = yield sim.process(middle(sim))
        return value + 1

    p = sim.process(root(sim))
    sim.run()
    assert p.value == 3
    assert sim.now == 2.0


def test_event_succeed_then_fail_refused():
    sim = Simulator()
    e = sim.event()
    e.succeed()
    with pytest.raises(EventRefusedError):
        e.fail(RuntimeError("late"))


def test_send_to_self_is_delivered():
    from repro.config import NetworkParams
    from repro.net import Network

    sim = Simulator()
    net = Network(sim, NetworkParams(latency=1e-3))
    a = net.attach("a")
    got = []

    def receiver(sim):
        msg = yield a.receive()
        got.append((msg.kind, sim.now))

    sim.process(receiver(sim))
    a.send_to("a", "SELF")
    sim.run()
    assert got == [("SELF", 1e-3)]


def test_three_way_partition_isolates_all_groups():
    from repro.config import NetworkParams
    from repro.net import Network

    sim = Simulator()
    net = Network(sim, NetworkParams())
    for n in ("a", "b", "c"):
        net.attach(n)
    net.partition({"a"}, {"b"}, {"c"})
    assert not net.connected("a", "b")
    assert not net.connected("b", "c")
    assert not net.connected("a", "c")
    assert net.connected("a", "a")
