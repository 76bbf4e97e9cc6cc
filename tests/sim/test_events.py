"""Unit tests for event primitives: succeed/fail, conditions, composition."""

import pytest

from repro.sim import AllOf, AnyOf, Simulator
from repro.sim.errors import EventRefusedError


def test_event_starts_untriggered():
    sim = Simulator()
    e = sim.event()
    assert not e.triggered
    assert not e.processed


def test_value_before_trigger_raises():
    sim = Simulator()
    e = sim.event()
    with pytest.raises(EventRefusedError):
        _ = e.value
    with pytest.raises(EventRefusedError):
        _ = e.ok


def test_succeed_carries_value():
    sim = Simulator()
    e = sim.event()
    e.succeed("v")
    assert e.triggered and e.ok and e.value == "v"


def test_double_succeed_rejected():
    sim = Simulator()
    e = sim.event()
    e.succeed()
    with pytest.raises(EventRefusedError):
        e.succeed()


def test_fail_requires_exception():
    sim = Simulator()
    e = sim.event()
    with pytest.raises(TypeError):
        e.fail("not an exception")


def test_fail_delivers_exception_to_waiter():
    sim = Simulator()
    e = sim.event()
    seen = []

    def proc(sim):
        try:
            yield e
        except ValueError as exc:
            seen.append(str(exc))

    sim.process(proc(sim))
    e.fail(ValueError("boom"))
    sim.run()
    assert seen == ["boom"]


def test_succeed_with_delay():
    sim = Simulator()
    e = sim.event()
    e.succeed("late", delay=5.0)
    times = []

    def proc(sim):
        v = yield e
        times.append((sim.now, v))

    sim.process(proc(sim))
    sim.run()
    assert times == [(5.0, "late")]


@pytest.mark.parametrize("refused", ["succeed", "fail"])
def test_a_refused_trigger_leaves_the_event_pending(refused):
    """A negative delay is refused before the event is touched: it stays
    pending, nothing is scheduled, and a later trigger is delivered."""
    sim = Simulator()
    e = sim.event()
    got = []

    def waiter():
        got.append((yield e))

    sim.process(waiter())
    with pytest.raises(ValueError, match=r"negative delay -1\.0"):
        if refused == "succeed":
            e.succeed(1, delay=-1.0)
        else:
            e.fail(RuntimeError("never"), delay=-1.0)
    assert not e.triggered and sim._sequence == 1  # the kick-start only
    e.succeed("second try", delay=2.0)
    sim.run()
    assert got == ["second try"] and sim.now == 2.0


def test_waiting_on_already_processed_event():
    sim = Simulator()
    e = sim.event()
    e.succeed("early")
    sim.run()
    got = []

    def proc(sim):
        v = yield e
        got.append(v)

    sim.process(proc(sim))
    sim.run()
    assert got == ["early"]


def test_allof_waits_for_all():
    sim = Simulator()
    results = []

    def worker(sim, delay, val):
        yield sim.timeout(delay)
        return val

    def waiter(sim, a, b):
        values = yield AllOf(sim, [a, b])
        results.append((sim.now, values[a], values[b]))

    a = sim.process(worker(sim, 1.0, "a"))
    b = sim.process(worker(sim, 3.0, "b"))
    sim.process(waiter(sim, a, b))
    sim.run()
    assert results == [(3.0, "a", "b")]


def test_anyof_triggers_on_first():
    sim = Simulator()
    results = []

    def worker(sim, delay, val):
        yield sim.timeout(delay)
        return val

    def waiter(sim, a, b):
        values = yield AnyOf(sim, [a, b])
        results.append((sim.now, dict(values)))

    a = sim.process(worker(sim, 1.0, "a"))
    b = sim.process(worker(sim, 3.0, "b"))
    sim.process(waiter(sim, a, b))
    sim.run()
    assert results[0][0] == 1.0
    assert list(results[0][1].values()) == ["a"]


def test_allof_empty_triggers_immediately():
    sim = Simulator()
    cond = AllOf(sim, [])
    assert cond.triggered


def test_condition_fails_if_member_fails():
    sim = Simulator()
    good = sim.event()
    bad = sim.event()
    caught = []

    def waiter(sim):
        try:
            yield AllOf(sim, [good, bad])
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(waiter(sim))
    bad.fail(RuntimeError("member failed"))
    good.succeed()
    sim.run()
    assert caught == ["member failed"]


def test_and_or_operators():
    sim = Simulator()
    a, b = sim.event(), sim.event()
    both = a & b
    either = a | b
    assert isinstance(both, AllOf)
    assert isinstance(either, AnyOf)


def test_condition_rejects_cross_simulator_events():
    sim1, sim2 = Simulator(), Simulator()
    with pytest.raises(ValueError):
        AllOf(sim1, [sim1.event(), sim2.event()])


def test_condition_with_pretriggered_members():
    sim = Simulator()
    a = sim.event()
    a.succeed("pre")
    sim.run()
    b = sim.event()
    cond = AllOf(sim, [a, b])
    assert not cond.triggered
    b.succeed("post")
    sim.run()
    assert cond.ok
    assert cond.value[a] == "pre" and cond.value[b] == "post"
