"""Unit tests for the DES kernel: clock, scheduling, run modes."""

import pytest

from repro.sim import Simulator
from repro.sim.errors import SimulationError


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_clock_custom_start():
    sim = Simulator(start_time=5.0)
    assert sim.now == 5.0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2.5)

    sim.process(proc(sim))
    sim.run()
    assert sim.now == 2.5


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_negative_delay_message_single_source():
    """The negative-delay check lives in ``Simulator._schedule`` alone;
    every scheduling path must surface its exact message."""
    sim = Simulator()
    with pytest.raises(ValueError, match=r"negative delay -1\.0"):
        sim.timeout(-1.0)
    with pytest.raises(ValueError, match=r"negative delay -0\.5"):
        sim.event().succeed(delay=-0.5)
    with pytest.raises(ValueError, match=r"negative delay -2"):
        sim.event().fail(RuntimeError("x"), delay=-2)
    with pytest.raises(ValueError, match=r"negative delay -3\.5"):
        sim._schedule(sim.event(), delay=-3.5)
    # The rejected timeout never reached the schedule.
    assert sim.peek() == float("inf")


def test_after_pushes_its_own_entry_with_the_same_check_and_order():
    """``after`` spells ``_schedule`` out (one frame per timer): same
    message, nothing scheduled or taken from the pool on refusal, and
    sequence numbers still interleave with triggered events in call
    order."""
    sim = Simulator()
    with pytest.raises(ValueError, match=r"negative delay -1\.5"):
        sim.after(-1.5, lambda trigger: None)
    assert sim.peek() == float("inf") and sim._sequence == 0
    order = []
    sim.after(1.0, lambda trigger: order.append("after-1"))
    sim.timeout(1.0).callbacks.append(lambda event: order.append("timeout"))
    sim.after(1.0, lambda trigger: order.append("after-2"))
    sim.run()
    assert order == ["after-1", "timeout", "after-2"] and sim.now == 1.0


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(10.0)

    sim.process(proc(sim))
    sim.run(until=4.0)
    assert sim.now == 4.0


def test_run_until_time_in_past_rejected():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(10.0)

    sim.process(proc(sim))
    sim.run()
    with pytest.raises(ValueError):
        sim.run(until=5.0)


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        return "payload"

    p = sim.process(proc(sim))
    assert sim.run(until=p) == "payload"
    assert sim.now == 1.0


def test_run_until_event_already_processed():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        return 42

    p = sim.process(proc(sim))
    sim.run()
    assert sim.run(until=p) == 42


def test_run_until_never_triggering_event_raises():
    sim = Simulator()
    never = sim.event("never")
    with pytest.raises(SimulationError):
        sim.run(until=never)


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        sim.process(proc(sim, tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def proc(sim, delay, tag):
        yield sim.timeout(delay)
        order.append((sim.now, tag))

    sim.process(proc(sim, 3.0, "late"))
    sim.process(proc(sim, 1.0, "early"))
    sim.process(proc(sim, 2.0, "mid"))
    sim.run()
    assert order == [(1.0, "early"), (2.0, "mid"), (3.0, "late")]


def test_step_on_empty_schedule_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.step()


def test_peek_reports_next_event_time():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(7.0)

    sim.process(proc(sim))
    # The kick-start init event is at t=0.
    assert sim.peek() == 0.0
    sim.step()
    assert sim.peek() == 7.0


def test_peek_empty_is_infinite():
    sim = Simulator()
    assert sim.peek() == float("inf")


def test_events_processed_counter():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        yield sim.timeout(1.0)

    sim.process(proc(sim))
    sim.run()
    assert sim.events_processed >= 3  # init + two timeouts


def test_call_at_invokes_function():
    sim = Simulator()
    hits = []
    sim.call_at(3.0, lambda: hits.append(sim.now))
    sim.run()
    assert hits == [3.0]


def test_call_at_in_past_rejected():
    sim = Simulator(start_time=10.0)
    with pytest.raises(ValueError):
        sim.call_at(5.0, lambda: None)


def test_run_all_collects_values():
    sim = Simulator()

    def proc(sim, delay, value):
        yield sim.timeout(delay)
        return value

    procs = [sim.process(proc(sim, d, d * 10)) for d in (3.0, 1.0, 2.0)]
    assert sim.run_all(procs) == [30.0, 10.0, 20.0]


def test_unobserved_event_failure_surfaces():
    sim = Simulator()
    boom = sim.event("boom")
    boom.fail(RuntimeError("unobserved"))
    with pytest.raises(RuntimeError, match="unobserved"):
        sim.run()


def test_deterministic_event_ordering_across_runs():
    def build_and_run():
        sim = Simulator()
        order = []

        def proc(sim, tag):
            yield sim.timeout(1.0)
            order.append(tag)
            yield sim.timeout(1.0)
            order.append(tag.upper())

        for tag in ("x", "y"):
            sim.process(proc(sim, tag))
        sim.run()
        return order

    assert build_and_run() == build_and_run()
