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
    """Every scheduling path spells the negative-delay check itself
    (no shared ``_schedule`` frame) and must surface the same message."""
    sim = Simulator()
    with pytest.raises(ValueError, match=r"negative delay -1\.0"):
        sim.timeout(-1.0)
    with pytest.raises(ValueError, match=r"negative delay -0\.5"):
        sim.event().succeed(delay=-0.5)
    with pytest.raises(ValueError, match=r"negative delay -2"):
        sim.event().fail(RuntimeError("x"), delay=-2)
    with pytest.raises(ValueError, match=r"negative delay -3\.5"):
        sim.after(-3.5, print)
    with pytest.raises(ValueError, match=r"negative delay -0\.25"):
        sim.expire(sim.event(), -0.25)
    # Nothing that was refused reached the schedule.
    assert sim.peek() == float("inf") and sim._sequence == 0


def test_after_pushes_its_own_entry_with_the_same_check_and_order():
    """``after`` pushes its own heap entry (one frame per timer): same
    message, nothing scheduled on refusal, and sequence numbers still
    interleave with triggered events in call order."""
    sim = Simulator()
    with pytest.raises(ValueError, match=r"negative delay -1\.5"):
        sim.after(-1.5, lambda value: None)
    assert sim.peek() == float("inf") and sim._sequence == 0
    order = []
    sim.after(1.0, lambda value: order.append("after-1"))
    sim.timeout(1.0).callbacks.append(lambda event: order.append("timeout"))
    sim.after(1.0, lambda value: order.append("after-2"))
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


# -- stop(): ending a time-bounded run from inside an event ------------------


def _stopping_sim():
    """Three same-instant timers at t=1 (the second stops the run) and
    one at t=2; returns the sim and the firing log."""
    sim = Simulator()
    fired = []
    sim.after(1.0, lambda _t: fired.append("a"))
    sim.after(1.0, lambda _t: (fired.append("b"), sim.stop()))
    sim.after(1.0, lambda _t: fired.append("c"))
    sim.after(2.0, lambda _t: fired.append("d"))
    return sim, fired


def test_stop_ends_the_run_after_the_current_event_with_the_clock_on_it():
    sim, fired = _stopping_sim()
    sim.run(until=10.0)
    assert fired == ["a", "b"]
    assert sim.now == 1.0  # not the 10.0 an unstopped run ends on
    assert sim.events_processed == 2  # what stepping up to here counts


def test_entries_left_by_a_stop_run_on_the_next_run():
    sim, fired = _stopping_sim()
    sim.run(until=10.0)
    assert sim.peek() == 1.0  # the same-instant entry scheduled later
    sim.run(until=10.0)
    assert fired == ["a", "b", "c", "d"]
    assert sim.now == 10.0 and sim.events_processed == 4


def test_the_callbacks_of_the_stopping_event_all_run():
    sim = Simulator()
    fired = []
    event = sim.event()
    event.callbacks.append(lambda _e: sim.stop())
    event.callbacks.append(lambda _e: fired.append("second callback"))
    event.succeed(delay=1.0)
    sim.run(until=5.0)
    assert fired == ["second callback"] and sim.now == 1.0


def test_stop_outside_a_time_bounded_run_raises():
    sim = Simulator()
    with pytest.raises(SimulationError, match="outside a time-bounded run"):
        sim.stop()
    # An unbounded run and a run until an event have no horizon to pull in.
    sim.after(1.0, lambda _t: sim.stop())
    with pytest.raises(SimulationError, match="outside a time-bounded run"):
        sim.run()
    sim.after(1.0, lambda _t: sim.stop())
    with pytest.raises(SimulationError, match="outside a time-bounded run"):
        sim.run(until=sim.timeout(5.0))
    # ... and a finished bounded run leaves none behind.
    sim.run(until=sim.now + 1.0)
    with pytest.raises(SimulationError, match="outside a time-bounded run"):
        sim.stop()


def test_a_run_that_raised_leaves_no_horizon_behind():
    sim = Simulator()
    sim.event().fail(RuntimeError("boom"), delay=1.0)
    with pytest.raises(RuntimeError, match="boom"):
        sim.run(until=5.0)
    with pytest.raises(SimulationError, match="outside a time-bounded run"):
        sim.stop()
