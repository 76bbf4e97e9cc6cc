"""`Simulator.after`, `Simulator.at` and `Simulator.expire`: the callback
timer, its absolute-time door and the one deadline primitive."""

import pytest

from repro.sim import TIMED_OUT, Simulator, Store


def test_after_fires_once_at_the_due_time_with_its_value():
    sim = Simulator()
    seen = []
    sim.after(1.5, lambda value: seen.append((sim.now, value)), "payload")
    sim.run()
    assert seen == [(1.5, "payload")]
    assert sim.events_processed == 1


def test_after_same_instant_timers_fire_in_scheduling_order():
    sim = Simulator()
    order = []
    for tag in "abc":
        sim.after(1.0, order.append, tag)
    sim.after(0.5, order.append, "early")
    sim.run()
    assert order == ["early", "a", "b", "c"]


def test_a_timer_allocates_no_event():
    """The callback receives the very object passed as ``value`` (or
    ``None``), not an event wrapped around it, from ``after`` and ``at``
    alike — so there is nothing a callback could wrongly keep."""
    sim = Simulator()
    payload, got = object(), []
    sim.after(1.0, got.append, payload)
    sim.at(2.0, got.append, payload)
    sim.after(3.0, got.append)
    sim.run()
    assert got[0] is payload and got[1] is payload and got[2] is None
    assert sim.events_processed == 3 and sim.now == 3.0


def test_after_rejects_a_negative_delay():
    with pytest.raises(ValueError):
        Simulator().after(-1.0, lambda value: None)


def test_at_lands_on_the_given_instant_bit_for_bit():
    # A grid walked by repeated addition: from most clock values,
    # now + (t - now) misses t by an ulp.
    grid, t = [], 0.0
    for _ in range(200):
        t += 0.5e-3
        grid.append(t)
    sim = Simulator()
    sim.run(until=0.0123)
    assert any(sim.now + (t - sim.now) != t for t in grid if t > sim.now)
    seen = []
    for t in grid:
        if t > sim.now:
            sim.at(t, lambda value: seen.append((sim.now, value)), t)
    sim.run()
    assert seen == [(t, t) for t in grid if t > 0.0123]


def test_entries_due_at_one_instant_fire_in_scheduling_order_whatever_their_kind():
    sim = Simulator()
    order = []
    sim.after(1.0, order.append, "after")
    sim.timeout(1.0).callbacks.append(lambda event: order.append("timeout"))
    sim.at(1.0, order.append, "at")
    sim.event().succeed("succeed", delay=1.0).callbacks.append(
        lambda event: order.append(event.value)
    )
    sim.after(1.0, order.append, "after again")
    sim.run()
    assert order == ["after", "timeout", "at", "succeed", "after again"]


def test_a_raising_timer_callback_leaves_run_on_that_event():
    """The exception surfaces from ``run()`` with the clock and the
    event count on the timer that raised, later entries still scheduled
    — in both run loops and in ``step()``."""

    def boom(value):
        raise RuntimeError(value)

    def armed():
        sim = Simulator()
        sim.after(1.0, lambda value: None)
        sim.after(2.0, boom, "at two")
        sim.after(3.0, lambda value: None)
        return sim

    def stepped(sim):
        while True:
            sim.step()

    for drive in (Simulator.run, lambda sim: sim.run(until=10.0), stepped):
        sim = armed()
        with pytest.raises(RuntimeError, match="at two"):
            drive(sim)
        assert (sim.now, sim.events_processed, sim.peek()) == (2.0, 2, 3.0)
        sim.run()  # the kernel is usable afterwards: the rest drains
        assert (sim.now, sim.events_processed) == (3.0, 3)


def test_at_rejects_an_instant_in_the_past():
    sim = Simulator(start_time=10.0)
    with pytest.raises(ValueError, match="past"):
        sim.at(5.0, lambda value: None)
    sim.at(10.0, lambda value: None)  # now is not the past


def test_expire_delivers_timed_out_exactly_at_the_deadline():
    sim = Simulator()
    box = Store(sim)

    def waiter():
        value = yield sim.expire(box.get(), 0.25)
        return value, sim.now

    proc = sim.process(waiter())
    sim.run()
    assert proc.value == (TIMED_OUT, 0.25)
    assert repr(TIMED_OUT) == "TIMED_OUT"


def test_expire_is_a_noop_once_the_event_triggered():
    sim = Simulator()
    box = Store(sim)

    def waiter():
        return (yield sim.expire(box.get(), 1.0)), sim.now

    proc = sim.process(waiter())
    sim.after(0.4, lambda value: box.put("msg"))
    sim.run()
    assert proc.value == ("msg", 0.4)
    assert sim.now == 1.0  # the spent deadline still pops, harmlessly


def test_expired_getter_is_withdrawn_and_does_not_swallow_a_later_item():
    sim = Simulator()
    box = Store(sim)

    def impatient():
        return (yield sim.expire(box.get(), 0.1))

    proc = sim.process(impatient())
    sim.after(0.5, lambda value: box.put("late"))
    sim.run()
    assert proc.value is TIMED_OUT
    assert list(box.items) == ["late"]


def test_deadline_of_a_killed_waiter_withdraws_the_orphaned_getter():
    """The waiter dies with its deadline armed: the late timer finds
    nothing to resume, and the getter it leaves behind must not take
    the next item."""
    sim = Simulator()
    box = Store(sim)
    resumed = []

    def doomed():
        resumed.append((yield sim.expire(box.get(), 1.0)))

    victim = sim.process(doomed())
    sim.after(0.5, lambda value: victim.kill())
    sim.after(2.0, lambda value: box.put("for the next reader"))
    sim.run()
    assert resumed == []
    assert list(box.items) == ["for the next reader"]
    next_reader = box.get()
    sim.run()
    assert next_reader.value == "for the next reader"
