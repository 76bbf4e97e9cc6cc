"""Unit tests for processes: lifecycle and waiting."""

import pytest

from repro.sim import Simulator
from repro.sim.errors import SimulationError


def test_process_return_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        return "result"

    p = sim.process(proc(sim))
    sim.run()
    assert p.ok and p.value == "result"


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)


def test_process_waits_on_process():
    sim = Simulator()
    order = []

    def child(sim):
        yield sim.timeout(2.0)
        order.append("child")
        return 7

    def parent(sim):
        value = yield sim.process(child(sim))
        order.append(("parent", value, sim.now))

    sim.process(parent(sim))
    sim.run()
    assert order == ["child", ("parent", 7, 2.0)]


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1.0)
        raise KeyError("oops")

    def parent(sim):
        try:
            yield sim.process(child(sim))
        except KeyError:
            return "handled"

    p = sim.process(parent(sim))
    sim.run()
    assert p.value == "handled"


def test_unhandled_process_exception_surfaces_in_run():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("unhandled")

    sim.process(proc(sim))
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_yielding_non_event_fails_process():
    sim = Simulator()

    def bad(sim):
        yield 42

    sim.process(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_yielding_foreign_event_fails_process():
    sim1, sim2 = Simulator(), Simulator()

    def bad(sim, foreign):
        yield foreign

    sim1.process(bad(sim1, sim2.event()))
    with pytest.raises(SimulationError):
        sim1.run()


def test_is_alive_and_target():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(3.0)

    p = sim.process(proc(sim))
    assert p.is_alive
    sim.run(until=1.0)
    assert p.is_alive
    assert p.target is not None
    sim.run()
    assert not p.is_alive
    assert p.target is None


def test_many_processes_complete():
    sim = Simulator()
    done = []

    def proc(sim, i):
        yield sim.timeout(float(i % 7) / 10.0)
        done.append(i)

    for i in range(200):
        sim.process(proc(sim, i))
    sim.run()
    assert sorted(done) == list(range(200))


def test_waiting_on_an_already_failed_event_throws_its_failure():
    """A target that failed and was processed before the process yields
    it is relayed at the current instant with its exception thrown in."""
    sim = Simulator()
    failed = sim.event()
    failed.defused = True
    failed.fail(RuntimeError("earlier"))
    sim.run()
    caught = []

    def late(sim):
        try:
            yield failed
        except RuntimeError as exc:
            caught.append((str(exc), sim.now))

    sim.process(late(sim))
    sim.run()
    assert caught == [("earlier", 0.0)]
