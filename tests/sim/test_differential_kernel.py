"""Differential testing: optimized kernel vs the frozen reference.

Every scheduled pop in the optimized ``repro.sim`` kernel must happen
at exactly the same ``(time, priority, sequence)`` as in the frozen
pre-overhaul reference kernel (``reference_kernel.py``), and every
process must finish with exactly the same return value.  A seeded
generator produces hundreds of randomized schedules — timeout storms,
callback timers, already-processed relays, AnyOf fan-ins, caught
failures and cross-process waits — and each one is interpreted twice,
once per kernel, from the same immutable program spec.

If this test fails, a hot-path "optimization" changed event ordering:
that is a semantic change, never a cleanup.
"""

from __future__ import annotations

import random
from typing import Any

import pytest

from repro.sim import AnyOf, SimulationError, Simulator
from tests.sim.reference_kernel import RefAnyOf, RefSimulationError, RefSimulator

N_SCHEDULES = 200

# -- program generation -------------------------------------------------------
#
# A program spec is pure data (nested tuples/lists), generated once per
# seed and interpreted against both kernels — sharing the spec, not the
# RNG, guarantees the two kernels see the same program.


def make_program(rng: random.Random) -> list[list[tuple]]:
    """Random per-process op lists.  Delays are exact binary fractions
    scaled by small ints, so float arithmetic is bit-stable."""

    def delay() -> float:
        return rng.randrange(1, 64) * 0.0009765625  # k / 1024

    n_procs = rng.randrange(2, 7)
    program: list[list[tuple]] = []
    for i in range(n_procs):
        ops: list[tuple] = []
        for _ in range(rng.randrange(3, 9)):
            kind = rng.randrange(9)
            if kind <= 2:
                ops.append(("timeout", delay(), rng.randrange(1000)))
            elif kind == 3:
                # Yield an immediately-succeeded (triggered, not yet
                # processed) event.
                ops.append(("ready", rng.randrange(1000)))
            elif kind == 4:
                # Yield an event that is already *processed* — the
                # relay fast path.
                ops.append(("stale", delay(), rng.randrange(1000)))
            elif kind == 5:
                n = rng.randrange(2, 5)
                ops.append(("anyof", [delay() for _ in range(n)]))
            elif kind == 6:
                # A failure the process catches (defused by _resume).
                ops.append(("fail_caught", delay()))
            elif kind == 7:
                # A callback timer (``Simulator.after``) that wakes the
                # process through an event it succeeds.
                ops.append(("timer", delay(), rng.randrange(1000)))
            else:
                # Wait on a peer process (may already be finished).
                ops.append(("wait_peer", rng.randrange(n_procs)))
        program.append(ops)
    return program


def build(sim: Any, api: dict[str, Any], program: list[list[tuple]]) -> list[Any]:
    """Instantiate ``program`` against a kernel; returns the processes."""
    anyof, after = api["AnyOf"], api["after"]
    procs: list[Any] = []

    def worker(ops: list[tuple]):
        digest: list[Any] = []
        for op in ops:
            if op[0] == "timeout":
                digest.append((yield sim.timeout(op[1], op[2])))
            elif op[0] == "ready":
                event = sim.event()
                event.succeed(op[1])
                digest.append((yield event))
            elif op[0] == "stale":
                event = sim.event()
                event.succeed(op[2])
                yield sim.timeout(op[1])
                digest.append((yield event))
            elif op[0] == "anyof":
                result = yield anyof(sim, [sim.timeout(d, j) for j, d in enumerate(op[1])])
                digest.append(sorted(result.values()))
            elif op[0] == "fail_caught":
                event = sim.event()
                event.fail(RuntimeError("boom"), delay=op[1])
                try:
                    yield event
                except RuntimeError as exc:
                    digest.append(str(exc))
            elif op[0] == "timer":
                event = sim.event()
                after(sim, op[1], event.succeed, op[2])
                digest.append((yield event))
            elif op[0] == "wait_peer":
                target = procs[op[1]]
                if target is not None:
                    digest.append((yield target))
        return digest

    for i, ops in enumerate(program):
        procs.append(None)
        procs[i] = sim.process(worker(ops), name=f"w{i}")
    return procs


# -- the differential run -----------------------------------------------------


def outcomes(procs: list[Any]) -> list[Any]:
    # Self- or circular waits deadlock (identically in both kernels):
    # such processes stay pending and have no value.
    return [p.value if p.triggered else "pending" for p in procs]


def ref_after(sim: RefSimulator, delay: float, callback: Any, value: Any) -> None:
    """``Simulator.after`` on the reference kernel, which has no timers:
    a timeout and a callback that unwraps it — one sequence number at
    the same program point, one pop."""
    sim.timeout(delay, value).callbacks.append(lambda event: callback(event.value))


REF_API = {"AnyOf": RefAnyOf, "after": ref_after}
OPT_API = {"AnyOf": AnyOf, "after": Simulator.after}


def run_reference(program: list[list[tuple]]):
    sim = RefSimulator()
    procs = build(sim, REF_API, program)
    sim.run()
    return sim.pop_log, outcomes(procs), sim.now, sim.events_processed


def run_optimized_stepwise(program: list[list[tuple]]):
    """Drive the optimized kernel one step() at a time, logging pops."""
    sim = Simulator()
    procs = build(sim, OPT_API, program)
    pop_log: list[tuple[float, int, int]] = []
    while sim._heap:
        entry = sim._heap[0]
        pop_log.append((entry[0], entry[1], entry[2]))
        sim.step()
    return pop_log, outcomes(procs), sim.now, sim.events_processed


def run_optimized_inline(program: list[list[tuple]]):
    """Drive the optimized kernel through the inlined run() loop."""
    sim = Simulator()
    procs = build(sim, OPT_API, program)
    sim.run()
    return outcomes(procs), sim.now, sim.events_processed


@pytest.mark.parametrize("seed", range(N_SCHEDULES))
def test_differential_schedules(seed):
    program = make_program(random.Random(seed))

    ref_log, ref_values, ref_now, ref_count = run_reference(program)
    opt_log, opt_values, opt_now, opt_count = run_optimized_stepwise(program)

    assert opt_log == ref_log, f"pop order diverged (seed {seed})"
    assert opt_values == ref_values, f"process outcomes diverged (seed {seed})"
    assert opt_now == ref_now
    assert opt_count == ref_count

    # The inlined run() loop must agree with its own step()-wise drive.
    inl_values, inl_now, inl_count = run_optimized_inline(program)
    assert inl_values == opt_values
    assert inl_now == opt_now
    assert inl_count == opt_count


def test_differential_pop_log_nonempty():
    """Meta-check: the generator actually produces work."""
    program = make_program(random.Random(0))
    ref_log, _, _, count = run_reference(program)
    assert len(ref_log) == count > 0


def test_schedules_exercise_the_timer_op():
    """Meta-check: callback timers are in the generated programs."""
    programs = [make_program(random.Random(seed)) for seed in range(N_SCHEDULES)]
    timers = sum(op[0] == "timer" for program in programs for ops in program for op in ops)
    assert timers > N_SCHEDULES


def _guard_messages(simulator: Any, error: type) -> list[str]:
    """The text of the three guards a process trips by construction or
    by what it yields, on one kernel."""
    messages = []
    sim, other = simulator(), simulator()
    with pytest.raises(TypeError) as refused:
        sim.process(lambda: None, name="p")
    messages.append(str(refused.value))

    def yields(thing):
        try:
            yield thing
        except error as exc:  # thrown into the generator first
            messages.append(f"thrown: {exc}")
            raise

    for thing in (42, other.event()):
        proc = sim.process(yields(thing), name="p")
        with pytest.raises(error) as failure:
            sim.run()
        assert proc.triggered and not proc.ok and proc.value is failure.value
        messages.append(str(failure.value))
    return messages


def test_process_guards_keep_the_reference_messages():
    """The guards read attributes instead of calling ``isinstance`` /
    ``hasattr``; what they say and do when tripped is the reference's."""
    messages = _guard_messages(Simulator, SimulationError)
    assert messages == _guard_messages(RefSimulator, RefSimulationError)
    requires, thrown, must_yield, another = messages
    assert "requires a generator, got function" in requires
    assert thrown == f"thrown: {must_yield}" and "must yield events" in must_yield
    assert "another simulator" in another
