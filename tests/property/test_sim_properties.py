"""Property-based tests for the simulation kernel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RngRegistry, Simulator

import pytest

pytestmark = pytest.mark.slow

delays = st.lists(
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=40,
)


@given(delays)
def test_timeouts_fire_in_nondecreasing_time_order(ds):
    sim = Simulator()
    fired = []

    def proc(sim, d):
        yield sim.timeout(d)
        fired.append(sim.now)

    for d in ds:
        sim.process(proc(sim, d))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(ds)
    assert sim.now == max(ds)


@given(delays)
def test_equal_delays_fire_in_creation_order(ds):
    sim = Simulator()
    order = []

    def proc(sim, idx, d):
        yield sim.timeout(d)
        order.append(idx)

    for idx, d in enumerate(ds):
        sim.process(proc(sim, idx, d))
    sim.run()
    # Stable by (time, creation order).
    expected = [i for _d, i in sorted(zip(ds, range(len(ds))), key=lambda p: (p[0], p[1]))]
    assert order == expected


@given(delays, st.integers(min_value=0, max_value=2**32 - 1))
def test_simulation_is_deterministic(ds, seed):
    def run():
        sim = Simulator()
        rng = RngRegistry(seed)
        trace = []

        def proc(sim, i, d):
            yield sim.timeout(d + rng.uniform(f"jitter{i}", 0, 1e-3))
            trace.append((i, sim.now))

        for i, d in enumerate(ds):
            sim.process(proc(sim, i, d))
        sim.run()
        return trace

    assert run() == run()


@given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=20))
def test_rng_streams_reproducible(seed, name):
    a = RngRegistry(seed).stream(name).random()
    b = RngRegistry(seed).stream(name).random()
    assert a == b


@given(
    st.integers(min_value=0, max_value=2**31),
    st.lists(st.text(min_size=1, max_size=8), min_size=2, max_size=6, unique=True),
)
def test_rng_stream_isolation(seed, names):
    """Drawing from other streams never perturbs a given stream."""
    solo = RngRegistry(seed).stream(names[0]).random()
    reg = RngRegistry(seed)
    for other in names[1:]:
        reg.stream(other).random()
    assert reg.stream(names[0]).random() == solo


@given(st.lists(st.floats(min_value=1e-3, max_value=100, allow_nan=False), min_size=1, max_size=30))
@settings(max_examples=50)
def test_resource_never_exceeds_capacity(hold_times):
    """A two-channel disk never serves more than two holds at once."""
    from repro.obs import Observability
    from repro.storage import Disk

    sim = Simulator()
    obs = Observability(sim)
    disk = Disk(sim, name="san", capacity=2, obs=obs)
    for hold in hold_times:
        sim.process(disk.stall(hold))
    sim.run()
    stalls = obs.trace.select("disk_stall")
    spans = [(r.get("granted"), r.get("granted") + r.get("duration")) for r in stalls]
    assert len(spans) == len(hold_times)
    for start, _end in spans:
        assert sum(1 for s, e in spans if s <= start < e) <= 2
    assert not disk.busy and disk.queue_length == 0


# -- one deadline per wait: Simulator.expire against the spelling it replaced --


def _recv_with_anyof(sim, box, timeout):
    """The pre-``expire`` wait, kept here as the reference: a getter, a
    ``Timeout``, an ``AnyOf`` over both, and a hand-written withdrawal."""
    from repro.sim import AnyOf

    get = box.get()
    yield AnyOf(sim, [get, sim.timeout(timeout)])
    if get.triggered:
        return get.value
    get.succeed(None)  # withdraw
    return None


def _recv_with_expire(sim, box, timeout):
    from repro.sim import TIMED_OUT

    msg = yield sim.expire(box.get(), timeout)
    return None if msg is TIMED_OUT else msg


def _run_wait_schedule(recv, put_gaps, timeouts):
    from repro.sim import Store

    sim = Simulator()
    box = Store(sim)
    resumed, put_times, deadlines = [], [], []

    def producer():
        for i, gap in enumerate(put_gaps):
            yield sim.timeout(gap)
            put_times.append(sim.now)
            box.put(i)

    def waiter():
        for timeout in timeouts:
            deadlines.append(sim.now + timeout)
            value = yield from recv(sim, box, timeout)
            resumed.append((sim.now, value))

    sim.process(producer())
    sim.process(waiter())
    sim.run()
    return resumed, put_times, deadlines, list(box.items)


_gaps = st.lists(st.floats(min_value=1e-3, max_value=5.0), min_size=0, max_size=12)
_timeouts = st.lists(st.floats(min_value=1e-3, max_value=5.0), min_size=1, max_size=12)


@given(_gaps, _timeouts)
def test_expire_resumes_like_the_anyof_spelling_it_replaced(put_gaps, timeouts):
    """Same virtual resume time, same value (message or timeout), same
    leftovers — for every schedule in which no message lands in the very
    instant of a deadline (there the old spelling let a message that
    arrived *after* the deadline fired still win; ``expire`` does not,
    see the test below)."""
    from hypothesis import assume

    new = _run_wait_schedule(_recv_with_expire, put_gaps, timeouts)
    assume(not set(new[1]) & set(new[2]))
    old = _run_wait_schedule(_recv_with_anyof, put_gaps, timeouts)
    assert new == old


def test_expire_message_in_the_deadline_instant_after_it_is_left_queued():
    from repro.sim import TIMED_OUT, Store

    sim = Simulator()
    box = Store(sim)
    got = []

    def waiter():
        got.append((yield sim.expire(box.get(), 1.0)))

    sim.process(waiter())
    sim.run(until=0.0)  # the waiter arms its deadline first ...
    sim.after(1.0, lambda value: box.put("photo finish"))  # ... so this fires second
    sim.run()
    assert got == [TIMED_OUT]
    assert list(box.items) == ["photo finish"]
