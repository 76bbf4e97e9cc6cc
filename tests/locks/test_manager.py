"""Unit tests for the 2PL lock manager."""

import pytest

from repro.locks import LockManager, LockMode, LockTimeout
from repro.obs import Observability
from repro.sim import Simulator


def make_mgr():
    sim = Simulator()
    obs = Observability(sim)
    return sim, LockManager(sim, obs=obs), obs.trace


def test_exclusive_lock_granted_when_free():
    sim, mgr, _ = make_mgr()

    def proc(sim):
        yield from mgr.acquire(1, "dir", LockMode.EXCLUSIVE)
        return sim.now

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == 0.0
    assert mgr.holds(1, "dir", LockMode.EXCLUSIVE)


def test_exclusive_blocks_second_txn():
    sim, mgr, _ = make_mgr()
    order = []

    def first(sim):
        yield from mgr.acquire(1, "dir")
        order.append(("t1", sim.now))
        yield sim.timeout(2.0)
        mgr.release(1, "dir")

    def second(sim):
        yield sim.timeout(0.1)
        yield from mgr.acquire(2, "dir")
        order.append(("t2", sim.now))
        mgr.release(2, "dir")

    sim.process(first(sim))
    sim.process(second(sim))
    sim.run()
    assert order == [("t1", 0.0), ("t2", 2.0)]


def test_shared_locks_coexist():
    sim, mgr, _ = make_mgr()
    order = []

    def reader(sim, txn):
        yield from mgr.acquire(txn, "dir", LockMode.SHARED)
        order.append((txn, sim.now))
        yield sim.timeout(1.0)
        mgr.release(txn, "dir")

    sim.process(reader(sim, 1))
    sim.process(reader(sim, 2))
    sim.run()
    assert order == [(1, 0.0), (2, 0.0)]


def test_exclusive_waits_for_all_shared():
    sim, mgr, _ = make_mgr()
    order = []

    def reader(sim, txn, hold):
        yield from mgr.acquire(txn, "dir", LockMode.SHARED)
        yield sim.timeout(hold)
        mgr.release(txn, "dir")

    def writer(sim):
        yield sim.timeout(0.1)
        yield from mgr.acquire(9, "dir", LockMode.EXCLUSIVE)
        order.append(sim.now)
        mgr.release(9, "dir")

    sim.process(reader(sim, 1, 1.0))
    sim.process(reader(sim, 2, 2.0))
    sim.process(writer(sim))
    sim.run()
    assert order == [2.0]


def test_fifo_no_overtaking_shared_behind_exclusive():
    """A shared request queued behind an exclusive one must not overtake
    it (prevents writer starvation)."""
    sim, mgr, _ = make_mgr()
    order = []

    def holder(sim):
        yield from mgr.acquire(1, "dir", LockMode.SHARED)
        yield sim.timeout(1.0)
        mgr.release(1, "dir")

    def writer(sim):
        yield sim.timeout(0.1)
        yield from mgr.acquire(2, "dir", LockMode.EXCLUSIVE)
        order.append(("writer", sim.now))
        yield sim.timeout(1.0)
        mgr.release(2, "dir")

    def late_reader(sim):
        yield sim.timeout(0.2)
        yield from mgr.acquire(3, "dir", LockMode.SHARED)
        order.append(("reader", sim.now))
        mgr.release(3, "dir")

    sim.process(holder(sim))
    sim.process(writer(sim))
    sim.process(late_reader(sim))
    sim.run()
    assert order == [("writer", 1.0), ("reader", 2.0)]


def test_reacquire_held_lock_is_noop():
    sim, mgr, _ = make_mgr()

    def proc(sim):
        yield from mgr.acquire(1, "dir", LockMode.EXCLUSIVE)
        yield from mgr.acquire(1, "dir", LockMode.EXCLUSIVE)
        yield from mgr.acquire(1, "dir", LockMode.SHARED)  # X covers S
        return True

    p = sim.process(proc(sim))
    sim.run()
    assert p.value is True


def test_upgrade_shared_to_exclusive_sole_holder():
    sim, mgr, _ = make_mgr()

    def proc(sim):
        yield from mgr.acquire(1, "dir", LockMode.SHARED)
        yield from mgr.acquire(1, "dir", LockMode.EXCLUSIVE)
        return mgr.holds(1, "dir", LockMode.EXCLUSIVE)

    p = sim.process(proc(sim))
    sim.run()
    assert p.value is True


def test_upgrade_waits_for_other_shared_holder():
    sim, mgr, _ = make_mgr()
    order = []

    def other(sim):
        yield from mgr.acquire(2, "dir", LockMode.SHARED)
        yield sim.timeout(1.0)
        mgr.release(2, "dir")

    def upgrader(sim):
        yield from mgr.acquire(1, "dir", LockMode.SHARED)
        yield sim.timeout(0.1)
        yield from mgr.acquire(1, "dir", LockMode.EXCLUSIVE)
        order.append(sim.now)

    sim.process(other(sim))
    sim.process(upgrader(sim))
    sim.run()
    assert order == [1.0]
    assert mgr.holds(1, "dir", LockMode.EXCLUSIVE)


def test_timeout_raises_and_withdraws():
    sim, mgr, trace = make_mgr()
    outcome = []

    def holder(sim):
        yield from mgr.acquire(1, "dir")
        yield sim.timeout(10.0)
        mgr.release(1, "dir")

    def impatient(sim):
        try:
            yield from mgr.acquire(2, "dir", timeout=0.5)
        except LockTimeout as exc:
            outcome.append((exc.txn_id, exc.obj_id, sim.now))

    sim.process(holder(sim))
    sim.process(impatient(sim))
    sim.run()
    assert outcome == [(2, "dir", 0.5)]
    assert mgr.queue_length("dir") == 0
    assert trace.count("lock_timeout") == 1


def test_timeout_withdrawal_lets_next_waiter_through():
    sim, mgr, _ = make_mgr()
    order = []

    def holder(sim):
        yield from mgr.acquire(1, "dir")
        yield sim.timeout(1.0)
        mgr.release(1, "dir")

    def impatient(sim):
        yield sim.timeout(0.1)
        try:
            yield from mgr.acquire(2, "dir", timeout=0.2)
        except LockTimeout:
            order.append("timeout")

    def patient(sim):
        yield sim.timeout(0.2)
        yield from mgr.acquire(3, "dir")
        order.append(("granted", sim.now))
        mgr.release(3, "dir")

    sim.process(holder(sim))
    sim.process(impatient(sim))
    sim.process(patient(sim))
    sim.run()
    assert order == ["timeout", ("granted", 1.0)]


def test_timeout_after_the_entry_was_recreated_leaves_the_new_entry_intact():
    """The waiter's deadline fires, then (same instant) the holder
    releases: the timed-out waiter is popped and the empty entry
    dropped, and a new entry is made for the object before the waiter
    resumes.  Its withdrawal must dispatch the table's live entry, not
    drop it as the empty one it queued on."""
    sim, mgr, trace = make_mgr()
    assert mgr.try_acquire(1, "dir", LockMode.EXCLUSIVE)
    outcome = []

    def impatient(sim):
        try:
            yield from mgr.acquire(2, "dir", LockMode.EXCLUSIVE, timeout=0.5)
        except LockTimeout:
            outcome.append(sim.now)

    sim.process(impatient(sim))
    sim.run(until=0.1)
    stale = mgr._table["dir"]
    fresh = []

    def release_and_relock(_):
        mgr.release(1, "dir")
        assert "dir" not in mgr._table
        assert mgr.try_acquire(3, "dir", LockMode.SHARED)
        next(mgr.acquire(4, "dir", LockMode.EXCLUSIVE))  # queues behind 3
        fresh.append(mgr._table["dir"])

    sim.at(0.5, release_and_relock)  # after the deadline armed at t=0
    sim.run()
    assert outcome == [0.5]
    assert fresh[0] is not stale and mgr._table["dir"] is fresh[0]
    assert mgr.holders("dir") == {3: LockMode.SHARED}
    assert mgr.queue_length("dir") == 1
    assert trace.count("lock_timeout") == 1


def test_release_unheld_lock_raises():
    sim, mgr, _ = make_mgr()
    with pytest.raises(KeyError):
        mgr.release(1, "dir")


def test_release_all_releases_everything():
    sim, mgr, _ = make_mgr()

    def proc(sim):
        yield from mgr.acquire(1, "a")
        yield from mgr.acquire(1, "b")
        yield from mgr.acquire(1, "c", LockMode.SHARED)

    sim.process(proc(sim))
    sim.run()
    assert sorted(mgr.locks_of(1)) == ["a", "b", "c"]
    assert mgr.release_all(1) == 3
    assert mgr.locks_of(1) == []


def test_release_all_withdraws_queued_requests():
    sim, mgr, _ = make_mgr()

    def holder(sim):
        yield from mgr.acquire(1, "dir")
        yield sim.timeout(1.0)
        mgr.release(1, "dir")

    def waiter(sim):
        yield sim.timeout(0.1)
        yield from mgr.acquire(2, "dir")

    sim.process(holder(sim))
    sim.process(waiter(sim))
    sim.run(until=0.5)
    assert mgr.queue_length("dir") == 1
    mgr.release_all(2)
    assert mgr.queue_length("dir") == 0


def test_try_acquire_non_blocking():
    sim, mgr, _ = make_mgr()
    assert mgr.try_acquire(1, "dir", LockMode.EXCLUSIVE)
    assert not mgr.try_acquire(2, "dir", LockMode.EXCLUSIVE)
    assert mgr.try_acquire(1, "dir", LockMode.EXCLUSIVE)  # re-entrant


def test_try_acquire_respects_queue():
    sim, mgr, _ = make_mgr()

    def holder(sim):
        yield from mgr.acquire(1, "dir", LockMode.SHARED)
        yield sim.timeout(1.0)
        mgr.release(1, "dir")

    def waiter(sim):
        yield sim.timeout(0.1)
        yield from mgr.acquire(2, "dir", LockMode.EXCLUSIVE)
        mgr.release(2, "dir")

    sim.process(holder(sim))
    sim.process(waiter(sim))
    sim.run(until=0.5)
    # A shared try_acquire must not jump the queued exclusive waiter.
    assert not mgr.try_acquire(3, "dir", LockMode.SHARED)
    sim.run()


def test_wait_edges_reflect_blocking():
    sim, mgr, _ = make_mgr()

    def holder(sim):
        yield from mgr.acquire(1, "dir")
        yield sim.timeout(1.0)
        mgr.release(1, "dir")

    def waiter(sim):
        yield sim.timeout(0.1)
        yield from mgr.acquire(2, "dir")
        mgr.release(2, "dir")

    sim.process(holder(sim))
    sim.process(waiter(sim))
    sim.run(until=0.5)
    assert mgr.wait_edges() == [(2, 1)]
    sim.run()
    assert mgr.wait_edges() == []


def test_lock_table_entry_cleaned_up():
    sim, mgr, _ = make_mgr()

    def proc(sim):
        yield from mgr.acquire(1, "dir")
        mgr.release(1, "dir")

    sim.process(proc(sim))
    sim.run()
    assert mgr._table == {}


def test_holders_reports_modes():
    sim, mgr, _ = make_mgr()

    def proc(sim):
        yield from mgr.acquire(1, "dir", LockMode.SHARED)
        yield from mgr.acquire(2, "dir", LockMode.SHARED)

    sim.process(proc(sim))
    sim.run()
    assert mgr.holders("dir") == {1: LockMode.SHARED, 2: LockMode.SHARED}
    assert mgr.holders("nothing") == {}


def test_lock_records_carry_the_mode_as_a_plain_str():
    """The table hands the hub its ``LockMode``; the record holds the
    bare value (what the goldens and the span export have always shown),
    for an immediate grant, a wait and a dispatched grant alike."""
    sim, mgr, trace = make_mgr()
    assert mgr.try_acquire(1, "dir", LockMode.SHARED)
    sim.process(mgr.acquire(2, "dir", LockMode.EXCLUSIVE))
    sim.run()
    mgr.release_all(1)
    sim.run()
    modes = [
        (r.category, r.detail["mode"])
        for r in trace.records
        if r.category in ("lock_grant", "lock_wait")
    ]
    assert modes == [("lock_grant", "S"), ("lock_wait", "X"), ("lock_grant", "X")]
    assert all(type(mode) is str for _category, mode in modes)
    assert str(LockMode.SHARED) == "S" and LockMode("X") is LockMode.EXCLUSIVE
