"""Unit tests for the mailbox store."""

from repro.sim import Simulator, Store


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim):
        item = yield store.get()
        got.append((item, sim.now))

    def producer(sim):
        yield sim.timeout(2.0)
        store.put("x")

    sim.process(consumer(sim))
    sim.process(producer(sim))
    sim.run()
    assert got == [("x", 2.0)]


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    store.put(1)
    store.put(2)
    got = []

    def consumer(sim):
        got.append((yield store.get()))
        got.append((yield store.get()))

    sim.process(consumer(sim))
    sim.run()
    assert got == [1, 2]


def test_store_predicate_filters_items():
    sim = Simulator()
    store = Store(sim)
    store.put("skip")
    store.put("take")
    got = []

    def consumer(sim):
        item = yield store.get(lambda x: x == "take")
        got.append(item)

    sim.process(consumer(sim))
    sim.run()
    assert got == ["take"]
    assert list(store.items) == ["skip"]


def test_store_multiple_getters_served_in_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim, tag):
        item = yield store.get()
        got.append((tag, item))

    sim.process(consumer(sim, "first"))
    sim.process(consumer(sim, "second"))
    store.put("a")
    store.put("b")
    sim.run()
    assert got == [("first", "a"), ("second", "b")]


def test_store_len():
    sim = Simulator()
    store = Store(sim)
    assert len(store) == 0
    store.put(1)
    store.put(2)
    assert len(store) == 2
