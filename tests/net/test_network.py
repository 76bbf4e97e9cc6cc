"""Unit tests for the network substrate: delivery, partitions, faults."""

import pytest

from repro.config import NetworkParams
from repro.net import Message, Network
from repro.obs import Observability
from repro.sim import Simulator


def make_net(latency=100e-6, **kwargs):
    sim = Simulator()
    obs = Observability(sim)
    net = Network(sim, NetworkParams(latency=latency, **kwargs), obs=obs)
    return sim, net, obs.trace


def test_message_delivered_with_latency():
    sim, net, _ = make_net(latency=0.001)
    a, b = net.attach("a"), net.attach("b")
    got = []

    def receiver(sim):
        msg = yield b.receive()
        got.append((sim.now, msg.kind))

    sim.process(receiver(sim))
    a.send_to("b", "PING")
    sim.run()
    assert got == [(0.001, "PING")]


def test_a_delivery_is_one_timer_running_the_destination_endpoint():
    """``send`` looks the destination up once and arms its ``deliver``:
    the arrival checks and the ``msg_recv`` record run in that frame."""
    sim, net, trace = make_net(latency=0.001)
    a, b = net.attach("a"), net.attach("b")
    a.send_to("b", "PING")
    [(due, _priority, _seq, callback, message)] = sim._heap
    assert (due, callback, message.kind) == (0.001, b.deliver, "PING")
    sim.run()
    assert [m.kind for m in b.mailbox.items] == ["PING"]
    assert [r.actor for r in trace.select("msg_recv")] == ["b"]


def test_message_reply_routes_back():
    sim, net, _ = make_net(latency=0.001)
    a, b = net.attach("a"), net.attach("b")
    got = []

    def server(sim):
        msg = yield b.receive()
        b.send_to(msg.src, "PONG", msg.txn_id, echoed=msg.payload["n"])

    def client(sim):
        a.send_to("b", "PING", n=7)
        msg = yield a.receive()
        got.append((sim.now, msg.kind, msg.payload["echoed"]))

    sim.process(server(sim))
    sim.process(client(sim))
    sim.run()
    assert got == [(pytest.approx(0.002), "PONG", 7)]


def test_foreign_message_never_reaches_the_wire_and_send_to_stamps_its_own_src():
    """An endpoint's one door is ``send_to``: it builds the message with
    this node as ``src`` and hands it to the network itself, so a
    foreign ``Message`` has no way onto the wire through an endpoint."""
    sim, net, trace = make_net()
    a, b = net.attach("a"), net.attach("b")
    assert not hasattr(a, "send")
    sent = a.send_to("b", "PING")
    assert (sent.src, sent.msg_id) == ("a", 1)
    a.send_to("b", "PING")
    sim.run()
    assert trace.count("msg_send") == 2 and len(a.mailbox) == 0
    assert [m.src for m in b.mailbox.items] == ["a", "a"]


def test_send_to_unknown_node_rejected():
    sim, net, _ = make_net()
    a = net.attach("a")
    with pytest.raises(KeyError):
        a.send_to("ghost", "PING")


def test_partition_drops_messages():
    sim, net, trace = make_net()
    a, b = net.attach("a"), net.attach("b")
    net.partition({"a"}, {"b"})
    a.send_to("b", "PING")
    sim.run()
    assert len(b.mailbox) == 0
    assert trace.count("msg_drop", reason="partitioned") == 1


def test_partition_implicit_rest_group():
    sim, net, _ = make_net()
    for n in ("a", "b", "c", "d"):
        net.attach(n)
    net.partition({"a"})
    assert not net.connected("a", "b")
    assert net.connected("c", "d")  # both in the implicit rest group
    assert net.connected("b", "c")


def test_node_attached_after_partition_joins_the_implicit_group():
    """A node named in no group is in the implicit group, whenever it
    was attached; the record still lists that group as it stood."""
    sim, net, trace = make_net(latency=0.001)
    for n in ("a", "b", "c"):
        net.attach(n)
    net.partition({"a"})
    late = net.attach("late")
    assert net.connected("late", "b") and net.connected("c", "late")
    assert not net.connected("late", "a") and not net.connected("a", "late")
    late.send_to("b", "PING")
    sim.run()
    assert [m.kind for m in net.endpoint("b").mailbox.items] == ["PING"]
    assert trace.select("net_partition")[0].get("groups") == [["a"], ["b", "c"]]


def test_partition_overlapping_groups_rejected():
    sim, net, _ = make_net()
    net.attach("a")
    net.attach("b")
    with pytest.raises(ValueError):
        net.partition({"a", "b"}, {"b"})


def test_heal_partition_restores_delivery():
    sim, net, _ = make_net(latency=0.001)
    a, b = net.attach("a"), net.attach("b")
    net.partition({"a"}, {"b"})
    net.heal_partition()
    got = []

    def receiver(sim):
        msg = yield b.receive()
        got.append(msg.kind)

    sim.process(receiver(sim))
    a.send_to("b", "PING")
    sim.run()
    assert got == ["PING"]


def test_partition_formed_in_flight_severs_message():
    sim, net, trace = make_net(latency=0.010)
    a, b = net.attach("a"), net.attach("b")
    a.send_to("b", "PING")
    # Partition forms at t=5ms, while the message is in flight.
    sim.call_at(0.005, lambda: net.partition({"a"}, {"b"}))
    sim.run()
    assert len(b.mailbox) == 0
    assert trace.count("msg_drop", reason="partitioned") == 1


def test_link_failure_drops_messages_both_ways():
    sim, net, trace = make_net()
    a, b = net.attach("a"), net.attach("b")
    net.fail_link("a", "b")
    a.send_to("b", "PING")
    b.send_to("a", "PONG")
    sim.run()
    assert len(a.mailbox) == 0 and len(b.mailbox) == 0
    assert trace.count("msg_drop") == 2
    net.restore_link("a", "b")
    assert net.connected("a", "b")


def test_failed_link_between_other_nodes_leaves_this_pair_connected():
    """The network has a fault, so ``send`` and the arrival re-check do
    ask ``connected`` — and the answer for an unaffected pair is yes."""
    sim, net, trace = make_net()
    a, b = net.attach("a"), net.attach("b")
    net.attach("c"), net.attach("d")
    net.fail_link("c", "d")
    assert net.connected("a", "b") and not net.connected("c", "d")
    a.send_to("b", "PING")
    sim.run()
    assert [m.kind for m in b.mailbox.items] == ["PING"]
    assert trace.count("msg_drop") == 0 and trace.count("msg_recv") == 1


def test_unidirectional_link_failure():
    sim, net, _ = make_net(latency=0.001)
    a, b = net.attach("a"), net.attach("b")
    net.fail_link("a", "b", bidirectional=False)
    assert not net.connected("a", "b")
    assert net.connected("b", "a")


def test_detached_receiver_drops_in_flight_message():
    sim, net, trace = make_net(latency=0.010)
    a, b = net.attach("a"), net.attach("b")
    a.send_to("b", "PING")
    sim.call_at(0.005, lambda: net.detach("b"))
    sim.run()
    assert len(b.mailbox) == 0
    assert trace.count("msg_drop", reason="receiver_down") == 1


def test_detached_sender_cannot_transmit():
    sim, net, trace = make_net()
    a, b = net.attach("a"), net.attach("b")
    net.detach("a")
    a.send_to("b", "PING")
    sim.run()
    assert len(b.mailbox) == 0
    assert trace.count("msg_drop", reason="sender_down") == 1


def test_detach_flushes_mailbox():
    sim, net, _ = make_net(latency=0.001)
    a, b = net.attach("a"), net.attach("b")
    a.send_to("b", "PING")
    sim.run()
    assert len(b.mailbox) == 1
    net.detach("b")
    assert len(b.mailbox) == 0


def test_reattach_after_detach():
    sim, net, _ = make_net(latency=0.001)
    a = net.attach("a")
    b = net.attach("b")
    net.detach("b")
    b2 = net.attach("b")
    assert b2 is b and b.attached
    a.send_to("b", "PING")
    sim.run()
    assert len(b.mailbox) == 1


def test_receive_with_predicate():
    sim, net, _ = make_net(latency=0.001)
    a, b = net.attach("a"), net.attach("b")
    got = []

    def receiver(sim):
        msg = yield b.receive(lambda m: m.kind == "WANTED")
        got.append(msg.kind)

    sim.process(receiver(sim))
    a.send_to("b", "NOISE")
    a.send_to("b", "WANTED")
    sim.run()
    assert got == ["WANTED"]


def test_byte_cost_adds_size_dependent_delay():
    sim, net, _ = make_net(latency=0.001, byte_cost=1e-6)
    a, b = net.attach("a"), net.attach("b")
    got = []

    def receiver(sim):
        yield b.receive()
        got.append(sim.now)

    sim.process(receiver(sim))
    net.send(Message(src="a", dst="b", kind="BIG", size=1000.0))
    sim.run()
    assert got == [pytest.approx(0.002)]


def test_jitter_is_deterministic_per_seed():
    def run(seed):
        from repro.sim import RngRegistry

        sim = Simulator()
        net = Network(sim, NetworkParams(latency=0.001, jitter=0.001), rng=RngRegistry(seed))
        a, b = net.attach("a"), net.attach("b")
        times = []

        def receiver(sim):
            yield b.receive()
            times.append(sim.now)

        sim.process(receiver(sim))
        a.send_to("b", "PING")
        sim.run()
        return times[0]

    assert run(1) == run(1)
    assert 0.001 <= run(1) <= 0.002


def test_trace_records_send_and_recv():
    sim, net, trace = make_net()
    a, b = net.attach("a"), net.attach("b")

    def receiver(sim):
        yield b.receive()

    sim.process(receiver(sim))
    a.send_to("b", "PING", txn_id=9)
    sim.run()
    assert trace.count("msg_send", kind="PING") == 1
    assert trace.count("msg_recv", kind="PING") == 1
    assert trace.select("msg_send")[0].get("txn") == 9


def test_nodes_listing():
    sim, net, _ = make_net()
    for n in ("b", "a", "c"):
        net.attach(n)
    assert net.nodes() == ["a", "b", "c"]
