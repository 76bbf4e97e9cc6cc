"""`Endpoint.serve`: the serial FIFO message server behind every node."""

from repro.config import NetworkParams
from repro.net import Network
from repro.sim import Simulator

COST = 0.00038  # the calibrated msg_processing_latency: not a binary fraction
HOP = 0.001


def make(free=()):
    sim = Simulator()
    net = Network(sim, NetworkParams(latency=HOP))
    sender, server = net.attach("client"), net.attach("mds1")
    handled = []
    server.serve(lambda msg: handled.append((msg.kind, sim.now)), COST, free=free)
    return sim, net, sender, server, handled


def old_dispatch_loop_times(kinds, free=()):
    """Handling times of the dispatcher *process* ``serve`` replaced
    (mailbox get, then a ``Timeout`` per costed message), for the same
    same-instant backlog."""
    sim = Simulator()
    net = Network(sim, NetworkParams(latency=HOP))
    sender, server = net.attach("client"), net.attach("mds1")
    handled = []

    def loop():
        while True:
            msg = yield server.receive()
            if msg.kind not in free:
                yield sim.timeout(COST)
            handled.append((msg.kind, sim.now))

    sim.process(loop())
    for kind in kinds:
        sender.send_to("mds1", kind)
    sim.run()
    return handled


def test_messages_are_handled_in_arrival_order():
    sim, _net, sender, _server, handled = make()
    for kind in ("A", "B", "C", "D"):
        sender.send_to("mds1", kind)
    sim.run()
    assert [kind for kind, _t in handled] == ["A", "B", "C", "D"]


def test_backlog_of_k_is_served_at_t_plus_k_costs_with_the_old_loops_floats():
    kinds = [f"M{i}" for i in range(7)]
    sim, _net, sender, _server, handled = make()
    for kind in kinds:
        sender.send_to("mds1", kind)
    sim.run()
    t, expected = HOP, []
    for kind in kinds:
        t = t + COST  # repeated addition, as the kernel computes each due time
        expected.append((kind, t))
    assert handled == expected
    assert handled == old_dispatch_loop_times(kinds)


def test_serving_needs_one_kernel_event_per_message_beyond_delivery():
    sim, _net, sender, _server, _handled = make()
    for _ in range(5):
        sender.send_to("mds1", "M")
    sim.run()
    assert sim.events_processed == 5 + 5  # delivery timers + service timers


def test_free_kinds_cost_nothing_but_cannot_overtake():
    kinds = ["WORK", "HEARTBEAT", "WORK", "HEARTBEAT", "HEARTBEAT"]
    sim, _net, sender, _server, handled = make(free=("HEARTBEAT",))
    for kind in kinds:
        sender.send_to("mds1", kind)
    sim.run()
    first, second = HOP + COST, HOP + COST + COST
    assert handled == [
        ("WORK", first),
        ("HEARTBEAT", first),  # waited for the message in service, then free
        ("WORK", second),
        ("HEARTBEAT", second),
        ("HEARTBEAT", second),
    ]
    assert handled == old_dispatch_loop_times(kinds, free=("HEARTBEAT",))


def test_free_message_at_an_idle_server_is_handled_in_its_arrival_instant():
    sim, _net, sender, _server, handled = make(free=("HEARTBEAT",))
    sender.send_to("mds1", "HEARTBEAT")
    sim.run()
    assert handled == [("HEARTBEAT", HOP)]


def test_flush_drops_the_backlog_and_the_message_in_service():
    sim, net, sender, server, handled = make()
    for kind in ("IN-SERVICE", "QUEUED", "QUEUED"):
        sender.send_to("mds1", kind)
    sim.run(until=HOP + COST / 2)
    net.detach("mds1")  # node crash: Endpoint.flush()
    sim.run()
    assert handled == []
    assert server._in_service is None and not server._backlog


def test_restarted_node_serves_again_and_the_stale_timer_serves_nothing():
    sim, net, sender, _server, handled = make()
    sender.send_to("mds1", "LOST")
    sim.run(until=HOP + COST / 2)
    net.detach("mds1")
    net.attach("mds1")
    # Arrives while the pre-crash service timer is still armed.
    sender.send_to("mds1", "AFTER-RESTART")
    sim.run()
    arrival = HOP + COST / 2 + HOP
    assert handled == [("AFTER-RESTART", arrival + COST)]


def test_unserved_endpoint_still_fills_its_mailbox():
    sim = Simulator()
    net = Network(sim, NetworkParams(latency=HOP))
    sender, receiver = net.attach("a"), net.attach("b")
    sender.send_to("b", "PING")
    sim.run()
    assert [m.kind for m in receiver.mailbox.items] == ["PING"]
