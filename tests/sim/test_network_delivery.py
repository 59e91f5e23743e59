"""Message delivery: each delivered message is its own event.

Every message that survives the send-time partition and loss tests is
one transient event on the loop, so ordering is the loop's strict
``(time, seq)``: messages due at the same instant are delivered in send
order, whatever links they travel, and a later message on a link never
overtakes an earlier one.
"""

from repro.sim.eventloop import EventLoop
from repro.sim.network import Network
from repro.sim.rng import RngStreams


def make_net(latency=0.01, jitter=0.0):
    loop = EventLoop()
    net = Network(loop, RngStreams(0), latency=latency, jitter=jitter)
    return loop, net


def test_one_event_per_delivered_message():
    loop, net = make_net()
    inbox = []
    for name in ("a", "b", "c"):
        net.attach(name, lambda m: inbox.append((m.destination, m.payload)))
    fired_before = loop.fired
    # Three links, same send instant, zero jitter: three events.
    net.send("a", "b", 1)
    net.send("a", "c", 2)
    net.send("b", "c", 3)
    net.send_all("c", ("a", "b"), 4)
    assert loop.pending == 5
    loop.run_for(1.0)
    assert inbox == [("b", 1), ("c", 2), ("c", 3), ("a", 4), ("b", 4)]
    assert loop.fired - fired_before == net.stats.delivered == 5


def test_timer_between_two_sends_fires_between_their_deliveries():
    """A timer scheduled between two sends due at its instant fires
    between their deliveries."""
    loop, net = make_net()
    order = []
    net.attach("a", lambda m: None)
    net.attach("b", lambda m: order.append("msg-b:%s" % m.payload))
    net.attach("c", lambda m: order.append("msg-c:%s" % m.payload))
    net.send("a", "b", 1)
    loop.call_at(0.01, lambda: order.append("timer"))
    net.send("a", "c", 2)
    loop.run_for(1.0)
    assert order == ["msg-b:1", "timer", "msg-c:2"]


def test_fifo_per_link_held_under_backpressure():
    loop, net = make_net(latency=0.01, jitter=0.005)
    seen = []
    net.attach("src", lambda m: None)
    net.attach("dst", lambda m: seen.append((loop.clock.now, m.payload)))
    for i in range(50):
        net.send("src", "dst", i)
    loop.run_for(5.0)
    assert [payload for _, payload in seen] == list(range(50))
    times = [when for when, _ in seen]
    assert times == sorted(times)
    # Jitter drew some later message an earlier instant than its
    # predecessor's, so the clamp put the two on one instant.
    assert len(set(times)) < len(times)


def test_clamped_message_stays_behind_its_link_predecessor():
    """A message clamped to its link's last delivery instant arrives
    right behind its predecessor on the link, after the messages of
    another link that fall due before that instant."""
    loop, net = make_net(latency=0.01)
    seen = []
    for name in ("a", "b", "c"):
        net.attach(name, lambda m: seen.append((m.source, m.payload)))
    net.set_node_latency("b", 0.02)
    net.send("a", "b", "slow")  # due at 0.03
    net.clear_node_latency("b")
    net.send("c", "b", "other")  # due at 0.01
    net.send("a", "b", "clamped")  # due at 0.01, clamped to 0.03
    net.send("c", "b", "late")  # due at 0.01
    loop.run_for(1.0)
    assert seen == [("c", "other"), ("c", "late"), ("a", "slow"), ("a", "clamped")]


def test_same_instant_deliveries_arrive_in_send_order():
    """Round-robin sends across many links at one instant, jitter 0:
    every delivery is due at the same instant, and they arrive in the
    order they were sent, not grouped by link."""
    loop, net = make_net(latency=0.02, jitter=0.0)
    seen = []
    net.attach("hub", lambda m: None)
    for i in range(5):
        name = "n%d" % i
        net.attach(name, lambda m, name=name: seen.append((name, m.payload)))
    for round_no in range(3):
        for i in range(5):
            net.send("hub", "n%d" % i, round_no)
    loop.run_for(1.0)
    assert seen == [("n%d" % i, r) for r in range(3) for i in range(5)]


def test_sends_from_handler_at_delivery_instant():
    """A handler sending at latency 0 schedules at the current instant;
    the reply still arrives, after the message that caused it and
    before a message sent later."""
    loop, net = make_net(latency=0.0, jitter=0.0)
    seen = []

    def relay(message):
        seen.append("b:%s" % message.payload)
        if message.payload == "ping":
            net.send("b", "c", "pong")

    net.attach("a", lambda m: None)
    net.attach("b", relay)
    net.attach("c", lambda m: seen.append("c:%s" % m.payload))
    net.send("a", "b", "ping")
    net.send("a", "b", "next")
    loop.run_for(1.0)
    assert seen == ["b:ping", "b:next", "c:pong"]
    assert net.stats.delivered == 3


def test_partition_raised_in_flight_drops_the_message():
    """A partition raised while a message is in flight drops it."""
    loop, net = make_net()
    seen = []
    net.attach("a", lambda m: None)
    net.attach("b", lambda m: seen.append(m.payload))
    net.attach("c", lambda m: seen.append(m.payload))
    net.send("a", "b", 1)
    net.send("a", "c", 2)
    net.partition_nodes({"a", "b"}, {"c"})
    loop.run_for(1.0)
    assert seen == [1]
    assert net.stats.dropped_partition == 1
    assert net.stats.delivered == 1


def test_detached_endpoint_drops_the_message_in_flight():
    loop, net = make_net()
    seen = []
    net.attach("a", lambda m: None)
    net.attach("b", lambda m: seen.append(m.payload))
    net.send("a", "b", 1)
    net.detach("b")
    net.send("a", "b", 2)  # to a name nobody holds
    loop.run_for(1.0)
    assert seen == []
    assert net.stats.dropped_dead == 2
    assert net.stats.delivered == 0
