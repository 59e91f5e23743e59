"""Per-tick delivery coalescing must not change observable order."""

from repro.sim.eventloop import EventLoop
from repro.sim.network import Network
from repro.sim.rng import RngStreams


def make_net(latency=0.01, jitter=0.0):
    loop = EventLoop()
    net = Network(loop, RngStreams(0), latency=latency, jitter=jitter)
    return loop, net


def test_same_instant_sends_coalesce_into_one_event():
    loop, net = make_net()
    inbox = []
    for name in ("a", "b", "c"):
        net.attach(name, lambda m: inbox.append((m.destination, m.payload)))
    fired_before = loop.fired
    # Three links, same send instant, zero jitter -> one delivery tick.
    net.send("a", "b", 1)
    net.send("a", "c", 2)
    net.send("b", "c", 3)
    loop.run_for(1.0)
    assert inbox == [("b", 1), ("c", 2), ("c", 3)]
    assert loop.fired - fired_before == 1


def test_interleaved_scheduling_defeats_merge_but_keeps_order():
    """If anything else is scheduled between sends, batches must NOT
    merge (a merged tick would fire ahead of the interleaved event)."""
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
    net.attach("dst", lambda m: seen.append(m.payload))
    for i in range(50):
        net.send("src", "dst", i)
    loop.run_for(5.0)
    assert seen == list(range(50))


def test_sends_from_handler_at_delivery_instant():
    """A handler sending during a tick opens a fresh batch/tick; the
    relayed message still arrives, in order."""
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
    loop.run_for(1.0)
    assert seen == ["b:ping", "c:pong"]


def test_partition_checked_at_delivery_even_when_coalesced():
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


def test_coalescing_preserves_cross_link_batch_order():
    """Round-robin sends across many links at one instant: each link's
    batch rides the tick in first-send order — exactly the order the
    per-batch events would have fired pre-coalescing (their seqs were
    assigned at each link's first send)."""
    loop, net = make_net(latency=0.02, jitter=0.0)
    seen = []
    net.attach("hub", lambda m: None)
    for i in range(5):
        name = "n%d" % i
        net.attach(
            name, lambda m, name=name: seen.append((name, m.payload))
        )
    for round_no in range(3):
        for i in range(5):
            net.send("hub", "n%d" % i, round_no)
    loop.run_for(1.0)
    expected = []
    for i in range(5):
        for round_no in range(3):
            expected.append(("n%d" % i, round_no))
    assert seen == expected
