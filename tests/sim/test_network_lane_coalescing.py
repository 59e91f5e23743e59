"""Network tick coalescing must be lane-local on the laned scheduler.

The coalescing guard keys off the loop's global ``scheduled`` counter
("nothing else went in between"), which proves *order* preservation but
says nothing about *ownership*: two same-instant batches bound for
different nodes live in different lanes, and merging them would execute
one lane's deliveries inside another lane's event. The regression case
pinned here: consecutive same-instant sends to nodes in different lanes
satisfy the sequence-counter guard and would merge without the
lane-equality check.
"""

from __future__ import annotations

from repro.sim.clock import Clock
from repro.sim.eventloop import EventLoop
from repro.sim.lanes import LanedEventLoop
from repro.sim.network import Network
from repro.sim.rng import RngStreams


def _quiet_network(loop):
    return Network(loop, RngStreams(7), latency=0.001, jitter=0.0, loss_rate=0.0)


def test_cross_lane_sends_do_not_share_a_tick_event():
    """The merge-defeat case: same instant, same seq-guard, different
    destination lanes — the laned guard must open a second tick."""
    loop = LanedEventLoop(Clock())
    l1 = loop.register_lane("n1")
    l2 = loop.register_lane("n2")
    network = _quiet_network(loop)
    fired_in = []
    network.attach("src", lambda m: None)
    network.attach("n1", lambda m: fired_in.append(("n1", loop.executing_lane)))
    network.attach("n2", lambda m: fired_in.append(("n2", loop.executing_lane)))

    before = loop.scheduled
    network.send("src", "n1", "a")
    network.send("src", "n2", "b")  # nothing scheduled in between
    # Two delivery events, not one merged tick.
    assert loop.scheduled - before == 2
    loop.run_until(1.0)
    # Each delivery executed in the lane owning its destination node.
    assert fired_in == [("n1", l1), ("n2", l2)]


def test_same_lane_sends_still_coalesce():
    """Lane-locality must not defeat the optimisation inside one lane:
    two endpoints of the same node share the node's lane and the tick."""
    loop = LanedEventLoop(Clock())
    l1 = loop.register_lane("n1")
    network = _quiet_network(loop)
    order = []
    network.attach("src", lambda m: None)
    network.attach("svc/n1", lambda m: order.append(("svc", loop.executing_lane)))
    network.attach("app/n1", lambda m: order.append(("app", loop.executing_lane)))

    before = loop.scheduled
    network.send("src", "svc/n1", "a")
    network.send("src", "app/n1", "b")
    # One merged tick event for both links.
    assert loop.scheduled - before == 1
    loop.run_until(1.0)
    assert order == [("svc", l1), ("app", l1)]


def test_global_scheduler_keeps_merging_across_nodes():
    """On the global loop every node is lane 0; the guard is unchanged."""
    loop = EventLoop(Clock())
    network = _quiet_network(loop)
    seen = []
    network.attach("src", lambda m: None)
    network.attach("n1", lambda m: seen.append("n1"))
    network.attach("n2", lambda m: seen.append("n2"))

    before = loop.scheduled
    network.send("src", "n1", "a")
    network.send("src", "n2", "b")
    assert loop.scheduled - before == 1
    loop.run_until(1.0)
    assert seen == ["n1", "n2"]


def test_interleaved_lane_sends_match_global_delivery_order():
    """n1->n2->n1 same-instant sends: the laned loop defeats the tick
    merge (two lanes) but message 3 still piggybacks on link src->n1's
    open batch, exactly as on the global loop. Delivery order — FIFO per
    link, batch-grouped across links — must match byte for byte."""

    def run(loop):
        loop.register_lane("n1")
        loop.register_lane("n2")
        network = _quiet_network(loop)
        order = []
        network.attach("src", lambda m: None)
        network.attach("n1", lambda m: order.append(m.payload))
        network.attach("n2", lambda m: order.append(m.payload))
        network.send("src", "n1", 1)
        network.send("src", "n2", 2)
        network.send("src", "n1", 3)
        loop.run_until(1.0)
        return order

    global_order = run(EventLoop(Clock()))
    laned_order = run(LanedEventLoop(Clock()))
    assert laned_order == global_order
    # Per-link FIFO held: 3 never overtakes 1 on the src->n1 link.
    assert laned_order.index(1) < laned_order.index(3)
