"""Regression: partition_nodes()/heal() semantics and dropped_partition counting."""

import itertools

import pytest

from repro.sim.network import Network


def mailboxes(network: Network, names):
    boxes = {name: [] for name in names}
    for name in names:
        network.attach(name, boxes[name].append)
    return boxes


def exchange_all_pairs(network: Network, loop, names, tag):
    """Send one tagged message along every ordered endpoint pair."""
    for a, b in itertools.permutations(names, 2):
        network.send(a, b, "%s:%s->%s" % (tag, a, b))
    loop.run_for(1.0)


NAMES = ("a", "b", "c", "d")


def test_heal_restores_delivery_between_all_pairs(network, loop):
    boxes = mailboxes(network, NAMES)
    network.partition_nodes({"a", "b"}, {"c", "d"})
    exchange_all_pairs(network, loop, NAMES, "split")
    # Only intra-group traffic got through.
    assert [m.payload for m in boxes["a"]] == ["split:b->a"]
    assert [m.payload for m in boxes["c"]] == ["split:d->c"]

    network.heal()
    assert not network.partitioned
    exchange_all_pairs(network, loop, NAMES, "healed")
    for name in NAMES:
        senders = sorted(
            m.source for m in boxes[name] if m.payload.startswith("healed:")
        )
        assert senders == sorted(n for n in NAMES if n != name), (
            "endpoint %s unreachable from %s after heal" % (name, senders)
        )


def test_node_partition_heal_restores_all_pairs(network, loop):
    names = ["gcs/g/%s" % n for n in ("n1", "n2", "n3")]
    boxes = mailboxes(network, names)
    network.partition_nodes({"n1"}, {"n2", "n3"})
    exchange_all_pairs(network, loop, names, "split")
    assert [m.payload for m in boxes["gcs/g/n1"]] == []
    network.heal()
    exchange_all_pairs(network, loop, names, "healed")
    for name in names:
        received = [m for m in boxes[name] if m.payload.startswith("healed:")]
        assert len(received) == len(names) - 1


def test_endpoint_attached_after_the_partition_keeps_its_nodes_side(network, loop):
    """Node partitions outlive endpoint churn: an endpoint attached on n1
    after the split (a repaired node's fresh identity) is cut off from
    n2 and n3 until heal, and its cut traffic counts as dropped."""
    names = ["gcs/g/n1", "gcs/g/n2", "gcs/g/n3"]
    boxes = mailboxes(network, names)
    network.partition_nodes({"n1"}, {"n2", "n3"})
    late = "gcs/g2/n1"
    boxes.update(mailboxes(network, [late]))
    everyone = names + [late]
    exchange_all_pairs(network, loop, everyone, "split")
    assert [m.source for m in boxes[late]] == ["gcs/g/n1"]
    assert [m.source for m in boxes["gcs/g/n1"]] == [late]
    # 12 ordered pairs: n1's two endpoints and n2 <-> n3 deliver 4, the
    # 8 that cross the cut (4 of them the late endpoint's) drop.
    assert network.stats.dropped_partition == 8
    assert network.stats.delivered == 4

    network.heal()
    exchange_all_pairs(network, loop, everyone, "healed")
    for name in names:
        received = [m.source for m in boxes[name] if m.payload.startswith("healed:")]
        assert late in received, "%s unreachable from %s after heal" % (name, late)
    healed = sorted(m.source for m in boxes[late] if m.payload.startswith("healed:"))
    assert healed == names
    assert network.stats.dropped_partition == 8


def test_dropped_partition_counts_sends_into_the_wall(network, loop):
    mailboxes(network, NAMES)
    network.partition_nodes({"a", "b"}, {"c", "d"})
    exchange_all_pairs(network, loop, NAMES, "x")
    # 12 ordered pairs total, 4 intra-group ones deliver, 8 cross the cut.
    assert network.stats.dropped_partition == 8
    assert network.stats.delivered == 4
    network.heal()
    exchange_all_pairs(network, loop, NAMES, "y")
    assert network.stats.dropped_partition == 8  # unchanged after heal
    assert network.stats.delivered == 16


def test_partition_raised_mid_flight_drops_at_delivery_time(network, loop):
    boxes = mailboxes(network, ("a", "b"))
    network.send("a", "b", "doomed")
    network.partition_nodes({"a"}, {"b"})  # raised while the message is in flight
    loop.run_for(1.0)
    assert boxes["b"] == []
    assert network.stats.dropped_partition == 1
    assert network.stats.delivered == 0


def test_unlisted_endpoints_keep_talking_to_each_other(network, loop):
    boxes = mailboxes(network, ("a", "b", "x", "y"))
    network.partition_nodes({"a"}, {"b"})
    network.send("x", "y", "bystander")
    network.send("x", "a", "into-partition")
    loop.run_for(1.0)
    assert [m.payload for m in boxes["y"]] == ["bystander"]
    assert boxes["a"] == []  # partitioned endpoints are cut off from outsiders


def test_repartition_replaces_previous_layout(network, loop):
    boxes = mailboxes(network, ("a", "b", "c"))
    network.partition_nodes({"a"}, {"b", "c"})
    network.partition_nodes({"a", "b"}, {"c"})  # replaces, not accumulates
    network.send("a", "b", "now-together")
    loop.run_for(1.0)
    assert [m.payload for m in boxes["b"]] == ["now-together"]


def test_heal_is_idempotent(network):
    network.partition_nodes({"a"}, {"b"})
    network.heal()
    network.heal()
    assert not network.partitioned
