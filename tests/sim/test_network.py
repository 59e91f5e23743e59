"""Simulated network: delivery, FIFO links, loss, partitions."""

import pytest

from repro.sim.eventloop import EventLoop
from repro.sim.network import Network
from repro.sim.rng import RngStreams


def make_pair(network):
    inbox_a, inbox_b = [], []
    a = network.attach("a", inbox_a.append)
    b = network.attach("b", inbox_b.append)
    return a, b, inbox_a, inbox_b


def test_basic_delivery(loop, network):
    a, b, _, inbox_b = make_pair(network)
    a.send("b", {"hello": 1})
    loop.run_for(1.0)
    assert len(inbox_b) == 1
    assert inbox_b[0].payload == {"hello": 1}
    assert inbox_b[0].source == "a"


def test_latency_is_applied(loop):
    network = Network(loop, RngStreams(0), latency=0.5, jitter=0.0)
    _, b, _, inbox_b = make_pair(network)
    network.send("a", "b", "x")
    loop.run_for(0.4)
    assert inbox_b == []
    loop.run_for(0.2)
    assert len(inbox_b) == 1


def test_fifo_per_link_despite_jitter(loop):
    network = Network(loop, RngStreams(3), latency=0.01, jitter=0.05)
    a, b, _, inbox_b = make_pair(network)
    for i in range(50):
        a.send("b", i)
    loop.run_for(5.0)
    assert [m.payload for m in inbox_b] == list(range(50))


def test_duplicate_attach_rejected(loop, network):
    network.attach("x", lambda m: None)
    with pytest.raises(ValueError):
        network.attach("x", lambda m: None)


def test_message_to_unknown_endpoint_dropped(loop, network):
    a = network.attach("a", lambda m: None)
    a.send("ghost", "boo")
    loop.run_for(1.0)
    assert network.stats.dropped_dead == 1


def test_detached_endpoint_stops_receiving(loop, network):
    a, b, _, inbox_b = make_pair(network)
    a.send("b", 1)
    network.detach("b")
    loop.run_for(1.0)
    assert inbox_b == []
    assert network.stats.dropped_dead == 1


def test_loss_rate_drops_some_messages(loop):
    network = Network(loop, RngStreams(5), loss_rate=0.5)
    a, b, _, inbox_b = make_pair(network)
    for _ in range(200):
        a.send("b", "x")
    loop.run_for(5.0)
    assert 0 < len(inbox_b) < 200
    assert network.stats.dropped_loss + network.stats.delivered == 200


def test_invalid_loss_rate_rejected(loop):
    with pytest.raises(ValueError):
        Network(loop, loss_rate=1.0)
    with pytest.raises(ValueError):
        Network(loop, loss_rate=-0.1)


def test_partition_blocks_cross_group_traffic(loop, network):
    a, b, inbox_a, inbox_b = make_pair(network)
    network.partition_nodes({"a"}, {"b"})
    a.send("b", "blocked")
    loop.run_for(1.0)
    assert inbox_b == []
    assert network.stats.dropped_partition == 1


def test_partition_allows_same_group_traffic(loop, network):
    a, b, _, inbox_b = make_pair(network)
    network.partition_nodes({"a", "b"}, {"c"})
    a.send("b", "ok")
    loop.run_for(1.0)
    assert len(inbox_b) == 1


def test_heal_restores_traffic(loop, network):
    a, b, _, inbox_b = make_pair(network)
    network.partition_nodes({"a"}, {"b"})
    network.heal()
    a.send("b", "ok")
    loop.run_for(1.0)
    assert len(inbox_b) == 1


def test_partition_raised_mid_flight_kills_message(loop):
    network = Network(loop, RngStreams(0), latency=1.0, jitter=0.0)
    a, b, _, inbox_b = make_pair(network)
    a.send("b", "in-flight")
    loop.run_for(0.5)
    network.partition_nodes({"a"}, {"b"})
    loop.run_for(1.0)
    assert inbox_b == []


def test_unpartitioned_endpoints_can_still_talk(loop, network):
    a, b, _, inbox_b = make_pair(network)
    inbox_c = []
    c = network.attach("c", inbox_c.append)
    network.partition_nodes({"a"})  # only a isolated; b and c unlisted
    b.send("c", "hi")
    loop.run_for(1.0)
    assert len(inbox_c) == 1
    a.send("c", "nope")
    loop.run_for(1.0)
    assert len(inbox_c) == 1


def test_stats_track_bytes(loop, network):
    a, _, _, _ = make_pair(network)
    a.send("b", "x", size_bytes=1000)
    assert network.stats.bytes_sent == 1000


def test_endpoint_names_sorted(loop, network):
    network.attach("z", lambda m: None)
    network.attach("a", lambda m: None)
    assert network.endpoint_names() == ["a", "z"]
