"""Cluster wiring."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.node import NodeState
from repro.cluster.spec import NodeSpec


def test_build_boots_requested_nodes():
    cluster = Cluster.build(3, seed=1)
    assert [n.node_id for n in cluster.nodes()] == ["n1", "n2", "n3"]
    assert all(n.state == NodeState.ON for n in cluster.nodes())


def test_build_without_boot():
    cluster = Cluster.build(2, seed=1, boot=False)
    assert all(n.state == NodeState.OFF for n in cluster.nodes())


def test_duplicate_node_id_rejected():
    cluster = Cluster(seed=1)
    cluster.add_node("n1")
    with pytest.raises(ValueError):
        cluster.add_node("n1")


def test_alive_nodes_excludes_failed():
    cluster = Cluster.build(3, seed=1)
    cluster.node("n2").fail()
    assert [n.node_id for n in cluster.alive_nodes()] == ["n1", "n3"]


def test_per_node_spec_override():
    cluster = Cluster(seed=1)
    big = cluster.add_node("big", spec=NodeSpec(cpu_capacity=4.0))
    assert big.spec.cpu_capacity == 4.0


def test_same_seed_same_virtual_timeline():
    a = Cluster.build(3, seed=42, jitter=0.001)
    b = Cluster.build(3, seed=42, jitter=0.001)
    assert a.loop.clock.now == b.loop.clock.now
    assert a.network.stats.as_dict() == b.network.stats.as_dict()


def test_total_power_sums_nodes():
    cluster = Cluster.build(2, seed=1)
    expected = sum(n.power_watts() for n in cluster.nodes())
    assert cluster.total_power_watts() == expected


def test_run_until_settled_timeout():
    from repro.cluster.future import Completion

    cluster = Cluster.build(1, seed=1)
    never = Completion("never")
    with pytest.raises(TimeoutError):
        cluster.run_until_settled([never], timeout=1.0)


def test_nodes_share_san():
    cluster = Cluster.build(2, seed=1)
    cluster.store.data_area("x", "y")["k"] = 1
    assert cluster.node("n2").store is cluster.store


def test_a_raising_gcs_listener_propagates_out_of_run_for():
    cluster = Cluster.build(3, seed=1)
    members = {}
    for node in cluster.nodes():
        members[node.node_id] = node.group_member("errors-test", 1.0)
        members[node.node_id].join()
        cluster.run_for(0.5)
    delivered = []

    def bad(sender, payload):
        raise RuntimeError("listener bug")

    members["n2"].message_listeners.append(bad)
    for member in members.values():
        member.message_listeners.append(lambda s, p: delivered.append(p))
    members["n1"].multicast("x")
    with pytest.raises(RuntimeError, match="listener bug"):
        cluster.run_for(1.0)
    assert members["n2"].delivered_count == 1
    assert "x" in delivered
