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


def test_gcs_listener_errors_are_summed_across_nodes_rejoins_and_crashes():
    from repro.gcs.jgcs import GroupConfiguration

    cluster = Cluster.build(3, seed=1)
    config = GroupConfiguration("errors-test")
    sessions = {}
    for node in cluster.nodes():
        sessions[node.node_id] = node.protocol.create_data_session(config)
        node.protocol.create_control_session(config).join()
        cluster.run_for(0.5)
    assert cluster.gcs_listener_errors() == 0

    def bad(sender, payload):
        raise RuntimeError("listener bug")

    for session in sessions.values():
        session.set_message_listener(bad)
    sessions["n1"].multicast("x")
    cluster.run_for(1.0)
    assert cluster.loop.errors == {
        "gcs.listener/n1": 1, "gcs.listener/n2": 1, "gcs.listener/n3": 1
    }
    # A crash replaces the node's protocol; a rejoin replaces the member.
    cluster.node("n2").fail()
    control = cluster.node("n3").protocol.create_control_session(config)
    control.leave()
    cluster.run_for(3.0)
    cluster.node("n3").protocol.create_control_session(config).join()
    cluster.run_for(3.0)
    assert cluster.gcs_listener_errors() == 3
