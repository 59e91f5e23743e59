"""Node lifecycle: boot, fail, shutdown, hibernate, deploy."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.node import NodeState
from repro.osgi.errors import BundleException
from repro.vosgi.delegation import ExportPolicy


@pytest.fixture
def cluster():
    return Cluster.build(2, seed=3)


def test_boot_takes_modeled_time():
    cluster = Cluster(seed=1)
    node = cluster.add_node("n1")
    assert node.state == NodeState.OFF
    completion = node.boot()
    assert node.state == NodeState.BOOTING
    cluster.run_until_settled([completion])
    assert node.state == NodeState.ON
    assert completion.completed_at == pytest.approx(
        cluster.costs.node_boot_seconds
    )


def test_boot_brings_up_platform_bundles(cluster):
    node = cluster.node("n1")
    assert node.framework is not None
    assert node.instance_manager is not None
    assert node.monitoring is not None
    names = [b.symbolic_name for b in node.framework.bundles()]
    assert "vosgi.instance-manager" in names
    assert "monitoring.module" in names


def test_boot_from_on_rejected(cluster):
    with pytest.raises(RuntimeError):
        cluster.node("n1").boot()


def test_deploy_instance_completes_after_delay(cluster):
    node = cluster.node("n1")
    before = cluster.loop.clock.now
    completion = node.deploy_instance("acme", ExportPolicy(), bundle_count_hint=5)
    cluster.run_until_settled([completion])
    assert completion.ok
    assert completion.completed_at - before == pytest.approx(
        cluster.costs.instance_start_seconds(5)
    )
    assert "acme" in node.instance_names()


def test_deploy_on_dead_node_rejected(cluster):
    node = cluster.node("n1")
    node.fail()
    with pytest.raises(RuntimeError):
        node.deploy_instance("acme")


def test_deploy_interrupted_by_crash_fails_completion(cluster):
    node = cluster.node("n1")
    completion = node.deploy_instance("acme")
    node.fail()
    cluster.run_for(5.0)
    assert completion.done and not completion.ok


def test_undeploy_removes_instance(cluster):
    node = cluster.node("n1")
    deploy = node.deploy_instance("acme")
    cluster.run_until_settled([deploy])
    undeploy = node.undeploy_instance("acme")
    cluster.run_until_settled([undeploy])
    assert node.instance_names() == []


def test_undeploy_keeps_san_state_by_default(cluster):
    node = cluster.node("n1")
    deploy = node.deploy_instance("acme")
    cluster.run_until_settled([deploy])
    undeploy = node.undeploy_instance("acme")
    cluster.run_until_settled([undeploy])
    assert cluster.store.has_state("vosgi:acme")


def test_fail_leaves_san_state_for_survivors(cluster):
    node = cluster.node("n1")
    deploy = node.deploy_instance("acme")
    cluster.run_until_settled([deploy])
    node.fail()
    assert node.state == NodeState.FAILED
    assert cluster.store.has_state("vosgi:acme")
    other = cluster.node("n2")
    redeploy = other.deploy_instance("acme")
    cluster.run_until_settled([redeploy])
    assert "acme" in other.instance_names()


def test_fail_is_idempotent(cluster):
    node = cluster.node("n1")
    node.fail()
    node.fail()
    assert node.state == NodeState.FAILED


def test_shutdown_stops_platform(cluster):
    node = cluster.node("n1")
    completion = node.shutdown()
    assert completion.ok
    assert node.state == NodeState.OFF
    assert node.framework is None


def test_shutdown_then_reboot_restores_host_platform(cluster):
    node = cluster.node("n1")
    node.shutdown()
    boot = node.boot()
    cluster.run_until_settled([boot])
    assert node.state == NodeState.ON
    assert node.instance_manager is not None


def test_hibernate_and_wake(cluster):
    node = cluster.node("n1")
    hibernation = node.hibernate()
    cluster.run_until_settled([hibernation])
    assert node.state == NodeState.HIBERNATED
    assert node.power_watts() == node.spec.power_hibernate_watts
    wake = node.wake()
    cluster.run_until_settled([wake])
    assert node.state == NodeState.ON


def test_hibernate_requires_on(cluster):
    node = cluster.node("n1")
    node.fail()
    with pytest.raises(RuntimeError):
        node.hibernate()


def test_wake_requires_hibernated(cluster):
    with pytest.raises(RuntimeError):
        cluster.node("n1").wake()


def test_power_model_shapes(cluster):
    node = cluster.node("n1")
    on_power = node.power_watts()
    assert on_power >= node.spec.power_idle_watts
    node.fail()
    assert node.power_watts() == 0.0


def test_state_listeners_fire(cluster):
    node = cluster.node("n1")
    states = []
    node.add_state_listener(lambda n, s: states.append(s))
    node.fail()
    assert states == [NodeState.FAILED]


def test_deploy_of_a_taken_name_fails_the_completion(cluster):
    node = cluster.node("n1")
    cluster.run_until_settled([node.deploy_instance("acme")])
    again = node.deploy_instance("acme")
    cluster.run_for(5.0)
    assert again.done and not again.ok
    assert isinstance(again.error, BundleException)


def test_deploy_bug_propagates_instead_of_failing_the_completion(cluster, monkeypatch):
    node = cluster.node("n1")

    def broken(name, policy=None, quota=None):
        raise ZeroDivisionError("bug in create_instance")

    monkeypatch.setattr(node.instance_manager, "create_instance", broken)
    completion = node.deploy_instance("acme")
    with pytest.raises(ZeroDivisionError):
        cluster.run_for(5.0)
    assert not completion.done


def test_raising_state_listener_propagates(cluster):
    node = cluster.node("n1")

    def broken(_node, _state):
        raise KeyError("listener bug")

    node.add_state_listener(broken)
    with pytest.raises(KeyError):
        node.fail()
    assert node.state == NodeState.FAILED


def test_a_rejoin_after_leave_is_a_fresh_incarnation(cluster):
    node = cluster.node("n1")
    member = node.group_member("g", 1.0)
    assert node.group_member("g", 1.0) is member  # not joined yet: kept
    member.join()
    cluster.run_for(0.5)
    assert node.group_member("g", 1.0) is member  # running: kept
    member.leave()
    fresh = node.group_member("g", 1.0)
    assert fresh is not member
    assert node.group_members() == [fresh]
    # The old incarnation released the endpoint name the fresh one holds.
    assert cluster.network.endpoint(fresh.endpoint_name) is not None
    fresh.join()
    cluster.run_for(0.5)
    assert fresh.view.members == ("gcs/g/n1",)


def test_a_rejoin_within_the_leave_drain_keeps_its_endpoint(cluster):
    """The old incarnation's drain timer fires after the fresh member
    attached under the same name; it must leave that endpoint alone."""
    n1, n2 = cluster.node("n1"), cluster.node("n2")
    old = n1.group_member("g", 1.0)
    old.join()
    cluster.run_for(0.5)
    peer = n2.group_member("g", 1.0)
    peer.join()
    cluster.run_for(2.0)
    old.leave()
    fresh = n1.group_member("g", 1.0)
    fresh.join()
    cluster.run_for(1.5)  # past the old member's drain
    assert cluster.network.endpoint("gcs/g/n1") is not None
    cluster.run_for(5.0)
    assert fresh.view == peer.view
    assert set(fresh.view.members) == {"gcs/g/n1", "gcs/g/n2"}


def test_two_groups_on_one_node_get_two_members(cluster):
    node = cluster.node("n1")
    second = node.group_member("g2", 1.0)
    first = node.group_member("g1", 1.0)
    second.join()
    first.join()
    cluster.run_for(0.5)
    assert node.group_members() == [first, second]  # sorted by group
    assert first.view.members == ("gcs/g1/n1",)
    assert second.view.members == ("gcs/g2/n1",)


def test_fail_crashes_and_forgets_every_member(cluster):
    n1, n2 = cluster.node("n1"), cluster.node("n2")
    crashed = [n1.group_member(g, 0.5) for g in ("g1", "g2")]
    survivor = n2.group_member("g1", 0.5)
    for member in crashed + [survivor]:
        member.join()
        cluster.run_for(0.5)
    cluster.run_for(1.0)
    assert survivor.view.size == 2
    n1.fail()
    assert n1.group_members() == []
    assert not any(member.running for member in crashed)
    cluster.run_for(3.0)
    assert survivor.view.members == ("gcs/g1/n2",)
