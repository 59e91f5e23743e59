"""Autonomic Module end-to-end on a small platform."""

import pytest

from repro.autonomic.module import AutonomicModule
from repro.autonomic.policies import consolidation_policy, sla_enforcement_policy
from repro.autonomic.serpentine import Action
from repro.cluster.cluster import Cluster
from repro.cluster.node import NodeState
from repro.migration.module import MigrationModule
from repro.migration.registry import CustomerDescriptor, CustomerDirectory
from repro.osgi.definition import simple_bundle

from tests.conftest import RecordingActivator


def build_platform(node_count=3, seed=11, monitoring_interval=1.0):
    cluster = Cluster.build(
        node_count, seed=seed, monitoring_interval=monitoring_interval
    )
    migrations, autonomics = {}, {}
    for node in cluster.nodes():
        migration = MigrationModule(node)
        node.modules["migration"] = migration
        migration.start()
        migrations[node.node_id] = migration
        autonomic = AutonomicModule(node, migration)
        node.modules["autonomic"] = autonomic
        autonomic.start()
        autonomics[node.node_id] = autonomic
    cluster.run_for(2.0)
    return cluster, migrations, autonomics


def deploy_hog(cluster, node_id, name="hog", cpu_share=0.2, burn_per_second=0.6):
    """Deploy an instance whose worker bundle burns CPU beyond its quota."""
    descriptor = CustomerDescriptor(name=name, cpu_share=cpu_share)
    CustomerDirectory(cluster.store, cluster.loop).put(descriptor)
    deploy = cluster.node(node_id).deploy_instance(
        name, policy=descriptor.policy(), quota=descriptor.quota()
    )
    cluster.run_until_settled([deploy])
    instance = deploy.result()
    activator = RecordingActivator()
    instance.install(
        simple_bundle("worker", activator_factory=lambda: activator)
    ).start()

    def burn():
        if activator.context is not None:
            try:
                activator.context.account(cpu=burn_per_second)
            except Exception:
                return  # stopped/migrated
        cluster.loop.call_after(1.0, burn)

    cluster.loop.call_after(1.0, burn)
    return instance


def host_of(cluster, name):
    for node in cluster.alive_nodes():
        if name in node.instance_names():
            return node.node_id
    return None


class TestSlaEnforcement:
    def test_stop_action_removes_misbehaving_instance(self):
        cluster, migrations, autonomics = build_platform()
        host = "n1"
        deploy_hog(cluster, host)
        autonomics[host].add_node_policy(
            sla_enforcement_policy(grace_violations=2, action_kind="stop-instance")
        )
        cluster.run_for(10.0)
        assert host_of(cluster, "hog") is None
        stop_actions = [
            a for a in autonomics[host].actions_log if a.kind == "stop-instance"
        ]
        assert stop_actions

    def test_migrate_action_moves_instance(self):
        cluster, migrations, autonomics = build_platform()
        deploy_hog(cluster, "n1")
        autonomics["n1"].add_node_policy(
            sla_enforcement_policy(grace_violations=2, action_kind="migrate")
        )
        cluster.run_for(12.0)
        new_host = host_of(cluster, "hog")
        assert new_host in ("n2", "n3")

    def test_throttle_action_lowers_priority(self):
        cluster, migrations, autonomics = build_platform()
        deploy_hog(cluster, "n1")
        autonomics["n1"].add_node_policy(
            sla_enforcement_policy(grace_violations=2, action_kind="throttle")
        )
        cluster.run_for(8.0)
        assert "hog" in autonomics["n1"].throttled
        descriptor = migrations["n1"].customers.get("hog")
        assert descriptor.priority < 0

    def test_compliant_instance_left_alone(self):
        cluster, migrations, autonomics = build_platform()
        deploy_hog(cluster, "n1", cpu_share=0.9, burn_per_second=0.1)
        autonomics["n1"].add_node_policy(
            sla_enforcement_policy(grace_violations=2, action_kind="stop-instance")
        )
        cluster.run_for(10.0)
        assert host_of(cluster, "hog") == "n1"
        assert autonomics["n1"].actions_log == []


class TestClusterHierarchy:
    def test_cluster_tick_fires_only_on_coordinator(self):
        cluster, migrations, autonomics = build_platform()
        fired = []
        from repro.autonomic.serpentine import Policy

        for node_id, autonomic in autonomics.items():
            autonomic.add_cluster_policy(
                Policy(
                    "spy",
                    lambda e, c: e.type == "cluster-tick",
                    lambda e, c, node_id=node_id: (fired.append(node_id), [])[1],
                )
            )
        cluster.run_for(6.0)
        assert set(fired) == {"n1"}  # lowest id is coordinator

    def test_consolidation_hibernate_empty_node(self):
        cluster, migrations, autonomics = build_platform()
        # one idle customer on n1, nothing anywhere else
        CustomerDirectory(cluster.store, cluster.loop).put(
            CustomerDescriptor(name="idle", cpu_share=0.1)
        )
        deploy = cluster.node("n1").deploy_instance("idle")
        cluster.run_until_settled([deploy])
        autonomics["n1"].add_cluster_policy(
            consolidation_policy(cluster_cpu_threshold=0.5, min_nodes=1, cooldown=5.0)
        )
        cluster.run_for(20.0)
        hibernated = [
            n.node_id for n in cluster.nodes() if n.state == NodeState.HIBERNATED
        ]
        assert len(hibernated) >= 1
        assert "n1" not in hibernated  # it hosts the customer
        assert host_of(cluster, "idle") == "n1"

    def test_hibernate_refused_while_hosting(self):
        cluster, migrations, autonomics = build_platform()
        CustomerDirectory(cluster.store, cluster.loop).put(CustomerDescriptor(name="c"))
        deploy = cluster.node("n2").deploy_instance("c")
        cluster.run_until_settled([deploy])
        assert autonomics["n2"]._cmd_hibernate({}) is False
        assert cluster.node("n2").state == NodeState.ON


def test_stop_detaches_listeners():
    cluster, migrations, autonomics = build_platform()
    module = autonomics["n1"]
    module.stop()
    deploy_hog(cluster, "n1")
    module.add_node_policy(
        sla_enforcement_policy(grace_violations=1, action_kind="stop-instance")
    )
    cluster.run_for(6.0)
    assert module.actions_log == []


class TestWakeAction:
    def test_refused_without_a_wake_agent(self):
        cluster, migrations, autonomics = build_platform()
        module = autonomics["n1"]
        assert module._execute(Action("wake-node", "n2"), module.context) is False

    def test_the_wake_agent_is_called_with_the_target(self):
        cluster, migrations, autonomics = build_platform()
        module = autonomics["n1"]
        woken = []
        module.context.facilities["wake_agent"] = woken.append
        assert module._execute(Action("wake-node", "n2"), module.context) is True
        assert woken == ["n2"]

    def test_a_raising_wake_agent_propagates(self):
        cluster, migrations, autonomics = build_platform()
        module = autonomics["n1"]

        def wake_agent(node_id):
            raise KeyError(node_id)

        module.context.facilities["wake_agent"] = wake_agent
        with pytest.raises(KeyError, match="n9"):
            module._execute(Action("wake-node", "n9"), module.context)
