"""The rebalance policy: relieve overloaded nodes."""

import pytest

from repro.autonomic.module import AutonomicModule
from repro.autonomic.policies import rebalance_policy
from repro.cluster.cluster import Cluster
from repro.migration.module import MigrationModule
from repro.migration.registry import CustomerDescriptor, CustomerDirectory
from repro.workloads.burner import CpuBurner, burner_bundle, drive_burner


def build_platform(seed=61):
    cluster = Cluster.build(2, seed=seed)
    modules, autonomics = {}, {}
    for node in cluster.nodes():
        migration = MigrationModule(node)
        node.modules["migration"] = migration
        migration.start()
        modules[node.node_id] = migration
        autonomic = AutonomicModule(node, migration)
        autonomic.add_node_policy(
            rebalance_policy(node_cpu_threshold=0.8, cooldown=3.0)
        )
        node.modules["autonomic"] = autonomic
        autonomic.start()
        autonomics[node.node_id] = autonomic
    cluster.run_for(2.0)
    return cluster, modules, autonomics


def deploy_burning(cluster, name, node_id, cpu_per_second, quota=0.6):
    CustomerDirectory(cluster.store, cluster.loop).put(
        CustomerDescriptor(name=name, cpu_share=quota)
    )
    deploy = cluster.node(node_id).deploy_instance(name)
    cluster.run_until_settled([deploy])
    instance = deploy.result()
    burner = CpuBurner(cpu_per_second=cpu_per_second)
    instance.install(burner_bundle(burner)).start()
    drive_burner(cluster.loop, burner, interval=1.0)
    return instance


def host_of(cluster, name):
    for node in cluster.alive_nodes():
        if name in node.instance_names():
            return node.node_id
    return None


def test_overloaded_node_sheds_heaviest_instance():
    cluster, modules, autonomics = build_platform()
    deploy_burning(cluster, "heavy", "n1", cpu_per_second=0.55, quota=0.6)
    deploy_burning(cluster, "light", "n1", cpu_per_second=0.35, quota=0.4)
    cluster.run_for(15.0)
    # Node at ~0.9 CPU crosses the 0.8 threshold; the heaviest moves.
    assert host_of(cluster, "heavy") == "n2"
    assert host_of(cluster, "light") == "n1"
    rebalance_actions = [
        a
        for a in autonomics["n1"].actions_log
        if a.params.get("reason") == "rebalance"
    ]
    assert rebalance_actions
    assert rebalance_actions[0].target == "heavy"


def test_no_rebalance_under_threshold():
    cluster, modules, autonomics = build_platform()
    deploy_burning(cluster, "modest", "n1", cpu_per_second=0.3, quota=0.6)
    cluster.run_for(12.0)
    assert host_of(cluster, "modest") == "n1"
    assert autonomics["n1"].actions_log == []


def test_no_rebalance_without_headroom_elsewhere():
    cluster, modules, autonomics = build_platform()
    deploy_burning(cluster, "hog1", "n1", cpu_per_second=0.9, quota=1.0)
    deploy_burning(cluster, "hog2", "n2", cpu_per_second=0.9, quota=1.0)
    cluster.run_for(12.0)
    # Both nodes are saturated: nothing can move, nothing should flap.
    assert host_of(cluster, "hog1") == "n1"
    assert host_of(cluster, "hog2") == "n2"
