"""Failure injection at awkward moments: crashes during migrations."""

import pytest

from repro.cluster.cluster import Cluster
from repro.migration.module import MigrationModule
from repro.migration.registry import CustomerDescriptor, CustomerDirectory


def build_platform(node_count=3, seed=71):
    cluster = Cluster.build(node_count, seed=seed)
    modules = {}
    for node in cluster.nodes():
        module = MigrationModule(node)
        node.modules["migration"] = module
        module.start()
        modules[node.node_id] = module
    cluster.run_for(2.0)
    return cluster, modules


def admit(cluster, name, node_id, bundle_hint=3):
    CustomerDirectory(cluster.store, cluster.loop).put(
        CustomerDescriptor(name=name, cpu_share=0.2, bundle_count_hint=bundle_hint)
    )
    deploy = cluster.node(node_id).deploy_instance(name)
    cluster.run_until_settled([deploy])
    cluster.run_for(1.5)
    return deploy.result()


def host_of(cluster, name):
    for node in cluster.alive_nodes():
        if name in node.instance_names():
            return node.node_id
    return None


def test_target_crashes_mid_migration_instance_recovered():
    """Source stopped the instance, target dies before deploying it: the
    recovery sweep must find and redeploy the orphan."""
    cluster, modules = build_platform()
    admit(cluster, "acme", "n1")
    migration = modules["n1"].migrate("acme", "n2")
    # Crash the target while the DEPLOY is still in flight / deploying.
    cluster.run_for(0.05)
    cluster.node("n2").fail()
    cluster.run_for(30.0)
    host = host_of(cluster, "acme")
    assert host in ("n1", "n3")


def test_source_crashes_mid_migration_no_double_instance():
    """Source dies right after issuing the migration: whatever happens,
    exactly one copy of the instance survives."""
    cluster, modules = build_platform()
    admit(cluster, "acme", "n1")
    modules["n1"].migrate("acme", "n2")
    cluster.run_for(0.05)
    cluster.node("n1").fail()
    cluster.run_for(30.0)
    hosts = [
        n.node_id for n in cluster.alive_nodes() if "acme" in n.instance_names()
    ]
    assert len(hosts) == 1


def test_crash_during_evacuation_survivors_finish_the_job():
    cluster, modules = build_platform(node_count=4)
    admit(cluster, "a", "n1")
    admit(cluster, "b", "n1")
    modules["n1"].evacuate()
    cluster.run_for(0.1)
    cluster.node("n1").fail()  # dies mid-evacuation
    cluster.run_for(30.0)
    for name in ("a", "b"):
        host = host_of(cluster, name)
        assert host in ("n2", "n3", "n4"), "%s lost" % name


def test_rapid_fail_reboot_cycles_do_not_lose_instances():
    cluster, modules = build_platform(node_count=3)
    admit(cluster, "acme", "n1")
    for _ in range(3):
        victim = host_of(cluster, "acme")
        cluster.node(victim).fail()
        cluster.run_for(6.0)
        boot = cluster.node(victim).boot()
        cluster.run_until_settled([boot])
        fresh = MigrationModule(cluster.node(victim))
        cluster.node(victim).modules["migration"] = fresh
        fresh.start()
        modules[victim] = fresh
        cluster.run_for(4.0)
    cluster.run_for(15.0)
    hosts = [
        n.node_id for n in cluster.alive_nodes() if "acme" in n.instance_names()
    ]
    assert len(hosts) == 1


def test_all_but_one_node_crash_simultaneously():
    cluster, modules = build_platform(node_count=4)
    admit(cluster, "a", "n1")
    admit(cluster, "b", "n2")
    admit(cluster, "c", "n3")
    cluster.node("n1").fail()
    cluster.node("n2").fail()
    cluster.node("n3").fail()
    cluster.run_for(30.0)
    survivor = cluster.node("n4")
    assert set(survivor.instance_names()) == {"a", "b", "c"}
