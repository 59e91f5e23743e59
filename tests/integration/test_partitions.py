"""Network partitions: split views, healing, duplicate resolution."""

import pytest

from repro.cluster.cluster import Cluster
from repro.migration.module import MigrationModule
from repro.migration.registry import CustomerDescriptor, CustomerDirectory


def build_platform(node_count=4, seed=19):
    cluster = Cluster.build(node_count, seed=seed)
    modules = {}
    for node in cluster.nodes():
        module = MigrationModule(node)
        node.modules["migration"] = module
        module.start()
        modules[node.node_id] = module
    cluster.run_for(2.0)
    return cluster, modules


def partition(cluster, side_a, side_b):
    cluster.network.partition_nodes(set(side_a), set(side_b))


def test_partition_splits_views_and_heal_merges():
    cluster, modules = build_platform()
    partition(cluster, ("n1", "n2"), ("n3", "n4"))
    cluster.run_for(5.0)
    assert modules["n1"].member.view.size == 2
    assert modules["n3"].member.view.size == 2

    cluster.network.heal()
    cluster.run_for(8.0)
    views = {m.member.view for m in modules.values()}
    assert len(views) == 1
    assert list(views)[0].size == 4


def test_partition_both_sides_redeploy_then_merge_dedups():
    """The classic split-brain: both sides think the other died, both
    redeploy the customer; after healing exactly one copy survives."""
    cluster, modules = build_platform()
    CustomerDirectory(cluster.store, cluster.loop).put(
        CustomerDescriptor(name="acme", cpu_share=0.2)
    )
    deploy = cluster.node("n1").deploy_instance("acme")
    cluster.run_until_settled([deploy])
    cluster.run_for(2.0)

    # n1 (hosting acme) ends up alone; the majority side redeploys acme.
    partition(cluster, ("n1",), ("n2", "n3", "n4"))
    cluster.run_for(10.0)
    majority_hosts = [
        n.node_id
        for n in cluster.alive_nodes()
        if n.node_id != "n1" and "acme" in n.instance_names()
    ]
    assert len(majority_hosts) == 1  # majority side took over
    assert "acme" in cluster.node("n1").instance_names()  # split brain!

    cluster.network.heal()
    cluster.run_for(12.0)
    hosts = [
        n.node_id for n in cluster.alive_nodes() if "acme" in n.instance_names()
    ]
    assert len(hosts) == 1  # dedup rule resolved the brain split
    views = {m.member.view for m in modules.values()}
    assert len(views) == 1


def test_customer_keeps_running_inside_minority_partition():
    """Within its partition the customer's services never stopped — the
    SAN-based platform tolerates the split (no fencing is modelled)."""
    cluster, modules = build_platform()
    CustomerDirectory(cluster.store, cluster.loop).put(CustomerDescriptor(name="acme"))
    deploy = cluster.node("n2").deploy_instance("acme")
    cluster.run_until_settled([deploy])
    cluster.run_for(2.0)
    partition(cluster, ("n2",), ("n1", "n3", "n4"))
    cluster.run_for(10.0)
    assert "acme" in cluster.node("n2").instance_names()
