"""The orphan-recovery sweep: the deterministic mode's safety net."""

import pytest

from repro.cluster.cluster import Cluster
from repro.migration.module import MigrationModule
from repro.migration.registry import CustomerDescriptor, CustomerDirectory


def build_platform(node_count=3, seed=51):
    cluster = Cluster.build(node_count, seed=seed)
    modules = {}
    for node in cluster.nodes():
        module = MigrationModule(node)
        node.modules["migration"] = module
        module.start()
        modules[node.node_id] = module
    cluster.run_for(3.0)  # views + inventories settle
    return cluster, modules


def host_of(cluster, name):
    for node in cluster.alive_nodes():
        if name in node.instance_names():
            return node.node_id
    return None


def test_sweep_recovers_instance_dropped_outside_the_protocol():
    """Simulate the divergence case directly: an instance's SAN state
    exists and its descriptor says active, but nobody hosts it and no
    failure event will ever fire for it."""
    cluster, modules = build_platform()
    directory = CustomerDirectory(cluster.store, cluster.loop)
    directory.put(CustomerDescriptor(name="lost", cpu_share=0.2))
    # Materialize SAN state without any deployment event reaching the
    # migration layer: deploy then silently destroy behind its back.
    deploy = cluster.node("n2").deploy_instance("lost")
    cluster.run_until_settled([deploy])
    cluster.node("n2").instance_manager.destroy_instance("lost")
    cluster.run_for(8.0)
    assert host_of(cluster, "lost") is not None
    recovery_records = [
        r
        for m in modules.values()
        for r in m.records
        if r.instance == "lost" and r.reason == "recovery"
    ]
    assert recovery_records


def test_sweep_respects_deliberate_stops():
    cluster, modules = build_platform()
    directory = CustomerDirectory(cluster.store, cluster.loop)
    descriptor = CustomerDescriptor(name="parked", cpu_share=0.2, active=False)
    directory.put(descriptor)
    deploy = cluster.node("n2").deploy_instance("parked")
    cluster.run_until_settled([deploy])
    undeploy = cluster.node("n2").undeploy_instance("parked")
    cluster.run_until_settled([undeploy])
    cluster.run_for(10.0)
    assert host_of(cluster, "parked") is None


def test_sweep_ignores_customers_without_san_state():
    cluster, modules = build_platform()
    CustomerDirectory(cluster.store, cluster.loop).put(
        CustomerDescriptor(name="never-ran")
    )
    cluster.run_for(10.0)
    assert host_of(cluster, "never-ran") is None


def test_sweep_retries_unplaced_when_capacity_returns():
    """Capacity shortage parks an instance; the sweep redeploys it once a
    node frees up — the recovery half of graceful degradation."""
    cluster, modules = build_platform(node_count=2)
    directory = CustomerDirectory(cluster.store, cluster.loop)
    directory.put(CustomerDescriptor(name="big-a", cpu_share=0.9))
    directory.put(CustomerDescriptor(name="big-b", cpu_share=0.9))
    for name, node in (("big-a", "n1"), ("big-b", "n2")):
        deploy = cluster.node(node).deploy_instance(name)
        cluster.run_until_settled([deploy])
    cluster.run_for(2.0)
    cluster.node("n2").fail()
    cluster.run_for(8.0)
    assert host_of(cluster, "big-b") is None  # no capacity on n1

    # Capacity returns: reboot n2 with a fresh platform + module.
    boot = cluster.node("n2").boot()
    cluster.run_until_settled([boot])
    fresh = MigrationModule(cluster.node("n2"))
    cluster.node("n2").modules["migration"] = fresh
    fresh.start()
    cluster.run_for(15.0)
    assert host_of(cluster, "big-b") == "n2"


def test_non_coordinator_never_sweeps():
    cluster, modules = build_platform()
    CustomerDirectory(cluster.store, cluster.loop).put(CustomerDescriptor(name="x"))
    cluster.store.save_state(
        "vosgi:x", cluster.store.load_state("host:n1").__class__()
    )
    cluster.run_for(6.0)
    # only the coordinator's module may have records; n2/n3 must not have
    # initiated anything on their own.
    for node_id in ("n2", "n3"):
        own_recoveries = [
            r
            for r in modules[node_id].records
            if r.reason == "recovery" and r.from_node == "?"
        ]
        # they may *execute* a DEPLOY the coordinator sent them, but the
        # strikes dict stays empty on non-coordinators
        assert modules[node_id]._orphan_strikes == {}
