"""Migration Module: gossip, planned migration, failure redeployment."""

import pytest

from repro.cluster.cluster import Cluster
from repro.migration.module import MigrationModule, PLATFORM_GROUP
from repro.migration.registry import CustomerDescriptor, CustomerDirectory


def build_platform(node_count=3, seed=7, coordination="deterministic", **kwargs):
    cluster = Cluster.build(node_count, seed=seed)
    modules = {}
    for node in cluster.nodes():
        module = MigrationModule(node, coordination=coordination, **kwargs)
        node.modules["migration"] = module
        module.start()
        modules[node.node_id] = module
    cluster.run_for(2.0)
    return cluster, modules


def admit(cluster, modules, name, node_id, cpu_share=0.2, bundle_count_hint=0):
    CustomerDirectory(cluster.store, cluster.loop).put(
        CustomerDescriptor(
            name=name, cpu_share=cpu_share, bundle_count_hint=bundle_count_hint
        )
    )
    deploy = cluster.node(node_id).deploy_instance(name)
    cluster.run_until_settled([deploy])
    cluster.run_for(1.5)  # inventory propagation
    return deploy.result()


def host_of(cluster, name):
    for node in cluster.alive_nodes():
        if name in node.instance_names():
            return node.node_id
    return None


class TestGossip:
    def test_all_modules_join_platform_group(self):
        cluster, modules = build_platform()
        views = {m.control.current_view for m in modules.values()}
        assert len(views) == 1
        assert list(views)[0].size == 3

    def test_inventories_propagate(self):
        cluster, modules = build_platform()
        admit(cluster, modules, "acme", "n1")
        assert modules["n3"].inventory.instances_on("n1") == ["acme"]
        assert modules["n2"].inventory.locate("acme") == "n1"

    def test_inventories_carry_resources(self):
        cluster, modules = build_platform()
        cluster.run_for(2.0)
        inventory = modules["n1"].inventory.get("n2")
        assert inventory is not None
        assert "cpu_capacity" in inventory.resources


class TestGossipDuplicateResolution:
    """Two hosts of one instance: the inventory round leaves it on the
    lexicographically smaller node id, whichever side hears first."""

    def test_larger_node_id_stands_down(self):
        cluster, modules = build_platform()
        admit(cluster, modules, "acme", "n1")
        cluster.run_until_settled([cluster.node("n3").deploy_instance("acme")])
        cluster.run_for(2.0)
        assert host_of(cluster, "acme") == "n1"
        assert "acme" not in cluster.node("n3").instance_names()
        assert modules["n3"].duplicate_deploys == 1
        assert modules["n1"].duplicate_deploys == 0

    def test_sole_host_keeps_its_instance_through_empty_inventories(self):
        cluster, modules = build_platform()
        admit(cluster, modules, "acme", "n3")
        cluster.run_for(2.0)
        assert host_of(cluster, "acme") == "n3"
        assert sum(m.duplicate_deploys for m in modules.values()) == 0


class TestPlannedMigration:
    def test_migrate_moves_instance(self):
        cluster, modules = build_platform()
        admit(cluster, modules, "acme", "n1")
        migration = modules["n1"].migrate("acme", "n2")
        cluster.run_until_settled([migration], timeout=40)
        assert host_of(cluster, "acme") == "n2"
        record = migration.result()
        assert record.reason == "planned"
        assert record.downtime is not None and record.downtime > 0

    def test_migrate_to_self_allowed(self):
        cluster, modules = build_platform()
        admit(cluster, modules, "acme", "n1")
        migration = modules["n1"].migrate("acme", "n1")
        cluster.run_until_settled([migration], timeout=40)
        assert host_of(cluster, "acme") == "n1"

    def test_migrate_unhosted_instance_rejected(self):
        cluster, modules = build_platform()
        with pytest.raises(ValueError):
            modules["n1"].migrate("ghost", "n2")

    def test_migration_preserves_stateful_data(self):
        cluster, modules = build_platform()
        admit(cluster, modules, "acme", "n1")
        cluster.store.data_area("vosgi:acme", "app")["counter"] = 41
        migration = modules["n1"].migrate("acme", "n3")
        cluster.run_until_settled([migration], timeout=40)
        assert cluster.store.data_area("vosgi:acme", "app")["counter"] == 41


class TestFailureRedeployment:
    def test_orphans_redeployed_on_survivors(self):
        cluster, modules = build_platform()
        admit(cluster, modules, "acme", "n1")
        admit(cluster, modules, "globex", "n1")
        cluster.node("n1").fail()
        cluster.run_for(6.0)
        assert host_of(cluster, "acme") in ("n2", "n3")
        assert host_of(cluster, "globex") in ("n2", "n3")

    def test_no_duplicate_deployments_deterministic_mode(self):
        cluster, modules = build_platform()
        admit(cluster, modules, "acme", "n1")
        cluster.node("n1").fail()
        cluster.run_for(6.0)
        hosts = [
            n.node_id
            for n in cluster.alive_nodes()
            if "acme" in n.instance_names()
        ]
        assert len(hosts) == 1

    def test_sequencer_mode_redeploys_too(self):
        cluster, modules = build_platform(coordination="sequencer")
        admit(cluster, modules, "acme", "n2")
        cluster.node("n2").fail()
        cluster.run_for(6.0)
        assert host_of(cluster, "acme") in ("n1", "n3")

    def test_failure_record_reason_and_downtime(self):
        cluster, modules = build_platform()
        admit(cluster, modules, "acme", "n1")
        cluster.node("n1").fail()
        cluster.run_for(6.0)
        records = [
            r
            for m in modules.values()
            for r in m.records
            if r.reason == "failure" and r.completed
        ]
        assert len(records) == 1
        assert records[0].from_node == "n1"
        assert records[0].downtime > 0

    def test_multiple_simultaneous_failures(self):
        cluster, modules = build_platform(node_count=4)
        admit(cluster, modules, "a", "n1")
        admit(cluster, modules, "b", "n2")
        cluster.node("n1").fail()
        cluster.node("n2").fail()
        cluster.run_for(8.0)
        assert host_of(cluster, "a") in ("n3", "n4")
        assert host_of(cluster, "b") in ("n3", "n4")

    def test_cascading_failures_graceful_degradation(self):
        cluster, modules = build_platform(node_count=3)
        admit(cluster, modules, "a", "n1")
        admit(cluster, modules, "b", "n2")
        cluster.node("n1").fail()
        cluster.run_for(6.0)
        second_host = host_of(cluster, "a")
        cluster.node(second_host).fail()
        cluster.run_for(8.0)
        # Both customers end up on the single survivor.
        survivor = cluster.alive_nodes()[0]
        assert set(survivor.instance_names()) == {"a", "b"}

    def test_empty_node_failure_triggers_nothing(self):
        cluster, modules = build_platform()
        cluster.node("n3").fail()
        cluster.run_for(5.0)
        assert all(not m.records for m in modules.values() if m.running)


class TestEvacuation:
    def test_evacuate_moves_all_instances(self):
        cluster, modules = build_platform()
        admit(cluster, modules, "a", "n1")
        admit(cluster, modules, "b", "n1")
        evacuation = modules["n1"].evacuate()
        cluster.run_until_settled([evacuation], timeout=60)
        assert cluster.node("n1").instance_names() == []
        assert host_of(cluster, "a") in ("n2", "n3")
        assert host_of(cluster, "b") in ("n2", "n3")

    def test_evacuate_empty_node_trivially_succeeds(self):
        cluster, modules = build_platform()
        evacuation = modules["n2"].evacuate()
        cluster.run_until_settled([evacuation])
        assert evacuation.result() == []

    def test_evacuate_without_peers_fails(self):
        cluster = Cluster.build(1, seed=1)
        module = MigrationModule(cluster.node("n1"))
        module.start()
        cluster.run_for(1.0)
        admit(cluster, {"n1": module}, "a", "n1")
        evacuation = module.evacuate()
        cluster.run_for(1.0)
        assert evacuation.done and not evacuation.ok

    def test_graceful_shutdown_no_failure_records(self):
        cluster, modules = build_platform()
        admit(cluster, modules, "a", "n1")
        graceful = modules["n1"].shutdown_gracefully()
        cluster.run_until_settled([graceful], timeout=60)
        cluster.run_for(5.0)
        from repro.cluster.node import NodeState

        assert cluster.node("n1").state == NodeState.OFF
        assert host_of(cluster, "a") in ("n2", "n3")
        failure_records = [
            r
            for m in modules.values()
            for r in m.records
            if r.reason == "failure"
        ]
        assert failure_records == []


class TestCommands:
    def test_command_routed_to_target_node(self):
        cluster, modules = build_platform()
        received = []
        modules["n2"].command_handlers["ping"] = received.append
        modules["n1"].send_command("n2", "ping", {"x": 1})
        cluster.run_for(1.0)
        assert received == [{"x": 1}]

    def test_command_to_self_dispatches_directly(self):
        cluster, modules = build_platform()
        received = []
        modules["n1"].command_handlers["ping"] = received.append
        modules["n1"].send_command("n1", "ping", {"x": 2})
        assert received == [{"x": 2}]

    def test_command_to_other_node_not_delivered_elsewhere(self):
        cluster, modules = build_platform()
        received = []
        modules["n3"].command_handlers["ping"] = received.append
        modules["n1"].send_command("n2", "ping", {})
        cluster.run_for(1.0)
        assert received == []

    def test_raising_handler_surfaces_as_a_listener_error(self):
        """A command handler's bug is not swallowed by the module: the
        group member that delivered the command counts it."""
        cluster, modules = build_platform()

        def broken(args):
            raise RuntimeError("handler bug")

        modules["n2"].command_handlers["ping"] = broken
        modules["n1"].send_command("n2", "ping", {})
        cluster.run_for(1.0)
        assert cluster.loop.errors == {"gcs.listener/n2": 1}


class TestRecordListeners:
    def test_raising_listener_surfaces_as_a_listener_error(self):
        """A migration-record listener's bug reaches the group member
        delivering the DEPLOYED announcement, which counts it."""
        cluster, modules = build_platform()
        admit(cluster, modules, "acme", "n1")
        seen = []

        def broken(record):
            seen.append(record.instance)
            raise RuntimeError("listener bug")

        modules["n1"].add_listener(broken)
        migration = modules["n1"].migrate("acme", "n2")
        cluster.run_until_settled([migration], timeout=40)
        assert migration.ok and seen == ["acme"]
        assert cluster.loop.errors == {"gcs.listener/n1": 1}
