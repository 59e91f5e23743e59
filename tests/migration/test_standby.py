"""Warm standby: preparation, advertisement, promoted failover."""

import pytest

from repro.cluster.cluster import Cluster
from repro.migration.module import MigrationModule
from repro.migration.registry import CustomerDescriptor, CustomerDirectory
from repro.migration.standby import StandbyManager
from repro.osgi.definition import simple_bundle


def build_platform(node_count=3, seed=42):
    cluster = Cluster.build(node_count, seed=seed)
    modules = {}
    standbys = {}
    for node in cluster.nodes():
        module = MigrationModule(node)
        node.modules["migration"] = module
        module.start()
        modules[node.node_id] = module
        manager = StandbyManager(node)
        node.modules["standby"] = manager
        manager.start()
        standbys[node.node_id] = manager
    cluster.run_for(2.0)
    return cluster, modules, standbys


def admit(cluster, name, node_id, bundle_count=5):
    CustomerDirectory(cluster.store, cluster.loop).put(
        CustomerDescriptor(name=name, cpu_share=0.2, bundle_count_hint=bundle_count)
    )
    deploy = cluster.node(node_id).deploy_instance(name)
    cluster.run_until_settled([deploy])
    instance = deploy.result()
    for i in range(bundle_count):
        instance.install(simple_bundle("b%02d" % i)).start()
    cluster.run_for(1.5)
    return instance


class TestPreparation:
    def test_prepare_takes_full_instance_cost(self):
        cluster, modules, standbys = build_platform()
        admit(cluster, "acme", "n1")
        before = cluster.loop.clock.now
        preparation = standbys["n2"].prepare("acme")
        cluster.run_until_settled([preparation])
        elapsed = preparation.completed_at - before
        assert elapsed >= cluster.costs.instance_start_seconds(5) - 1e-9
        assert standbys["n2"].is_prepared("acme")

    def test_prepared_bundle_count_from_san_state(self):
        cluster, modules, standbys = build_platform()
        admit(cluster, "acme", "n1", bundle_count=7)
        preparation = standbys["n2"].prepare("acme")
        cluster.run_until_settled([preparation])
        assert preparation.result().bundle_count == 7

    def test_duplicate_preparation_rejected(self):
        cluster, modules, standbys = build_platform()
        admit(cluster, "acme", "n1")
        preparation = standbys["n2"].prepare("acme")
        cluster.run_until_settled([preparation])
        with pytest.raises(ValueError):
            standbys["n2"].prepare("acme")

    def test_standby_advertised_in_gossip(self):
        cluster, modules, standbys = build_platform()
        admit(cluster, "acme", "n1")
        preparation = standbys["n2"].prepare("acme")
        cluster.run_until_settled([preparation])
        cluster.run_for(1.5)
        assert modules["n3"].inventory.standby_host("acme") == "n2"

    def test_memory_cost_accounted(self):
        cluster, modules, standbys = build_platform()
        admit(cluster, "acme", "n1")
        preparation = standbys["n2"].prepare("acme")
        cluster.run_until_settled([preparation])
        assert standbys["n2"].memory_cost_bytes() > 0

    def test_resync_tracks_primary_growth(self):
        cluster, modules, standbys = build_platform()
        instance = admit(cluster, "acme", "n1", bundle_count=2)
        preparation = standbys["n2"].prepare("acme")
        cluster.run_until_settled([preparation])
        record = preparation.result()
        assert record.bundle_count == 2
        instance.install(simple_bundle("late")).start()
        cluster.run_for(2.0)
        assert record.bundle_count == 3

    def test_unprepare(self):
        cluster, modules, standbys = build_platform()
        admit(cluster, "acme", "n1")
        preparation = standbys["n2"].prepare("acme")
        cluster.run_until_settled([preparation])
        assert standbys["n2"].unprepare("acme")
        assert not standbys["n2"].is_prepared("acme")
        assert not standbys["n2"].unprepare("acme")


class TestPromotedFailover:
    def test_failover_lands_on_standby_node(self):
        cluster, modules, standbys = build_platform()
        admit(cluster, "acme", "n1")
        preparation = standbys["n3"].prepare("acme")
        cluster.run_until_settled([preparation])
        cluster.run_for(1.5)
        cluster.node("n1").fail()
        cluster.run_for(5.0)
        assert "acme" in cluster.node("n3").instance_names()

    def test_promoted_failover_is_faster_than_cold(self):
        # Cold redeploy of 5 bundles: >= 0.2 + 5*0.08 = 0.6 s. Promotion:
        # 0.05 + 5*0.01 = 0.1 s. Compare measured downtimes.
        def downtime(with_standby):
            cluster, modules, standbys = build_platform(seed=77)
            admit(cluster, "acme", "n1")
            if with_standby:
                preparation = standbys["n2"].prepare("acme")
                cluster.run_until_settled([preparation])
            cluster.run_for(1.5)
            cluster.node("n1").fail()
            cluster.run_for(5.0)
            records = [
                r
                for m in modules.values()
                for r in m.records
                if r.instance == "acme" and r.completed
            ]
            return records[-1].downtime

        cold = downtime(with_standby=False)
        warm = downtime(with_standby=True)
        assert warm < cold
        assert cold - warm > 0.4  # the skipped install/resolve/SAN work

    def test_promotion_consumes_preparation(self):
        cluster, modules, standbys = build_platform()
        admit(cluster, "acme", "n1")
        preparation = standbys["n2"].prepare("acme")
        cluster.run_until_settled([preparation])
        cluster.run_for(1.5)
        cluster.node("n1").fail()
        cluster.run_for(5.0)
        assert not standbys["n2"].is_prepared("acme")
        assert standbys["n2"].promotions == 1

    def test_standby_dropped_for_deliberately_stopped_customer(self):
        cluster, modules, standbys = build_platform()
        admit(cluster, "acme", "n1")
        preparation = standbys["n2"].prepare("acme")
        cluster.run_until_settled([preparation])
        directory = CustomerDirectory(cluster.store, cluster.loop)
        descriptor = directory.get("acme")
        directory.put(
            CustomerDescriptor(**{**descriptor.to_dict(), "active": False})
        )
        cluster.run_for(2.0)
        assert not standbys["n2"].is_prepared("acme")

    def test_dead_standby_node_falls_back_to_placement(self):
        cluster, modules, standbys = build_platform(node_count=3)
        admit(cluster, "acme", "n1")
        preparation = standbys["n2"].prepare("acme")
        cluster.run_until_settled([preparation])
        cluster.run_for(1.5)
        cluster.node("n2").fail()  # standby host dies first
        cluster.run_for(3.0)
        cluster.node("n1").fail()  # then the primary
        cluster.run_for(6.0)
        assert "acme" in cluster.node("n3").instance_names()
