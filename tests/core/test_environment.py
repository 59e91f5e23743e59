"""The DependableEnvironment facade."""

import pytest

from repro.core import DependableEnvironment
from repro.ipvs.addressing import IpEndpoint
from repro.osgi.definition import simple_bundle
from repro.sla.agreement import ServiceLevelAgreement

from tests.conftest import RecordingActivator


@pytest.fixture
def env():
    return DependableEnvironment.build(node_count=3, seed=9)


def admit(env, name, cpu_share=0.25, bundles=None, **kwargs):
    completion = env.admit_customer(
        ServiceLevelAgreement(name, cpu_share=cpu_share), bundles=bundles, **kwargs
    )
    env.cluster.run_until_settled([completion])
    env.run_for(1.5)
    return completion.result()


def test_build_starts_all_modules(env):
    for node in env.cluster.nodes():
        assert "migration" in node.modules
        assert "autonomic" in node.modules
        assert node.modules["migration"].running


def test_admission_places_and_tracks(env):
    admit(env, "acme")
    assert env.locate("acme") is not None
    assert env.customer_names() == ["acme"]
    assert env.sla_tracker.known("acme")


def test_duplicate_admission_rejected(env):
    admit(env, "acme")
    with pytest.raises(ValueError):
        env.admit_customer(ServiceLevelAgreement("acme"))


def test_admissions_spread_by_load(env):
    for i in range(3):
        admit(env, "c%d" % i, cpu_share=0.6)
    hosts = {env.locate("c%d" % i) for i in range(3)}
    assert len(hosts) == 3  # 0.6 each cannot share a 1.0-CPU node


def test_admission_with_bundles_installs_them(env):
    activator = RecordingActivator()
    bundles = [simple_bundle("app", activator_factory=lambda: activator)]
    instance = admit(env, "acme", bundles=bundles)
    assert instance.get_bundle_by_name("app") is not None
    assert activator.events == ["start"]


def test_explicit_node_placement(env):
    admit(env, "acme", node_id="n3")
    assert env.locate("acme") == "n3"


def test_no_capacity_raises(env):
    admit(env, "big1", cpu_share=1.0)
    admit(env, "big2", cpu_share=1.0)
    admit(env, "big3", cpu_share=1.0)
    with pytest.raises(RuntimeError):
        env.admit_customer(ServiceLevelAgreement("big4", cpu_share=1.0))


def test_fail_node_redeploys_customers(env):
    admit(env, "acme")
    first_host = env.locate("acme")
    hosted = env.fail_node(first_host)
    assert "acme" in hosted
    env.run_for(6.0)
    new_host = env.locate("acme")
    assert new_host is not None and new_host != first_host


def test_compliance_reflects_failover_downtime(env):
    admit(env, "acme")
    env.run_for(10.0)
    env.fail_node(env.locate("acme"))
    env.run_for(10.0)
    report = env.compliance()[0]
    assert 0 < report.downtime < 5.0
    assert report.availability < 1.0


def test_planned_migration_via_facade(env):
    admit(env, "acme", node_id="n1")
    migration = env.migrate_customer("acme", "n2")
    env.cluster.run_until_settled([migration], timeout=60)
    assert env.locate("acme") == "n2"


def test_planned_migration_restarts_at_the_level_the_instance_ran_at(env):
    """stop() used to store whatever level its shutdown walk had reached
    (1), so a bundle at start level 5 arrived on the target node RESOLVED."""
    instance = admit(env, "acme", node_id="n1", bundles=[simple_bundle("app")])
    app = instance.get_bundle_by_name("app")
    instance.framework.start_levels.set_bundle_level(app, 5)
    assert app.state.value == "ACTIVE"
    migration = env.migrate_customer("acme", "n2")
    env.cluster.run_until_settled([migration], timeout=60)
    assert env.locate("acme") == "n2"
    moved = env.instance_of("acme")
    assert moved is not instance
    assert moved.framework.start_level == 10
    arrived = moved.get_bundle_by_name("app")
    assert (arrived.start_level, arrived.state.value) == (5, "ACTIVE")


def test_graceful_node_shutdown_evacuates(env):
    admit(env, "acme", node_id="n1")
    graceful = env.shutdown_node_gracefully("n1")
    env.cluster.run_until_settled([graceful], timeout=90)
    assert env.locate("acme") in ("n2", "n3")
    from repro.cluster.node import NodeState

    assert env.cluster.node("n1").state == NodeState.OFF


def test_stateful_data_survives_failover(env):
    class StatefulActivator(RecordingActivator):
        def start(self, context):
            super().start(context)
            data = context.get_data_store()
            data["boots"] = data.get("boots", 0) + 1

    instance = admit(
        env, "acme", bundles=[simple_bundle("s", activator_factory=StatefulActivator)]
    )
    env.fail_node(env.locate("acme"))
    env.run_for(8.0)
    assert env.cluster.store.data_area("vosgi:acme", "s")["boots"] == 2


def test_exposed_service_follows_migration(env):
    admit(env, "acme", node_id="n1")
    vip = IpEndpoint("10.0.0.50", 80)
    env.expose_service("acme", vip, service_time=0.005)
    request = env.director.submit(vip)
    env.run_for(1.0)
    assert request.ok and request.served_by == "n1"

    migration = env.migrate_customer("acme", "n2")
    env.cluster.run_until_settled([migration], timeout=60)
    request2 = env.director.submit(vip)
    env.run_for(1.0)
    assert request2.ok and request2.served_by == "n2"


def test_exposed_service_follows_failover(env):
    admit(env, "acme", node_id="n1")
    vip = IpEndpoint("10.0.0.50", 80)
    env.expose_service("acme", vip, service_time=0.005)
    env.fail_node("n1")
    env.run_for(8.0)
    new_host = env.locate("acme")
    request = env.director.submit(vip)
    env.run_for(1.0)
    assert request.ok and request.served_by == new_host


def test_a_customer_restarted_in_place_gets_a_fresh_real_server(env):
    """The record of a move onto the same node drops the old server (and
    any backlog it queued) before adding the new instance's."""
    admit(env, "acme", node_id="n1")
    vip = IpEndpoint("10.0.0.50", 80)
    env.expose_service("acme", vip, service_time=0.005)
    [before] = env.director.directors[0].real_servers(vip)
    migration = env.migrate_customer("acme", "n1")
    env.cluster.run_until_settled([migration], timeout=60)
    [after] = env.director.directors[0].real_servers(vip)
    assert after.node_id == "n1" and after is not before


def test_instance_of_returns_live_instance(env):
    admit(env, "acme")
    instance = env.instance_of("acme")
    assert instance is not None and instance.running
    assert env.instance_of("ghost") is None


def test_repair_node_returns_node_to_service(env):
    admit(env, "acme", node_id="n1")
    env.fail_node("n1")
    env.run_for(6.0)
    repair = env.cluster.run_until_settled([env.repair_node("n1")]) or None
    env.run_for(3.0)
    from repro.cluster.node import NodeState

    node = env.cluster.node("n1")
    assert node.state == NodeState.ON
    assert env.migration["n1"].running
    assert "autonomic" in node.modules
    # The repaired node can host work again.
    migration = env.migrate_customer("acme", "n1")
    env.cluster.run_until_settled([migration], timeout=60)
    assert env.locate("acme") == "n1"


def test_repaired_node_feeds_sla_tracker(env):
    admit(env, "acme", node_id="n2")
    env.fail_node("n2")
    env.run_for(6.0)
    env.cluster.run_until_settled([env.repair_node("n2")])
    env.run_for(2.0)
    migration = env.migrate_customer("acme", "n2")
    env.cluster.run_until_settled([migration], timeout=60)
    env.run_for(3.0)
    # usage reports from the repaired node flow into the tracker
    assert env.cluster.node("n2").monitoring.latest("acme") is not None


def test_woken_node_rejoins_the_platform_group():
    """Waking a node hibernated with its Migration Module running wires
    a fresh module at once; the old member's drain timer must not detach
    the fresh member's endpoint."""
    env = DependableEnvironment.build(node_count=3, seed=7)
    n3 = env.cluster.node("n3")
    env.cluster.run_until_settled([n3.hibernate()])
    env.cluster.run_until_settled([env.wake_node("n3")])
    env.run_for(3.0)
    assert env.cluster.network.endpoint("gcs/platform.migration/n3") is not None
    env.run_for(20.0)
    views = {node_id: m.member.view for node_id, m in env.migration.items()}
    assert all(view.size == 3 for view in views.values())
    assert len({view.members for view in views.values()}) == 1
