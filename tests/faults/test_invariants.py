"""Invariant catalog: holds on a healthy platform, detects seeded breaches."""

import pytest

from repro.core import DependableEnvironment
from repro.faults.invariants import (
    ALWAYS,
    QUIESCENT,
    Invariant,
    InvariantChecker,
    InvariantRegistry,
    default_invariants,
)
from repro.sla import ServiceLevelAgreement


@pytest.fixture
def env() -> DependableEnvironment:
    env = DependableEnvironment.build(node_count=3, seed=17)
    for name in ("acme", "globex"):
        completion = env.admit_customer(
            ServiceLevelAgreement(name, cpu_share=0.2, availability_target=0.9)
        )
        env.cluster.run_until_settled([completion])
    env.run_for(2.0)
    return env


def test_default_catalog_has_at_least_five_invariants():
    registry = default_invariants()
    assert len(registry) >= 5
    assert len(registry.select(ALWAYS)) >= 4
    assert len(registry.select(QUIESCENT)) >= 2


def test_registry_rejects_duplicate_names():
    registry = default_invariants()
    with pytest.raises(ValueError):
        registry.register(Invariant("single-primary", "dup", lambda e: []))


def test_healthy_platform_passes_every_invariant(env):
    checker = InvariantChecker(env)
    found = checker.check_now(mode=None)
    assert found == []
    assert checker.ok


def test_periodic_checker_runs_on_the_loop(env):
    checker = InvariantChecker(env)
    checker.arm(interval=0.5)
    env.run_for(5.0)
    checker.stop()
    assert checker.checks_run >= 9
    assert checker.ok
    env.run_for(5.0)
    runs = checker.checks_run
    env.run_for(5.0)
    assert checker.checks_run == runs, "stop() must cancel the timer"


def test_single_primary_detects_duplicate_instance(env):
    host = env.locate("acme")
    other = [
        n.node_id for n in env.cluster.alive_nodes() if n.node_id != host
    ][0]
    # Deploy a second copy behind the platform's back.
    duplicate = env.cluster.node(other).deploy_instance("acme")
    env.cluster.run_until_settled([duplicate])
    checker = InvariantChecker(env)
    found = checker.check_now(mode=QUIESCENT)
    assert any(v.invariant == "single-primary" for v in found)


def test_committed_state_detects_vanished_state(env):
    checker = InvariantChecker(env)
    assert checker.check_now(mode=ALWAYS) == []  # memorise the commits
    # Sabotage: drop the SAN record behind the platform's back.
    del env.cluster.store._states["vosgi:acme"]
    found = checker.check_now(mode=ALWAYS)
    assert any(
        v.invariant == "committed-state-durable" and "vosgi:acme" in v.detail
        for v in found
    )


def test_committed_state_detects_vanished_descriptor(env):
    checker = InvariantChecker(env)
    env.customers_directory.remove("globex")
    found = checker.check_now(mode=ALWAYS)
    assert any(
        v.invariant == "committed-state-durable" and "globex" in v.detail
        for v in found
    )


def test_ipvs_liveness_detects_zombie_real_server(env):
    from repro.ipvs.addressing import IpEndpoint

    endpoint = IpEndpoint("10.0.0.80", 80)
    env.expose_service("acme", endpoint, service_time=0.005)
    checker = InvariantChecker(env)
    assert checker.check_now(mode=ALWAYS) == []
    host = env.locate("acme")
    env.fail_node(host)
    # Sabotage: resurrect the dead node's real server entry by hand.
    env.director.mark_node(host, alive=True)
    found = checker.check_now(mode=ALWAYS)
    assert any(v.invariant == "ipvs-liveness" for v in found)


def test_sla_monotonic_detects_rewound_accounting(env):
    checker = InvariantChecker(env)
    assert checker.check_now(mode=ALWAYS) == []
    env.run_for(5.0)
    assert checker.check_now(mode=ALWAYS) == []
    # Rewind the observation window behind the tracker's back.
    timeline = env.sla_tracker._customers["acme"]
    timeline.observed_from = env.loop.clock.now + 100.0
    found = checker.check_now(mode=ALWAYS)
    assert any(v.invariant == "sla-monotonic" for v in found)


def test_view_agreement_detects_split_views(env):
    env.cluster.network.partition_nodes({"n1"}, {"n2", "n3"})
    env.run_for(10.0)  # both sides install disjoint views
    checker = InvariantChecker(env)
    found = checker.check_now(mode=QUIESCENT)
    assert any(v.invariant == "view-agreement" for v in found)
    # After heal + settle the probe/merge path reunites the group.
    env.cluster.network.heal()
    env.run_for(20.0)
    checker2 = InvariantChecker(env)
    assert checker2.check_now(mode=QUIESCENT) == []


def test_customers_placed_detects_lost_customer(env):
    name = "acme"
    host = env.locate(name)
    node = env.cluster.node(host)
    undeploy = node.undeploy_instance(name)
    env.cluster.run_until_settled([undeploy])
    # The descriptor stays active; the check runs at once, before the
    # recovery sweep's strikes could redeploy the customer.
    registry = InvariantRegistry(
        [i for i in default_invariants() if i.name == "customers-placed"]
    )
    checker = InvariantChecker(env, registry)
    found = checker.check_now(mode=QUIESCENT)
    assert any(v.invariant == "customers-placed" for v in found)


def test_custom_invariant_participates(env):
    registry = default_invariants()
    registry.register(
        Invariant("always-fails", "test hook", lambda e: ["boom"], mode=ALWAYS)
    )
    checker = InvariantChecker(env, registry)
    found = checker.check_now(mode=ALWAYS)
    assert [v.detail for v in found if v.invariant == "always-fails"] == ["boom"]
