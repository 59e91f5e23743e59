"""Traffic served through the director shows up in the customer's usage."""

import pytest

from repro.core import DependableEnvironment
from repro.ipvs.addressing import IpEndpoint
from repro.sla import ServiceLevelAgreement

VIP = IpEndpoint("10.7.7.7", 80)


@pytest.fixture
def env():
    e = DependableEnvironment.build(node_count=2, seed=31, enable_rebalance=False)
    completion = e.admit_customer(
        ServiceLevelAgreement("api", cpu_share=0.3), node_id="n1"
    )
    e.cluster.run_until_settled([completion])
    e.run_for(1.5)
    e.expose_service("api", VIP, service_time=0.01)
    return e


def offered(env, count, interval=0.05):
    done = []
    for _ in range(count):
        done.append(env.director.submit(VIP))
        env.run_for(interval)
    env.run_for(1.0)
    return done


def test_served_requests_charge_instance_cpu(env):
    offered(env, 20)
    usage = env.instance_of("api").usage()
    assert usage["cpu_seconds"] == pytest.approx(20 * 0.01)


def test_monitoring_sees_traffic_load(env):
    # 0.01s per request at 20 req/s => 0.2 CPU share.
    history = []
    env.cluster.node("n1").monitoring.add_listener(
        lambda report: report.instance == "api" and history.append(report)
    )
    end = env.loop.clock.now + 5.0

    def submit():
        if env.loop.clock.now >= end:
            return
        env.director.submit(VIP)
        env.loop.call_after(0.05, submit)

    env.loop.call_after(0.05, submit)
    env.run_for(6.0)
    # Steady-state windows (the last one is partial: traffic stopped).
    steady = [r.cpu_share for r in history[-4:-1]]
    assert max(steady) == pytest.approx(0.2, abs=0.05)
    assert not any(r.cpu_violation for r in history)  # within 0.3 contract


def test_metering_follows_migration(env):
    migration = env.migrate_customer("api", "n2")
    env.cluster.run_until_settled([migration], timeout=60)
    offered(env, 10)
    usage = env.instance_of("api").usage()
    # Fresh instance on n2: only the post-migration traffic counts.
    assert usage["cpu_seconds"] == pytest.approx(10 * 0.01)
    served = env.director.per_node_served()
    assert served.get("n2", 0) == 10


def test_traffic_overload_triggers_sla_enforcement():
    env = DependableEnvironment.build(node_count=2, seed=37, sla_action="migrate")
    completion = env.admit_customer(
        ServiceLevelAgreement("api", cpu_share=0.1), node_id="n1"
    )
    env.cluster.run_until_settled([completion])
    env.run_for(1.5)
    env.expose_service("api", VIP, service_time=0.01)
    # 40 req/s x 0.01 s = 0.4 CPU share >> the 0.1 contract.
    end = env.loop.clock.now + 12.0

    def submit():
        if env.loop.clock.now >= end:
            return
        env.director.submit(VIP)
        env.loop.call_after(0.025, submit)

    env.loop.call_after(0.025, submit)
    env.run_for(15.0)
    # The autonomic module migrated the over-trafficked customer away.
    assert env.locate("api") == "n2"
    assert len(env.sla_tracker.violations("api")) > 0
