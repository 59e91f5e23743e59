"""FaultInjector: each fault kind lands, restores, and traces correctly."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.node import NodeState
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule


@pytest.fixture
def cluster() -> Cluster:
    return Cluster.build(3, seed=5)


def test_crash_executes_at_scheduled_sim_time(cluster):
    schedule = FaultSchedule().crash(2.5, "n2")
    injector = FaultInjector(cluster, schedule)
    base = cluster.loop.clock.now  # schedule times are arm-relative
    injector.arm()
    cluster.run_for(2.0)
    assert cluster.node("n2").state == NodeState.ON
    cluster.run_for(1.0)
    assert cluster.node("n2").state == NodeState.FAILED
    assert injector.trace.entries[0].kind == "crash"
    assert injector.trace.entries[0].at == pytest.approx(base + 2.5)


def test_crash_of_dead_node_is_skipped_but_traced(cluster):
    schedule = FaultSchedule().crash(1.0, "n2").crash(2.0, "n2")
    injector = FaultInjector(cluster, schedule)
    injector.arm()
    cluster.run_for(3.0)
    kinds = [(e.kind, e.detail) for e in injector.trace]
    assert kinds[0] == ("crash", "n2")
    assert "skipped" in kinds[1][1]


def test_unknown_node_is_skipped_but_traced(cluster):
    injector = FaultInjector(cluster, FaultSchedule().crash(1.0, "n9"))
    injector.arm()
    cluster.run_for(2.0)
    assert "unknown-node" in injector.trace.entries[0].detail


def test_repair_boots_failed_node(cluster):
    schedule = FaultSchedule().crash(1.0, "n3").repair(2.0, "n3")
    FaultInjector(cluster, schedule).arm()
    cluster.run_for(1.5)
    assert cluster.node("n3").state == NodeState.FAILED
    cluster.run_for(60.0)
    assert cluster.node("n3").state == NodeState.ON


def test_loss_burst_restores_previous_rate(cluster):
    network = cluster.network
    schedule = FaultSchedule().loss_burst(1.0, 0.5, 2.0)
    injector = FaultInjector(cluster, schedule)
    injector.arm()
    cluster.run_for(1.5)
    assert network.loss_rate == pytest.approx(0.5)
    cluster.run_for(2.0)
    assert network.loss_rate == pytest.approx(0.0)
    assert [e.kind for e in injector.trace] == ["loss_burst", "loss_restore"]


def test_partition_blocks_cross_group_traffic_and_heals(cluster):
    received = []
    network = cluster.network
    network.attach("svc/n1", received.append)
    network.attach("svc/n2", received.append)
    schedule = FaultSchedule().partition(1.0, ["n1"], ["n2", "n3"]).heal(3.0)
    FaultInjector(cluster, schedule).arm()
    cluster.run_for(2.0)
    network.send("svc/n1", "svc/n2", "during-partition")
    cluster.run_for(0.5)
    assert not [m for m in received if m.payload == "during-partition"]
    cluster.run_for(1.0)  # heal at t=3
    network.send("svc/n1", "svc/n2", "after-heal")
    cluster.run_for(0.5)
    assert [m for m in received if m.payload == "after-heal"]


def test_slow_node_adds_and_clears_latency(cluster):
    network = cluster.network
    arrivals = {}
    network.attach("probe/n1", lambda m: arrivals.__setitem__(m.payload, cluster.loop.clock.now))
    network.attach("probe/n2", lambda m: None)

    schedule = FaultSchedule().slow_node(1.0, "n1", 0.25, 2.0)
    injector = FaultInjector(cluster, schedule)
    injector.arm()
    cluster.run_for(1.5)

    sent_at = cluster.loop.clock.now
    network.send("probe/n2", "probe/n1", "delayed")
    cluster.run_for(1.0)
    assert "delayed" in arrivals, "message lost"
    assert arrivals["delayed"] - sent_at >= 0.25

    cluster.run_for(1.0)  # past the 2s window
    sent_at = cluster.loop.clock.now
    network.send("probe/n2", "probe/n1", "fast-again")
    cluster.run_for(0.5)
    assert arrivals["fast-again"] - sent_at < 0.25
    assert [e.kind for e in injector.trace] == ["slow_node", "slow_restore"]


def test_clock_skew_scales_member_timers_and_restores(cluster):
    for node in cluster.nodes():
        node.group_member("platform-test", 1.0).join()
    cluster.run_for(2.0)
    member = cluster.node("n1").group_members()[0]
    original = member.hb_interval

    schedule = FaultSchedule().clock_skew(1.0, "n1", 3.0, 2.0)
    injector = FaultInjector(cluster, schedule)
    injector.arm()
    cluster.run_for(1.5)
    assert member.hb_interval == pytest.approx(original * 3.0)
    cluster.run_for(2.0)
    assert member.hb_interval == pytest.approx(original)
    assert [e.kind for e in injector.trace] == ["clock_skew", "skew_restore"]


def test_quiesce_withdraws_everything(cluster):
    schedule = (
        FaultSchedule()
        .partition(0.5, ["n1"], ["n2", "n3"])
        .loss_burst(0.5, 0.4, 100.0)
        .slow_node(0.5, "n2", 0.1, 100.0)
    )
    injector = FaultInjector(cluster, schedule)
    injector.arm()
    cluster.run_for(1.0)
    network = cluster.network
    assert network.partitioned
    assert network.loss_rate == pytest.approx(0.4)
    injector.quiesce()
    assert not network.partitioned
    assert network.loss_rate == pytest.approx(0.0)
    assert network._extra_latency("x/n2", "y/n1") == pytest.approx(0.0)
    assert injector.trace.entries[-1].kind == "quiesce"


def test_double_arm_rejected(cluster):
    injector = FaultInjector(cluster, FaultSchedule())
    injector.arm()
    with pytest.raises(RuntimeError):
        injector.arm()


def test_trace_is_deterministic_across_runs():
    def run_once():
        cluster = Cluster.build(3, seed=21)
        schedule = (
            FaultSchedule()
            .crash(1.0, "n1")
            .partition(2.0, ["n2"], ["n3"])
            .loss_burst(3.0, 0.3, 1.0)
            .heal(5.0)
            .repair(6.0, "n1")
        )
        injector = FaultInjector(cluster, schedule)
        injector.arm()
        cluster.run_for(60.0)
        return injector.trace

    assert run_once().text() == run_once().text()
    assert run_once().digest() == run_once().digest()
