"""Monitoring Module: sampling loop, reports, violations, node summary."""

import pytest

from repro.isolation.quotas import ResourceQuota
from repro.monitoring.monitor import (
    MONITORING_CLASS,
    MonitoringModule,
    monitoring_bundle,
)
from repro.monitoring.sampler import ThreadSampler
from repro.osgi.definition import simple_bundle
from repro.osgi.framework import Framework
from repro.sim.eventloop import EventLoop
from repro.sim.rng import RngStreams
from repro.vosgi.manager import InstanceManager, instance_manager_bundle

from tests.conftest import RecordingActivator


@pytest.fixture
def loop():
    return EventLoop()


@pytest.fixture
def host():
    fw = Framework("host")
    fw.start()
    yield fw
    if fw.active:
        fw.stop()


@pytest.fixture
def manager(host):
    return InstanceManager(host)


def make_worker(instance, cpu_per_call=0.0, memory=0):
    activator = RecordingActivator()
    bundle = instance.install(
        simple_bundle(
            "worker-%d" % (id(activator) % 10000),
            activator_factory=lambda: activator,
        )
    )
    bundle.start()
    if cpu_per_call or memory:
        activator.context.account(cpu=cpu_per_call, memory_delta=memory)
    return activator


def test_reports_produced_each_interval(loop, manager):
    manager.create_instance("acme")
    module = MonitoringModule(loop, manager, interval=1.0)
    reports = []
    module.add_listener(reports.append)
    module.start()
    loop.run_for(3.5)
    assert module.ticks == 3
    assert [r.instance for r in reports] == ["acme"] * 3


def test_cpu_share_computed_from_window_delta(loop, manager):
    instance = manager.create_instance("acme", quota=ResourceQuota(cpu_share=0.5))
    worker = make_worker(instance)
    module = MonitoringModule(loop, manager, interval=1.0)
    module.start()
    loop.run_for(1.0)  # first report: baseline
    worker.context.account(cpu=0.3)
    loop.run_for(1.0)
    report = module.latest("acme")
    assert report.cpu_share == pytest.approx(0.3)
    assert not report.cpu_violation


def test_cpu_violation_flagged_beyond_tolerance(loop, manager):
    instance = manager.create_instance("acme", quota=ResourceQuota(cpu_share=0.2))
    worker = make_worker(instance)
    module = MonitoringModule(loop, manager, interval=1.0)
    module.start()
    loop.run_for(1.0)
    worker.context.account(cpu=0.5)
    loop.run_for(1.0)
    report = module.latest("acme")
    assert report.cpu_violation
    assert report.any_violation


def test_memory_violation_exact_mode(loop, manager):
    instance = manager.create_instance(
        "acme", quota=ResourceQuota(memory_bytes=1000)
    )
    worker = make_worker(instance)
    worker.context.account(memory_delta=2000)
    module = MonitoringModule(loop, manager, interval=1.0)
    module.start()
    loop.run_for(1.0)
    assert module.latest("acme").memory_violation


def test_sampling_mode_cannot_see_memory(loop, manager):
    instance = manager.create_instance(
        "acme", quota=ResourceQuota(memory_bytes=1000)
    )
    worker = make_worker(instance)
    worker.context.account(memory_delta=5000)
    sampler = ThreadSampler(RngStreams(1).stream("s"))
    module = MonitoringModule(
        loop, manager, interval=1.0, mode="sampling", sampler=sampler
    )
    module.start()
    loop.run_for(1.0)
    report = module.latest("acme")
    assert report.memory_bytes is None
    assert not report.memory_violation  # invisible => unenforceable (2008!)


def test_sampling_mode_requires_sampler(loop, manager):
    with pytest.raises(ValueError):
        MonitoringModule(loop, manager, mode="sampling")


def test_invalid_mode_rejected(loop, manager):
    with pytest.raises(ValueError):
        MonitoringModule(loop, manager, mode="psychic")


def test_listeners_receive_reports(loop, manager):
    manager.create_instance("acme")
    module = MonitoringModule(loop, manager, interval=1.0)
    seen = []
    module.add_listener(seen.append)
    module.start()
    loop.run_for(2.0)
    assert len(seen) == 2
    assert seen[0].instance == "acme"


def test_stop_halts_sampling(loop, manager):
    manager.create_instance("acme")
    module = MonitoringModule(loop, manager, interval=1.0)
    module.start()
    loop.run_for(1.0)
    module.stop()
    loop.run_for(5.0)
    assert module.ticks == 1


def test_node_summary_aggregates(loop, manager):
    a = manager.create_instance("a", quota=ResourceQuota(cpu_share=0.5))
    b = manager.create_instance("b", quota=ResourceQuota(cpu_share=0.5))
    wa = make_worker(a)
    wb = make_worker(b)
    module = MonitoringModule(loop, manager, interval=1.0)
    module.start()
    loop.run_for(1.0)
    wa.context.account(cpu=0.2, memory_delta=100)
    wb.context.account(cpu=0.3, memory_delta=200)
    loop.run_for(1.0)
    summary = module.node_summary()
    assert summary["cpu_used_share"] == pytest.approx(0.5)
    assert summary["cpu_available_share"] == pytest.approx(0.5)
    assert summary["memory_used_bytes"] == 300
    assert summary["instances"] == 2


def test_forget_drops_history(loop, manager):
    manager.create_instance("acme")
    module = MonitoringModule(loop, manager, interval=1.0)
    module.start()
    loop.run_for(1.0)
    module.forget("acme")
    assert module.latest("acme") is None


def test_bundle_packaging_finds_instance_manager(loop, host):
    host.install(instance_manager_bundle()).start()
    bundle = host.install(monitoring_bundle(loop, interval=1.0))
    bundle.start()
    ref = host.system_context.get_service_reference(MONITORING_CLASS)
    assert ref is not None


def test_bundle_packaging_requires_instance_manager(loop, host):
    bundle = host.install(monitoring_bundle(loop))
    from repro.osgi.errors import BundleException

    with pytest.raises(BundleException):
        bundle.start()


def test_a_raising_listener_stops_the_run(loop, manager):
    """Report listeners are platform code (the autonomic module, the SLA
    tracker): an error in one is a bug and leaves the tick, loudly."""
    manager.create_instance("acme")
    module = MonitoringModule(loop, manager, interval=1.0)

    def broken(report):
        raise ZeroDivisionError("broken listener")

    module.add_listener(broken)
    module.start()
    with pytest.raises(ZeroDivisionError, match="broken listener"):
        loop.run_for(2.0)
    assert module.ticks == 1
