"""Figure 1's remote management path."""

import pytest

from repro.sim.eventloop import EventLoop
from repro.sim.network import Network
from repro.sim.rng import RngStreams
from repro.vosgi.remote import RemoteInstanceHost, RemoteInstanceManager

from repro.osgi.definition import simple_bundle

from tests.conftest import FailingStartActivator, library_bundle


@pytest.fixture
def setup():
    loop = EventLoop()
    network = Network(loop, RngStreams(3), latency=0.00075, jitter=0.0)
    manager = RemoteInstanceManager(loop, network)
    host = RemoteInstanceHost("acme", loop, network)
    manager.register_host(host)
    return loop, network, manager, host


def settle(loop, completion, duration=2.0):
    loop.run_for(duration)
    return completion.result()


def test_full_remote_lifecycle(setup):
    loop, network, manager, host = setup
    host.provision("loc://lib", library_bundle("lib", "1.0.0"))
    assert settle(loop, manager.start_framework("acme")) is True
    assert settle(loop, manager.install("acme", "loc://lib")) == 1
    assert settle(loop, manager.start_bundle("acme", "lib")) is True
    status = settle(loop, manager.status("acme"))
    assert status == {"active": True, "bundles": {"lib": "ACTIVE"}}
    assert settle(loop, manager.stop_bundle("acme", "lib")) is True
    assert settle(loop, manager.stop_framework("acme")) is True


def test_every_operation_pays_a_round_trip(setup):
    loop, network, manager, host = setup
    settle(loop, manager.start_framework("acme"))
    settle(loop, manager.status("acme"))
    assert len(manager.round_trip_times) == 2
    # One-way latency 0.75 ms -> RTT 1.5 ms, the paper-era RMI figure.
    assert manager.mean_rtt == pytest.approx(0.0015, rel=0.01)


def test_remote_errors_propagate(setup):
    loop, network, manager, host = setup
    settle(loop, manager.start_framework("acme"))
    completion = manager.install("acme", "loc://missing")
    loop.run_for(2.0)
    assert completion.done and not completion.ok
    with pytest.raises(RuntimeError):
        completion.result()


def test_unknown_instance_rejected(setup):
    loop, network, manager, host = setup
    with pytest.raises(KeyError):
        manager.status("ghost")


def test_crashed_host_times_out(setup):
    loop, network, manager, host = setup
    settle(loop, manager.start_framework("acme"))
    host.crash()
    completion = manager.status("acme")
    loop.run_for(manager.timeout + 1.0)
    assert completion.done and not completion.ok
    with pytest.raises(TimeoutError):
        completion.result()


def test_hosts_are_fully_isolated_processes(setup):
    loop, network, manager, host = setup
    other = RemoteInstanceHost("globex", loop, network)
    manager.register_host(other)
    settle(loop, manager.start_framework("acme"))
    settle(loop, manager.start_framework("globex"))
    host.provision("loc://lib", library_bundle("lib", "1.0.0"))
    settle(loop, manager.install("acme", "loc://lib"))
    status = settle(loop, manager.status("globex"))
    assert status["bundles"] == {}  # nothing leaked between "JVMs"
    assert manager.names() == ["acme", "globex"]


def test_install_on_a_stopped_framework_fails_the_call(setup):
    """A FrameworkError from the framework is an error reply; the
    simulation keeps running."""
    loop, network, manager, host = setup
    host.provision("loc://lib", library_bundle("lib", "1.0.0"))
    settle(loop, manager.start_framework("acme"))
    settle(loop, manager.stop_framework("acme"))
    completion = manager.install("acme", "loc://lib")
    loop.run_for(2.0)
    assert completion.done and not completion.ok
    with pytest.raises(RuntimeError, match="not active"):
        completion.result()
    assert settle(loop, manager.status("acme"))["active"] is False


def test_failing_activator_fails_the_call(setup):
    """A BundleException from an activator is an error reply; the
    simulation keeps running."""
    loop, network, manager, host = setup
    host.provision(
        "loc://bad", simple_bundle("bad", activator_factory=FailingStartActivator)
    )
    settle(loop, manager.start_framework("acme"))
    settle(loop, manager.install("acme", "loc://bad"))
    completion = manager.start_bundle("acme", "bad")
    loop.run_for(2.0)
    assert completion.done and not completion.ok
    with pytest.raises(RuntimeError, match="failed to start"):
        completion.result()
    assert settle(loop, manager.status("acme"))["bundles"] == {"bad": "RESOLVED"}


def test_a_defect_in_the_host_propagates(setup):
    """Only the failures ``_execute`` raises by design become error
    replies; a programming error escapes the delivery."""
    loop, network, manager, host = setup
    host.framework = None  # every command now hits an AttributeError
    manager.start_framework("acme")
    with pytest.raises(AttributeError):
        loop.run_for(2.0)
