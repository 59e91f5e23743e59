"""CPU burner workload."""

import pytest

from repro.sim.eventloop import EventLoop
from repro.workloads.burner import CpuBurner, burner_bundle, drive_burner

from tests.conftest import library_bundle  # noqa: F401  (fixture helpers)


def test_burner_accounts_cpu_per_tick(framework):
    burner = CpuBurner(cpu_per_second=0.3)
    bundle = framework.install(burner_bundle(burner))
    bundle.start()
    assert burner.tick()
    assert burner.tick()
    assert bundle.ledger.cpu_seconds == 0.6
    assert burner.ticks == 2


def test_burner_memory_claim_on_start(framework):
    burner = CpuBurner(cpu_per_second=0.1, memory_bytes=4096)
    bundle = framework.install(burner_bundle(burner))
    bundle.start()
    assert bundle.ledger.memory_bytes == 4096


def test_tick_after_stop_returns_false(framework):
    burner = CpuBurner()
    bundle = framework.install(burner_bundle(burner))
    bundle.start()
    bundle.stop()
    assert not burner.running
    assert burner.tick() is False


def test_tick_on_an_invalidated_context_returns_false(framework):
    """Mid-migration the context can go invalid before ``stop`` ran."""
    burner = CpuBurner(cpu_per_second=0.3)
    bundle = framework.install(burner_bundle(burner))
    bundle.start()
    burner.context._invalidate()
    assert burner.running
    assert burner.tick() is False
    assert burner.ticks == 0
    assert bundle.ledger.cpu_seconds == 0.0


def test_unexpected_accounting_errors_propagate(framework):
    class BrokenContext:
        def account(self, cpu=0.0, memory_delta=0, disk_delta=0):
            raise KeyError("ledger")

    burner = CpuBurner()
    framework.install(burner_bundle(burner)).start()
    burner.context = BrokenContext()
    with pytest.raises(KeyError):
        burner.tick()
    assert burner.ticks == 0


def test_drive_burner_ticks_until_stop(framework):
    loop = EventLoop()
    burner = CpuBurner(cpu_per_second=0.2)
    bundle = framework.install(burner_bundle(burner))
    bundle.start()
    drive_burner(loop, burner, interval=1.0)
    loop.run_for(3.0)
    assert burner.ticks == 3
    bundle.stop()
    loop.run_for(5.0)
    assert burner.ticks == 3  # driver stopped with the bundle


def test_fresh_burner_factory_when_none_given(framework):
    b1 = framework.install(burner_bundle(name="w1", cpu_per_second=0.1))
    b2 = framework.install(burner_bundle(name="w2", cpu_per_second=0.1))
    b1.start()
    b2.start()
    assert b1._activator is not b2._activator
