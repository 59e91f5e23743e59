"""A controllable CPU burner bundle."""

from __future__ import annotations

from typing import Optional

from repro.osgi.bundle import BundleContext
from repro.osgi.definition import BundleActivator, BundleDefinition, simple_bundle
from repro.osgi.errors import BundleException
from repro.sim.eventloop import EventLoop


class CpuBurner(BundleActivator):
    """Burns ``cpu_per_second`` of CPU every virtual second while driven.

    The burner is passive: something must call :meth:`tick` (directly or
    via :func:`drive_burner`) so that experiments control exactly when the
    load exists.
    """

    def __init__(self, cpu_per_second: float = 0.5, memory_bytes: int = 0) -> None:
        self.cpu_per_second = cpu_per_second
        self.memory_bytes = memory_bytes
        self.context: Optional[BundleContext] = None
        self.ticks = 0

    def start(self, context: BundleContext) -> None:
        self.context = context
        if self.memory_bytes:
            context.account(memory_delta=self.memory_bytes)

    def stop(self, context: BundleContext) -> None:
        self.context = None

    @property
    def running(self) -> bool:
        return self.context is not None

    def tick(self) -> bool:
        """Burn one second's worth of CPU; False when no longer running."""
        if self.context is None:
            return False
        try:
            self.context.account(cpu=self.cpu_per_second)
        except BundleException:
            # Context invalidated mid-migration: not running here any more.
            return False
        self.ticks += 1
        return True


def burner_bundle(
    burner: Optional[CpuBurner] = None,
    cpu_per_second: float = 0.5,
    memory_bytes: int = 0,
    name: str = "workload.burner",
) -> BundleDefinition:
    """Bundle definition wrapping a (given or fresh) burner."""
    if burner is not None:
        factory = lambda: burner  # noqa: E731 - deliberate shared instance
    else:
        factory = lambda: CpuBurner(cpu_per_second, memory_bytes)  # noqa: E731
    return simple_bundle(name, activator_factory=factory)


def drive_burner(loop: EventLoop, burner: CpuBurner, interval: float = 1.0) -> None:
    """Tick the burner every ``interval``, forever.

    While the burner's bundle is stopped (mid-migration, SLA-parked) the
    ticks are no-ops; when the bundle starts again — possibly on another
    node, through the shared activator instance — the load resumes. This
    mirrors a real customer workload, which does not vanish because its
    environment moved.
    """

    def tick() -> None:
        burner.tick()
        loop.call_after(interval, tick, label="burner")

    loop.call_after(interval, tick, label="burner")
