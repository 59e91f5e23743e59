"""The Monitoring Module bundle.

Periodically inspects every virtual instance on the node, computes a
:class:`UsageReport` per instance (CPU share over the last window, memory
and disk levels), compares it against the customer's quota, and notifies
listeners — the Autonomic Module chief among them. It keeps only the
latest report per instance. Two accounting modes:

* ``"jsr284"`` — exact per-instance accounting, read from the bundle
  ledgers (what the paper waited on JSR-284 for);
* ``"sampling"`` — CPU-only and noisy, through a
  :class:`~repro.monitoring.sampler.ThreadSampler` (the paper's 2008
  reality; memory reads ``None``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.monitoring.sampler import (
    PROBE_CPU_SECONDS,
    PROBE_DISK_BYTES,
    PROBE_MEMORY_BYTES,
    ThreadSampler,
)
from repro.osgi.definition import BundleActivator, BundleDefinition, simple_bundle
from repro.sim.eventloop import EventLoop, ScheduledEvent
from repro.telemetry.metrics import MetricsRegistry
from repro.vosgi.manager import INSTANCE_MANAGER_CLASS, InstanceManager

#: Object class the Monitoring Module service is registered under.
MONITORING_CLASS = "monitoring.MonitoringModule"

#: CPU share overshoot tolerated before a report flags violation (10%).
CPU_TOLERANCE = 1.10

ReportListener = Callable[["UsageReport"], None]


@dataclass(frozen=True)
class UsageReport:
    """One instance's usage over the last monitoring window."""

    instance: str
    at: float
    window: float
    cpu_share: float
    cpu_seconds_total: float
    memory_bytes: Optional[int]
    disk_bytes: Optional[int]
    quota_cpu_share: float
    quota_memory_bytes: int
    quota_disk_bytes: int

    @property
    def cpu_violation(self) -> bool:
        return self.cpu_share > self.quota_cpu_share * CPU_TOLERANCE

    @property
    def memory_violation(self) -> bool:
        if self.memory_bytes is None:
            return False  # sampling mode cannot see memory
        return self.memory_bytes > self.quota_memory_bytes

    @property
    def disk_violation(self) -> bool:
        if self.disk_bytes is None:
            return False
        return self.disk_bytes > self.quota_disk_bytes

    @property
    def any_violation(self) -> bool:
        return self.cpu_violation or self.memory_violation or self.disk_violation


class MonitoringModule:
    """Samples instances and publishes usage reports."""

    def __init__(
        self,
        loop: EventLoop,
        manager: InstanceManager,
        cpu_capacity: float = 1.0,
        memory_capacity: int = 4 * 1024 * 1024 * 1024,
        disk_capacity: int = 64 * 1024 * 1024 * 1024,
        interval: float = 1.0,
        mode: str = "jsr284",
        sampler: Optional[ThreadSampler] = None,
    ) -> None:
        if mode not in ("jsr284", "sampling"):
            raise ValueError("mode must be 'jsr284' or 'sampling': %r" % mode)
        if mode == "sampling" and sampler is None:
            raise ValueError("sampling mode requires a ThreadSampler")
        self._loop = loop
        self.manager = manager
        self.cpu_capacity = cpu_capacity
        self.memory_capacity = memory_capacity
        self.disk_capacity = disk_capacity
        self.interval = interval
        self.mode = mode
        self.sampler = sampler
        #: Raw probe readings, one labelled gauge series per instance —
        #: the single sampling path both accounting modes read through.
        self.metrics = MetricsRegistry()
        #: The last report per instance; the next window's CPU delta
        #: starts from its ``cpu_seconds_total``.
        self._latest: Dict[str, UsageReport] = {}
        self._listeners: List[ReportListener] = []
        self._timer: Optional[ScheduledEvent] = None
        self.running = False
        self.ticks = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self._arm()

    def stop(self) -> None:
        self.running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _arm(self) -> None:
        self._timer = self._loop.call_after(self.interval, self._tick, label="monitor")

    def _tick(self) -> None:
        if not self.running:
            return
        self.ticks += 1
        now = self._loop.clock.now
        for instance in self.manager.instances():
            report = self._measure(instance, now)
            self._latest[instance.name] = report
            # A raising listener stops the run (it is a platform bug).
            for listener in list(self._listeners):
                listener(report)
        self._arm()

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def _probe(self, instance) -> None:
        """Publish the instance's raw usage into the probe gauges."""
        usage = instance.usage()
        name = instance.name
        self.metrics.gauge(PROBE_CPU_SECONDS, instance=name).set(
            float(usage["cpu_seconds"])
        )
        self.metrics.gauge(PROBE_MEMORY_BYTES, instance=name).set(
            float(int(usage["memory_bytes"]))
        )
        self.metrics.gauge(PROBE_DISK_BYTES, instance=name).set(
            float(int(usage["disk_bytes"]))
        )

    def _measure(self, instance, now: float) -> UsageReport:
        self._probe(instance)
        name = instance.name
        if self.mode == "sampling":
            assert self.sampler is not None
            cpu_total, memory = self.sampler.sample_from(self.metrics, name)
            disk: Optional[int] = None
        else:
            cpu_total = self.metrics.gauge(PROBE_CPU_SECONDS, instance=name).value
            memory = int(self.metrics.gauge(PROBE_MEMORY_BYTES, instance=name).value)
            disk = int(self.metrics.gauge(PROBE_DISK_BYTES, instance=name).value)
        last = self._latest.get(name)
        previous = cpu_total if last is None else last.cpu_seconds_total
        delta = max(0.0, cpu_total - previous)
        share = delta / (self.interval * self.cpu_capacity)
        return UsageReport(
            instance=instance.name,
            at=now,
            window=self.interval,
            cpu_share=share,
            cpu_seconds_total=cpu_total,
            memory_bytes=memory,
            disk_bytes=disk,
            quota_cpu_share=instance.quota.cpu_share,
            quota_memory_bytes=instance.quota.memory_bytes,
            quota_disk_bytes=instance.quota.disk_bytes,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def latest(self, instance_name: str) -> Optional[UsageReport]:
        return self._latest.get(instance_name)

    def node_summary(self) -> Dict[str, float]:
        """Whole-node view: used and available capacity right now."""
        cpu_used = 0.0
        memory_used = 0
        disk_used = 0
        for instance in self.manager.instances():
            report = self.latest(instance.name)
            if report is None:
                continue
            cpu_used += report.cpu_share
            memory_used += report.memory_bytes or 0
            disk_used += report.disk_bytes or 0
        return {
            "cpu_used_share": cpu_used,
            "cpu_available_share": max(0.0, 1.0 - cpu_used),
            "memory_used_bytes": memory_used,
            "memory_available_bytes": max(0, self.memory_capacity - memory_used),
            "disk_used_bytes": disk_used,
            "disk_available_bytes": max(0, self.disk_capacity - disk_used),
            "instances": float(self.manager.count),
        }

    def add_listener(self, listener: ReportListener) -> None:
        if listener not in self._listeners:
            self._listeners.append(listener)

    def remove_listener(self, listener: ReportListener) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    def forget(self, instance_name: str) -> None:
        """Drop the latest report and probe gauges for a departed instance."""
        self._latest.pop(instance_name, None)
        for gauge_name in (PROBE_CPU_SECONDS, PROBE_MEMORY_BYTES, PROBE_DISK_BYTES):
            self.metrics.remove(gauge_name, instance=instance_name)

    def __repr__(self) -> str:
        return "MonitoringModule(%s, interval=%.2fs, ticks=%d)" % (
            self.mode,
            self.interval,
            self.ticks,
        )


class MonitoringModuleActivator(BundleActivator):
    """Packages the Monitoring Module as a host bundle.

    Finds the Instance Manager through the service registry (the modules
    are deliberately decoupled, §3) and registers the module under
    :data:`MONITORING_CLASS`.
    """

    def __init__(self, loop: EventLoop, **kwargs) -> None:
        self._loop = loop
        self._kwargs = kwargs
        self.module: Optional[MonitoringModule] = None

    def start(self, context) -> None:
        reference = context.get_service_reference(INSTANCE_MANAGER_CLASS)
        if reference is None:
            raise RuntimeError("Monitoring Module requires the Instance Manager")
        manager = context.get_service(reference)
        self.module = MonitoringModule(self._loop, manager, **self._kwargs)
        self.module.start()
        context.register_service(MONITORING_CLASS, self.module)

    def stop(self, context) -> None:
        if self.module is not None:
            self.module.stop()
            self.module = None


def monitoring_bundle(loop: EventLoop, **kwargs) -> BundleDefinition:
    """Definition for the Monitoring Module bundle."""
    return simple_bundle(
        "monitoring.module",
        version="1.0.0",
        activator_factory=lambda: MonitoringModuleActivator(loop, **kwargs),
    )
