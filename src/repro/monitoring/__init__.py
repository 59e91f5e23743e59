"""Monitoring Module — §3.1, unblocked.

The paper's Monitoring Module was "stalled for technical limitations":
the 2008 JVM had no per-application resource accounting, and JSR-284 (the
Resource Consumption Management API) had no reference implementation yet.
This package provides both paths the paper discusses:

* :class:`~repro.monitoring.monitor.MonitoringModule` — the host bundle
  that watches every virtual instance, publishes per-customer usage
  reports and node-level availability, and feeds the Autonomic Module.
  Its ``"jsr284"`` mode is exact per-instance accounting read from the
  bundle ledgers (the "what we are waiting for" path, implemented);
* :mod:`~repro.monitoring.sampler` — the interim
  ThreadMXBean/ThreadGroup sampling approach (Yamasaki [15]): periodic,
  noisy, CPU-only estimates (the "what was possible in 2008" path), kept
  as a degraded mode and compared in the ABL benchmarks.
"""

from repro.monitoring.monitor import (
    MONITORING_CLASS,
    MonitoringModule,
    MonitoringModuleActivator,
    UsageReport,
    monitoring_bundle,
)
from repro.monitoring.sampler import ThreadSampler

__all__ = [
    "MONITORING_CLASS",
    "MonitoringModule",
    "MonitoringModuleActivator",
    "ThreadSampler",
    "UsageReport",
    "monitoring_bundle",
]
