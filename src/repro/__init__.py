"""Dependable Distributed OSGi Environment — reproduction of Matos & Sousa (MW4SOC 2008).

The package implements, from scratch and in pure Python:

* an OSGi-R4-style module and service framework (:mod:`repro.osgi`),
* virtual OSGi instances stacked on a host framework (:mod:`repro.vosgi`),
* a SecurityManager-style isolation layer (:mod:`repro.isolation`),
* a JSR-284-style resource monitoring module (:mod:`repro.monitoring`),
* a jGCS-style group communication system (:mod:`repro.gcs`) over a
  deterministic discrete-event simulation substrate (:mod:`repro.sim`),
* a SAN-style shared store (:mod:`repro.storage`),
* the Migration Module (:mod:`repro.migration`),
* an ipvs-style IP virtual server (:mod:`repro.ipvs`),
* the Serpentine-style Autonomic Module (:mod:`repro.autonomic`) and SLA
  layer (:mod:`repro.sla`),
* the base services the paper's prototype exported — log, HTTP, JMX
  (:mod:`repro.services`) — and reusable customer workloads
  (:mod:`repro.workloads`),
* causal distributed tracing and metrics over virtual time
  (:mod:`repro.telemetry`),
* and the integrating platform facade (:mod:`repro.core`).

Quickstart::

    from repro.core import DependableEnvironment

    env = DependableEnvironment.build(node_count=3, seed=7)
    customer = env.admit_customer("acme", cpu_share=0.25, memory_mb=256)
    env.run_for(10.0)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
