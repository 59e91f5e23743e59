"""Virtual OSGi instances (VOSGi) — §2 of the paper.

The architecture stacks per-customer OSGi environments *inside* a host OSGi
environment (Figure 3), and lets the stacked instances use explicitly
exported packages and services of the host (Figure 4):

* :class:`~repro.vosgi.delegation.ExportPolicy` — the administrator's
  explicit list of host packages/service classes visible to an instance;
  nothing leaks without it.
* :class:`~repro.vosgi.instance.VirtualInstance` — a child framework with
  the *custom topmost loader*: normal lookup first, then (only on failure,
  and only for exported names) delegation to the host framework. Host
  services matching the policy are mirrored into the child registry and
  track the host dynamically.
* :class:`~repro.vosgi.manager.InstanceManagerActivator` — the Instance
  Manager as a host bundle controlling instance life-cycles.
* :mod:`~repro.vosgi.deployment` — the Figure 1/2/3 deployment cost
  models (JVM-per-customer vs shared JVM vs stacked VOSGi).
* :mod:`~repro.vosgi.remote` — Figure 1 made real: per-process instances
  managed over the network. Not re-exported here: it builds on
  :mod:`repro.cluster`, which itself imports this package.
"""

from repro.vosgi.delegation import DelegationLoader, ExportPolicy, ServiceMirror
from repro.vosgi.deployment import DeploymentCosts, DeploymentModel, estimate_costs
from repro.vosgi.instance import VirtualInstance
from repro.vosgi.manager import INSTANCE_MANAGER_CLASS, InstanceManager, InstanceManagerActivator

__all__ = [
    "DelegationLoader",
    "DeploymentCosts",
    "DeploymentModel",
    "ExportPolicy",
    "INSTANCE_MANAGER_CLASS",
    "InstanceManager",
    "InstanceManagerActivator",
    "ServiceMirror",
    "VirtualInstance",
    "estimate_costs",
]
