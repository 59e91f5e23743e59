"""A from-scratch OSGi-R4-style module and service framework.

This package reproduces the OSGi semantics the paper depends on:

* **Modularity** — bundles declare exported and imported packages in a
  manifest; a resolver wires imports to compatible exporters and each bundle
  sees classes only through its own namespace loader
  (:mod:`repro.osgi.loader`), the analogue of Java classloader isolation.
* **Dynamicity** — bundles are installed, started, stopped, updated and
  uninstalled at run time (:mod:`repro.osgi.bundle`,
  :mod:`repro.osgi.framework`), with events fired on every transition.
* **Service orientation** — a service registry with LDAP filters, service
  ranking and per-bundle use counting (:mod:`repro.osgi.registry`,
  :mod:`repro.osgi.filter`).
* **Persistent framework state** — the spec-mandated property §3.2 of the
  paper builds on: which bundles are installed and whether they were active
  survives framework restarts (:mod:`repro.osgi.persistence`).
"""

from repro.osgi.bundle import Bundle, BundleContext, BundleState
from repro.osgi.definition import BundleActivator, BundleDefinition
from repro.osgi.errors import (
    BundleException,
    FrameworkError,
    InvalidSyntaxError,
    OSGiError,
    ResolutionError,
    ServiceException,
)
from repro.osgi.events import (
    BundleEvent,
    BundleEventType,
    FrameworkEvent,
    FrameworkEventType,
    ServiceEvent,
    ServiceEventType,
)
from repro.osgi.filter import Filter, parse_filter
from repro.osgi.framework import Framework
from repro.osgi.manifest import ExportedPackage, ImportedPackage, Manifest
from repro.osgi.registry import ServiceReference, ServiceRegistration, ServiceRegistry
from repro.osgi.version import Version, VersionRange

__all__ = [
    "Bundle",
    "BundleActivator",
    "BundleContext",
    "BundleDefinition",
    "BundleEvent",
    "BundleEventType",
    "BundleException",
    "BundleState",
    "ExportedPackage",
    "Filter",
    "Framework",
    "FrameworkError",
    "FrameworkEvent",
    "FrameworkEventType",
    "ImportedPackage",
    "InvalidSyntaxError",
    "Manifest",
    "OSGiError",
    "ResolutionError",
    "ServiceEvent",
    "ServiceEventType",
    "ServiceException",
    "ServiceReference",
    "ServiceRegistration",
    "ServiceRegistry",
    "Version",
    "VersionRange",
    "parse_filter",
]
