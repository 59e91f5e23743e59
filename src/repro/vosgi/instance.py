"""A virtual OSGi instance: one sandboxed customer environment.

A :class:`VirtualInstance` owns a child :class:`~repro.osgi.framework.Framework`
crafted "to appear as a normal OSGi environment to its client bundles" while:

* failing class lookups fall through to the host via the
  :class:`~repro.vosgi.delegation.DelegationLoader` (explicit exports only);
* policy-exported host services appear in the child registry through a
  :class:`~repro.vosgi.delegation.ServiceMirror`;
* every sensitive operation is attributed to the customer *principal* and
  checked against the platform :class:`~repro.isolation.SecurityManager`;
* resource usage of the whole instance is aggregated for the Monitoring
  Module and compared against the customer's
  :class:`~repro.isolation.ResourceQuota`.

Because the child framework persists through the same storage interface as
any framework, a virtual instance stopped on one node and started from the
same shared store on another node is *the same environment* — the property
the Migration Module exploits.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, TYPE_CHECKING

from repro.isolation.quotas import ResourceQuota
from repro.osgi.bundle import Bundle, ResourceLedger
from repro.osgi.definition import BundleDefinition
from repro.osgi.framework import Framework
from repro.osgi.persistence import FrameworkStorage
from repro.vosgi.delegation import DelegationLoader, ExportPolicy, ServiceMirror

if TYPE_CHECKING:  # pragma: no cover
    from repro.isolation.policy import SecurityManager


class VirtualInstance:
    """One customer's sandboxed OSGi environment stacked on a host."""

    def __init__(
        self,
        name: str,
        host: Framework,
        policy: Optional[ExportPolicy] = None,
        quota: Optional[ResourceQuota] = None,
        storage: Optional[FrameworkStorage] = None,
        security: Optional["SecurityManager"] = None,
        repository: Optional[Any] = None,
    ) -> None:
        self.name = name
        self.host = host
        self.policy = policy if policy is not None else ExportPolicy()
        self.quota = quota if quota is not None else ResourceQuota()
        self.security = security
        # ``repository`` is any object with get_definition/put_definition
        # (the SharedStore qualifies): the place bundle "archives" live so a
        # restore on a different node can re-materialize them.
        self.repository = repository
        # The topmost loader reaches every bundle of the child framework
        # at install, including those a restore re-installs on start.
        self.loader = DelegationLoader(host, self.policy)
        self.framework = Framework(
            instance_id="vosgi:%s" % name,
            storage=storage,
            properties={"vosgi.instance": name, "vosgi.host": host.instance_id},
            definition_resolver=(
                repository.get_definition if repository is not None else None
            ),
            class_fallback=self.loader,
        )
        self.mirror = ServiceMirror(host, self.framework, self.policy)
        # Platform-attributed consumption (e.g. network service time the
        # ipvs charges to this customer), counted alongside bundle ledgers.
        self.platform_ledger = ResourceLedger()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self.framework.active

    def start(self) -> None:
        """Boot the child framework (restoring persisted bundles) and begin
        mirroring host services."""
        if self.running:
            return
        self.framework.start()
        self.mirror.open()

    def stop(self) -> None:
        """Persist and stop the child framework; withdraw mirrors."""
        if not self.running:
            return
        self.mirror.close()
        self.framework.stop()

    # ------------------------------------------------------------------
    # Bundle operations (the customer's view)
    # ------------------------------------------------------------------
    def install(
        self, definition: BundleDefinition, location: Optional[str] = None
    ) -> Bundle:
        if location is None:
            # Namespace the default location by instance: two customers
            # installing "the same" bundle carry *distinct archives* (their
            # definitions may close over per-customer state), and the
            # shared SAN repository must not conflate them.
            location = "bundle://%s/%s/%s" % (
                self.name,
                definition.symbolic_name,
                definition.version,
            )
        bundle = self.framework.install(definition, location)
        if self.repository is not None:
            self.repository.put_definition(bundle.location, definition)
        return bundle

    def bundles(self) -> List[Bundle]:
        return self.framework.bundles()

    def get_bundle_by_name(self, symbolic_name: str) -> Optional[Bundle]:
        return self.framework.get_bundle_by_name(symbolic_name)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def usage(self) -> Dict[str, float]:
        """Aggregate resource usage: bundle ledgers + platform-attributed."""
        cpu = self.platform_ledger.cpu_seconds
        memory = self.platform_ledger.memory_bytes
        disk = self.platform_ledger.disk_bytes
        for bundle in self.framework.bundles():
            snapshot = bundle.ledger.snapshot()
            cpu += snapshot["cpu_seconds"]
            memory += int(snapshot["memory_bytes"])
            disk += int(snapshot["disk_bytes"])
        return {
            "cpu_seconds": cpu,
            "memory_bytes": memory,
            "disk_bytes": disk,
        }

    def memory_footprint(self) -> int:
        """Notional resident size of the instance (see Framework method)."""
        return self.framework.memory_footprint()

    def __repr__(self) -> str:
        return "VirtualInstance(%s, %s, %d bundles)" % (
            self.name,
            "running" if self.running else "stopped",
            len(self.framework.bundles()) if self.framework else 0,
        )
