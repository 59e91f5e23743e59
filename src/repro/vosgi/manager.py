"""The Instance Manager — "yet another bundle in the system" (§2).

:class:`InstanceManager` keeps the Map of virtual instances the paper
describes and controls their life-cycle; :class:`InstanceManagerActivator`
packages it as a host bundle that registers the manager in the host service
registry under :data:`INSTANCE_MANAGER_CLASS`, which is how the Monitoring,
Migration and Autonomic modules find it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.isolation.quotas import ResourceQuota
from repro.osgi.definition import BundleActivator, BundleDefinition, simple_bundle
from repro.osgi.errors import BundleException
from repro.osgi.persistence import FrameworkStorage
from repro.vosgi.delegation import ExportPolicy
from repro.vosgi.instance import VirtualInstance

if TYPE_CHECKING:  # pragma: no cover
    from repro.isolation.policy import SecurityManager
    from repro.osgi.bundle import BundleContext
    from repro.osgi.framework import Framework

#: Object class the Instance Manager service is registered under.
INSTANCE_MANAGER_CLASS = "vosgi.InstanceManager"

InstanceListener = Callable[[str, str], None]  # (event, instance_name)


class InstanceManager:
    """Creates, indexes and controls the host's virtual instances."""

    def __init__(
        self,
        host: "Framework",
        storage_factory: Optional[Callable[[str], FrameworkStorage]] = None,
        security: Optional["SecurityManager"] = None,
        repository: Optional[object] = None,
    ) -> None:
        self.host = host
        self._storage_factory = storage_factory
        self.security = security
        # Any object with get_definition/put_definition (e.g. the SAN's
        # SharedStore) from which restored instances re-read bundle archives.
        self.repository = repository
        self._instances: Dict[str, VirtualInstance] = {}
        self._listeners: List[InstanceListener] = []

    # ------------------------------------------------------------------
    # Instance life-cycle
    # ------------------------------------------------------------------
    def create_instance(
        self,
        name: str,
        policy: Optional[ExportPolicy] = None,
        quota: Optional[ResourceQuota] = None,
        start: bool = True,
    ) -> VirtualInstance:
        """Create (and by default start) a virtual instance.

        If a storage factory was configured and the shared store already
        holds state for ``vosgi:name`` — e.g. the instance previously ran
        on a failed node — starting it restores that state: this single
        code path serves both fresh admission and failure redeployment.
        """
        if name in self._instances:
            raise BundleException("virtual instance %r already exists" % name)
        storage = (
            self._storage_factory("vosgi:%s" % name)
            if self._storage_factory is not None
            else None
        )
        instance = VirtualInstance(
            name,
            self.host,
            policy=policy,
            quota=quota,
            storage=storage,
            security=self.security,
            repository=self.repository,
        )
        self._instances[name] = instance
        self._notify("created", name)
        if start:
            instance.start()
            self._notify("started", name)
        return instance

    def start_instance(self, name: str) -> None:
        instance = self.require(name)
        if not instance.running:
            instance.start()
            self._notify("started", name)

    def stop_instance(self, name: str) -> None:
        instance = self.require(name)
        if instance.running:
            instance.stop()
            self._notify("stopped", name)

    def destroy_instance(self, name: str) -> None:
        """Stop and forget an instance. Its SAN state stays, so the
        instance can be re-created elsewhere — the migration path."""
        instance = self._instances.pop(name, None)
        if instance is None:
            return
        if instance.running:
            instance.stop()
        self._notify("destroyed", name)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[VirtualInstance]:
        return self._instances.get(name)

    def require(self, name: str) -> VirtualInstance:
        instance = self._instances.get(name)
        if instance is None:
            raise BundleException("no virtual instance named %r" % name)
        return instance

    def names(self) -> List[str]:
        return sorted(self._instances)

    def instances(self) -> List[VirtualInstance]:
        return [self._instances[n] for n in self.names()]

    @property
    def count(self) -> int:
        return len(self._instances)

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def add_listener(self, listener: InstanceListener) -> None:
        if listener not in self._listeners:
            self._listeners.append(listener)

    def _notify(self, event: str, name: str) -> None:
        # A raising listener propagates: the life-cycle step it reports
        # has already happened, and the caller sees the error.
        for listener in list(self._listeners):
            listener(event, name)

    def __repr__(self) -> str:
        return "InstanceManager(%d instances on %s)" % (
            len(self._instances),
            self.host.instance_id,
        )


class InstanceManagerActivator(BundleActivator):
    """Hosts an :class:`InstanceManager` as an OSGi bundle (Figure 3)."""

    def __init__(
        self,
        storage_factory: Optional[Callable[[str], FrameworkStorage]] = None,
        security: Optional["SecurityManager"] = None,
        repository: Optional[object] = None,
    ) -> None:
        self._storage_factory = storage_factory
        self._security = security
        self._repository = repository
        self.manager: Optional[InstanceManager] = None
        self._registration = None

    def start(self, context: "BundleContext") -> None:
        self.manager = InstanceManager(
            context.framework,
            storage_factory=self._storage_factory,
            security=self._security,
            repository=self._repository,
        )
        self._registration = context.register_service(
            INSTANCE_MANAGER_CLASS, self.manager, {"vosgi.role": "instance-manager"}
        )

    def stop(self, context: "BundleContext") -> None:
        if self.manager is not None:
            for name in self.manager.names():
                self.manager.stop_instance(name)
        self._registration = None
        self.manager = None


def instance_manager_bundle(
    storage_factory: Optional[Callable[[str], FrameworkStorage]] = None,
    security: Optional["SecurityManager"] = None,
    repository: Optional[object] = None,
) -> BundleDefinition:
    """Definition for the Instance Manager bundle, ready to install."""
    return simple_bundle(
        "vosgi.instance-manager",
        version="1.0.0",
        activator_factory=lambda: InstanceManagerActivator(
            storage_factory=storage_factory,
            security=security,
            repository=repository,
        ),
    )
