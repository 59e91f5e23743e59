"""Bundles: lifecycle state machine and the bundle context API.

States and transitions follow the OSGi R4 core specification:

    INSTALLED -> RESOLVED -> STARTING -> ACTIVE -> STOPPING -> RESOLVED
    INSTALLED/RESOLVED -> UNINSTALLED

Events fire on every transition; an activator failure during start rolls
the bundle back to RESOLVED and surfaces as a
:class:`~repro.osgi.errors.BundleException` with ``ACTIVATOR_ERROR``.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, TYPE_CHECKING

from repro.osgi.definition import BundleActivator, BundleDefinition
from repro.osgi.errors import BundleException
from repro.osgi.events import BundleEvent, BundleEventType
from repro.osgi.filter import Filter
from repro.osgi.loader import BundleNamespace
from repro.osgi.registry import ServiceReference, ServiceRegistration
from repro.osgi.wiring import PackageWire

if TYPE_CHECKING:  # pragma: no cover
    from repro.osgi.framework import Framework


class BundleState(enum.Enum):
    INSTALLED = "INSTALLED"
    RESOLVED = "RESOLVED"
    STARTING = "STARTING"
    ACTIVE = "ACTIVE"
    STOPPING = "STOPPING"
    UNINSTALLED = "UNINSTALLED"


class ResourceLedger:
    """Cumulative resource usage attributed to one bundle.

    Bundle code reports its own consumption through
    :meth:`BundleContext.account`; the Monitoring Module aggregates ledgers
    per virtual instance. ``memory_bytes``/``disk_bytes`` are *current*
    levels (deltas applied), ``cpu_seconds`` is cumulative.
    """

    __slots__ = ("cpu_seconds", "memory_bytes", "disk_bytes")

    def __init__(self) -> None:
        self.cpu_seconds = 0.0
        self.memory_bytes = 0
        self.disk_bytes = 0

    def account(self, cpu: float = 0.0, memory_delta: int = 0, disk_delta: int = 0) -> None:
        if cpu < 0:
            raise ValueError("cpu time cannot be negative")
        self.cpu_seconds += cpu
        self.memory_bytes = max(0, self.memory_bytes + memory_delta)
        self.disk_bytes = max(0, self.disk_bytes + disk_delta)

    def snapshot(self) -> Dict[str, float]:
        return {
            "cpu_seconds": self.cpu_seconds,
            "memory_bytes": self.memory_bytes,
            "disk_bytes": self.disk_bytes,
        }

    def __repr__(self) -> str:
        return "ResourceLedger(cpu=%.3fs, mem=%dB, disk=%dB)" % (
            self.cpu_seconds,
            self.memory_bytes,
            self.disk_bytes,
        )


class Bundle:
    """A live bundle installed in a framework."""

    def __init__(
        self,
        framework: "Framework",
        bundle_id: int,
        definition: BundleDefinition,
        location: str,
    ) -> None:
        self.framework = framework
        self.bundle_id = bundle_id
        self.definition = definition
        self.location = location
        self.state = BundleState.INSTALLED
        self.start_level = framework.initial_bundle_start_level
        self.autostart = False
        self.ledger = ResourceLedger()
        self._wires: Dict[str, PackageWire] = {}
        self._namespace = BundleNamespace(self)
        self._context: Optional[BundleContext] = None
        self._activator: Optional[BundleActivator] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def symbolic_name(self) -> str:
        return self.definition.symbolic_name

    @property
    def version(self):
        return self.definition.version

    @property
    def context(self) -> Optional["BundleContext"]:
        """The bundle's context; valid only while STARTING/ACTIVE/STOPPING."""
        return self._context

    @property
    def wires(self) -> Dict[str, PackageWire]:
        return dict(self._wires)

    @property
    def namespace(self) -> BundleNamespace:
        return self._namespace

    def load_class(self, qualified_name: str) -> Any:
        """Load a symbol through this bundle's class space."""
        self._ensure_not_uninstalled()
        if self.state == BundleState.INSTALLED:
            self.framework._resolve_bundle(self)
        return self._namespace.load(qualified_name)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Resolve if needed, run the activator and go ACTIVE."""
        self._ensure_not_uninstalled()
        if self.state == BundleState.ACTIVE:
            return
        if self.state in (BundleState.STARTING, BundleState.STOPPING):
            raise BundleException(
                "%s is mid-transition (%s)" % (self.symbolic_name, self.state.value),
                BundleException.STATECHANGE_ERROR,
            )
        if self.state == BundleState.INSTALLED:
            self.framework._resolve_bundle(self)
        self.autostart = True
        try:
            # Above the framework start level the bundle is only marked
            # for activation; the mark is persisted either way.
            if self.start_level <= self.framework.start_level:
                self._do_start()
        finally:
            self.framework._changed()

    def _do_start(self) -> None:
        self.state = BundleState.STARTING
        self._context = BundleContext(self)
        self.framework._fire_bundle_event(BundleEventType.STARTING, self)
        activator = self.definition.create_activator()
        self._activator = activator
        if activator is not None:
            try:
                activator.start(self._context)
            except Exception as exc:
                self._cleanup_after_stop()
                self.state = BundleState.RESOLVED
                raise BundleException(
                    "activator of %s failed to start: %s" % (self.symbolic_name, exc),
                    BundleException.ACTIVATOR_ERROR,
                ) from exc
        self.state = BundleState.ACTIVE
        self.framework._fire_bundle_event(BundleEventType.STARTED, self)

    def stop(self) -> None:
        """Run the activator's stop and return to RESOLVED."""
        self._ensure_not_uninstalled()
        self.autostart = False
        try:
            if self.state == BundleState.ACTIVE:
                self._do_stop()
        finally:
            self.framework._changed()

    def _do_stop(self) -> None:
        self.state = BundleState.STOPPING
        self.framework._fire_bundle_event(BundleEventType.STOPPING, self)
        error: Optional[Exception] = None
        if self._activator is not None:
            try:
                self._activator.stop(self._context)
            except Exception as exc:  # spec: bundle still stops
                error = exc
        self._cleanup_after_stop()
        self.state = BundleState.RESOLVED
        self.framework._fire_bundle_event(BundleEventType.STOPPED, self)
        if error is not None:
            raise BundleException(
                "activator of %s failed to stop: %s" % (self.symbolic_name, error),
                BundleException.ACTIVATOR_ERROR,
            ) from error

    def _cleanup_after_stop(self) -> None:
        registry = self.framework.registry
        registry.unregister_all(self)
        registry.release_all(self)
        if self._context is not None:
            self._context._invalidate()
        self._context = None
        self._activator = None

    def update(self, new_definition: BundleDefinition) -> None:
        """Replace the bundle's content, preserving identity and autostart."""
        self._ensure_not_uninstalled()
        was_active = self.state == BundleState.ACTIVE
        if was_active:
            self._do_stop()
        if self.state == BundleState.RESOLVED:
            self.framework._fire_bundle_event(BundleEventType.UNRESOLVED, self)
        self._wires = {}
        self.definition = new_definition
        self.state = BundleState.INSTALLED
        self.framework._fire_bundle_event(BundleEventType.UPDATED, self)
        self.framework._changed()
        if was_active:
            self.autostart = True
            self.framework._resolve_bundle(self)
            if self.start_level <= self.framework.start_level:
                self._do_start()

    def uninstall(self) -> None:
        """Remove the bundle from the framework permanently."""
        self._ensure_not_uninstalled()
        if self.state == BundleState.ACTIVE:
            self._do_stop()
        if self.state == BundleState.RESOLVED:
            self.framework._fire_bundle_event(BundleEventType.UNRESOLVED, self)
        self._wires = {}
        self.state = BundleState.UNINSTALLED
        self.framework._remove_bundle(self)
        self.framework._fire_bundle_event(BundleEventType.UNINSTALLED, self)
        self.framework._changed()

    def _install_wires(self, wires: Dict[str, PackageWire]) -> None:
        if self.state != BundleState.INSTALLED:
            return
        self._wires = dict(wires)
        self.state = BundleState.RESOLVED
        self.framework._fire_bundle_event(BundleEventType.RESOLVED, self)

    def _ensure_not_uninstalled(self) -> None:
        if self.state == BundleState.UNINSTALLED:
            raise BundleException(
                "%s is uninstalled" % self.symbolic_name,
                BundleException.INVALID_OPERATION,
            )

    def __repr__(self) -> str:
        return "Bundle(#%d %s %s, %s)" % (
            self.bundle_id,
            self.symbolic_name,
            self.version,
            self.state.value,
        )


class BundleContext:
    """The API surface a bundle uses to talk to its framework.

    Valid only between STARTING and the end of STOPPING; every method
    raises :class:`~repro.osgi.errors.BundleException` after invalidation,
    matching the ``IllegalStateException`` behaviour of real OSGi.
    """

    def __init__(self, bundle: Bundle) -> None:
        self._bundle = bundle
        self._valid = True

    # -- identity -------------------------------------------------------
    @property
    def bundle(self) -> Bundle:
        return self._bundle

    @property
    def framework(self) -> "Framework":
        return self._bundle.framework

    def get_property(self, key: str, default: Any = None) -> Any:
        """Read a framework property (launch configuration)."""
        self._check_valid()
        return self._bundle.framework.properties.get(key, default)

    # -- bundle management ------------------------------------------------
    def install_bundle(
        self,
        definition: BundleDefinition,
        location: Optional[str] = None,
        verify: bool = False,
    ) -> Bundle:
        """Install through this context; ``verify=True`` runs the static
        bundle verifier first (see :meth:`Framework.install`)."""
        self._check_valid()
        return self._bundle.framework.install(definition, location, verify=verify)

    def get_bundle(self, bundle_id: int) -> Optional[Bundle]:
        self._check_valid()
        return self._bundle.framework.get_bundle(bundle_id)

    def get_bundles(self) -> List[Bundle]:
        self._check_valid()
        return self._bundle.framework.bundles()

    # -- services ---------------------------------------------------------
    def register_service(
        self,
        classes: "str | Sequence[str]",
        service: Any,
        properties: Optional[Mapping[str, Any]] = None,
    ) -> ServiceRegistration:
        self._check_valid()
        return self._bundle.framework.registry.register(
            self._bundle, classes, service, properties
        )

    def get_service_reference(
        self, clazz: str, filter: "str | Filter | None" = None
    ) -> Optional[ServiceReference]:
        self._check_valid()
        return self._bundle.framework._lookup_reference(self._bundle, clazz, filter)

    def get_service_references(
        self, clazz: Optional[str] = None, filter: "str | Filter | None" = None
    ) -> List[ServiceReference]:
        self._check_valid()
        return self._bundle.framework._lookup_references(self._bundle, clazz, filter)

    def get_service(self, reference: ServiceReference) -> Any:
        self._check_valid()
        return self._bundle.framework.registry.get_service(self._bundle, reference)

    def unget_service(self, reference: ServiceReference) -> bool:
        self._check_valid()
        return self._bundle.framework.registry.unget_service(self._bundle, reference)

    # -- listeners ----------------------------------------------------------
    def add_bundle_listener(self, listener: Callable) -> None:
        self._check_valid()
        self._bundle.framework.dispatcher.add_bundle_listener(listener)

    def remove_bundle_listener(self, listener: Callable) -> None:
        self._check_valid()
        self._bundle.framework.dispatcher.remove_bundle_listener(listener)

    def add_service_listener(
        self,
        listener: Callable,
        filter: "str | Filter | None" = None,
        classes: Optional[Sequence[str]] = None,
    ) -> None:
        """Register a service listener.

        ``classes`` optionally names the objectClasses the listener cares
        about so the dispatcher can index it (see
        :meth:`EventDispatcher.add_service_listener`).
        """
        self._check_valid()
        parsed = self._bundle.framework._parse_filter(filter)
        self._bundle.framework.dispatcher.add_service_listener(
            listener, parsed, classes=classes
        )

    def remove_service_listener(self, listener: Callable) -> None:
        self._check_valid()
        self._bundle.framework.dispatcher.remove_service_listener(listener)

    def add_framework_listener(self, listener: Callable) -> None:
        self._check_valid()
        self._bundle.framework.dispatcher.add_framework_listener(listener)

    def remove_framework_listener(self, listener: Callable) -> None:
        self._check_valid()
        self._bundle.framework.dispatcher.remove_framework_listener(listener)

    # -- persistence & accounting -------------------------------------------
    def get_data_store(self) -> "Any":
        """Per-bundle persistent key-value area (survives restarts/migration).

        Backed by the framework's storage, which in the distributed setting
        lives on the SAN — this is exactly the "persistent state accessible
        by the other nodes" of §3.2.
        """
        self._check_valid()
        return self._bundle.framework.storage.bundle_data(
            self._bundle.framework.instance_id, self._bundle.symbolic_name
        )

    def account(
        self, cpu: float = 0.0, memory_delta: int = 0, disk_delta: int = 0
    ) -> None:
        """Report resource consumption, metered by the Monitoring Module."""
        self._check_valid()
        self._bundle.ledger.account(cpu, memory_delta, disk_delta)
        self._bundle.framework._notify_consumption(
            self._bundle, cpu, memory_delta, disk_delta
        )

    def load_class(self, qualified_name: str) -> Any:
        self._check_valid()
        return self._bundle.load_class(qualified_name)

    # -- validity ------------------------------------------------------------
    def _invalidate(self) -> None:
        self._valid = False

    def _check_valid(self) -> None:
        if not self._valid:
            raise BundleException(
                "bundle context of %s is no longer valid"
                % self._bundle.symbolic_name,
                BundleException.INVALID_OPERATION,
            )

    def __repr__(self) -> str:
        return "BundleContext(%s, %s)" % (
            self._bundle.symbolic_name,
            "valid" if self._valid else "invalid",
        )
