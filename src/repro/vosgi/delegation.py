"""Host→instance delegation: explicit exports, checked at the boundary.

The paper (§2): *"the services and packages to be exported to the virtual
instances need to be explicitly indicated. This information is then used in
a custom classloader that can be seen as the topmost classloader in the
classloader's hierarchy of the virtual instance."*

:class:`ExportPolicy` is that explicit indication. :class:`DelegationLoader`
is the custom topmost loader: consulted only after normal lookup fails, it
verifies the package is exported before asking the host framework, raising
:class:`~repro.osgi.loader.ClassNotFoundError` otherwise — so no namespace
reference crosses the boundary without administrator instruction.
:class:`ServiceMirror` applies the analogous rule to services.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, Optional, Tuple, TYPE_CHECKING

from repro.osgi.bundle import Bundle, BundleState
from repro.osgi.errors import ServiceException
from repro.osgi.events import ServiceEvent, ServiceEventType
from repro.osgi.loader import ClassNotFoundError
from repro.osgi.registry import OBJECTCLASS, ServiceReference, ServiceRegistration

if TYPE_CHECKING:  # pragma: no cover
    from repro.osgi.framework import Framework

#: Property stamped on mirrored registrations inside a virtual instance.
IMPORTED_MARK = "vosgi.imported"
#: Property naming the host service id a mirror tracks.
IMPORTED_FROM = "vosgi.host.service.id"


class ExportPolicy:
    """What one virtual instance may use from the host framework.

    Fixed at construction: a :class:`ServiceMirror` reads the exported
    service classes once, as its listener's interest set, at ``open()``.
    """

    def __init__(
        self,
        packages: Iterable[str] = (),
        service_classes: Iterable[str] = (),
    ) -> None:
        self._packages: FrozenSet[str] = frozenset(packages)
        self._service_classes: FrozenSet[str] = frozenset(service_classes)

    def allows_package(self, name: str) -> bool:
        return name in self._packages

    def allows_service(self, classes: "tuple | list") -> bool:
        return any(c in self._service_classes for c in classes)

    @property
    def service_classes(self) -> FrozenSet[str]:
        return self._service_classes

    def __repr__(self) -> str:
        return "ExportPolicy(packages=%s, services=%s)" % (
            sorted(self._packages),
            sorted(self._service_classes),
        )


class DelegationLoader:
    """The custom topmost loader of a virtual instance.

    ``(package, symbol) -> object``: verifies the export policy, then
    resolves through the *host system bundle's* class space so host wiring
    applies. Counts hits/denials for the Fig. 4 resource-sharing benchmark.
    """

    def __init__(self, host: "Framework", policy: ExportPolicy) -> None:
        self._host = host
        self.policy = policy
        self.delegated = 0
        self.denied = 0

    def __call__(self, package: str, symbol: str) -> Any:
        qualified = "%s.%s" % (package, symbol)
        if not self.policy.allows_package(package):
            self.denied += 1
            raise ClassNotFoundError(qualified, "vosgi-delegation")
        provider = self._find_host_provider(package)
        if provider is None:
            self.denied += 1
            raise ClassNotFoundError(qualified, "vosgi-delegation")
        self.delegated += 1
        return provider.namespace.load_local(package, symbol)

    def _find_host_provider(self, package: str) -> Optional[Bundle]:
        best: Optional[Bundle] = None
        best_version = None
        for bundle in self._host.bundles():
            if bundle.state == BundleState.UNINSTALLED:
                continue
            for export in bundle.definition.manifest.exports:
                if export.name != package:
                    continue
                if best is None or export.version > best_version:
                    best = bundle
                    best_version = export.version
        return best

    def __repr__(self) -> str:
        return "DelegationLoader(delegated=%d, denied=%d)" % (
            self.delegated,
            self.denied,
        )


class ServiceMirror:
    """Mirrors policy-exported host services into a child registry.

    For every host service whose object classes intersect the policy's
    exported service classes, an equivalent registration appears in the
    virtual instance (marked ``vosgi.imported``), tracking host
    registration, modification and unregistration. Client bundles inside
    the instance use the host's *single* service object — the Figure 4
    "only one instance of Bundle II" property.
    """

    def __init__(
        self, host: "Framework", child: "Framework", policy: ExportPolicy
    ) -> None:
        self._host = host
        self._child = child
        self.policy = policy
        #: host service id -> (host reference, registration in the child).
        self._mirrors: Dict[int, Tuple[ServiceReference, ServiceRegistration]] = {}
        self._active = False
        #: Withdrawals or host releases that raised; the mirror went on.
        self.release_errors = 0

    # ------------------------------------------------------------------
    def open(self) -> None:
        """Start mirroring; already-registered host services mirror now."""
        if self._active:
            return
        self._active = True
        # The policy names its classes exactly, so they double as the
        # listener's interest set: host events on other classes never
        # visit this mirror.
        self._host.dispatcher.add_service_listener(
            self._on_host_event, classes=self.policy.service_classes
        )
        for reference in self._host.registry.get_references():
            self._maybe_mirror(reference)

    def close(self) -> None:
        if not self._active:
            return
        self._active = False
        self._host.dispatcher.remove_service_listener(self._on_host_event)
        for host_service_id in list(self._mirrors):
            self._release(host_service_id)

    # ------------------------------------------------------------------
    def _on_host_event(self, event: ServiceEvent) -> None:
        if not self._active or not self._child.active:
            return
        reference = event.reference
        if event.type == ServiceEventType.REGISTERED:
            self._maybe_mirror(reference)
        elif event.type == ServiceEventType.MODIFIED:
            self._update_mirror(reference)
        elif event.type == ServiceEventType.UNREGISTERING:
            self._release(reference.service_id)

    def _maybe_mirror(self, reference: ServiceReference) -> None:
        if not self._child.active:
            return
        classes = reference.object_classes
        if not self.policy.allows_service(classes):
            return
        if reference.service_id in self._mirrors:
            return
        if reference.get_property(IMPORTED_MARK):
            return  # never re-mirror a mirror (stacked instances)
        service = self._host.registry.get_service(
            self._host.system_bundle, reference
        )
        if service is None:
            return
        registration = self._child.registry.register(
            self._child.system_bundle, classes, service, _mirrored(reference)
        )
        self._mirrors[reference.service_id] = (reference, registration)

    def _update_mirror(self, reference: ServiceReference) -> None:
        if reference.service_id not in self._mirrors:
            self._maybe_mirror(reference)
            return
        _, registration = self._mirrors[reference.service_id]
        registration.set_properties(_mirrored(reference))

    def _release(self, host_service_id: int) -> None:
        """Withdraw one mirror and give back the host use count taken when
        it was created, or stopped instances pile up phantom uses.

        A step that fails is counted and the rest of the release still
        happens: ``unregister`` raises ``ServiceException`` for a mirror
        already withdrawn, and giving back the use count runs a host
        ``ServiceFactory.unget_service``, which signals failure with
        ``RuntimeError`` (the registry's rule for ``get_service``). Any
        other exception is a bug and propagates."""
        mirror = self._mirrors.pop(host_service_id, None)
        if mirror is None:
            return
        reference, registration = mirror
        try:
            registration.unregister()
        except ServiceException:
            self.release_errors += 1
        try:
            self._host.registry.unget_service(self._host.system_bundle, reference)
        except RuntimeError:
            self.release_errors += 1

    def __repr__(self) -> str:
        return "ServiceMirror(%d mirrored, %s)" % (
            len(self._mirrors),
            "open" if self._active else "closed",
        )


def _mirrored(reference: ServiceReference) -> Dict[str, Any]:
    """The child-side properties of a mirror of ``reference``."""
    properties = {
        k: v
        for k, v in reference._raw_properties.items()
        if k not in (OBJECTCLASS, "service.id")
    }
    properties[IMPORTED_MARK] = True
    properties[IMPORTED_FROM] = reference.service_id
    return properties
