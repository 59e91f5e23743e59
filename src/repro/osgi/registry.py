"""The OSGi service registry.

Services are plain Python objects published under one or more *object
class* names with a property dictionary. Lookup supports LDAP filters,
``service.ranking`` ordering (highest ranking wins, ties broken by lowest
``service.id`` — i.e. oldest registration), per-bundle use counting and
service factories producing a distinct instance per consuming bundle.
"""

from __future__ import annotations

from bisect import insort
from operator import attrgetter
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.osgi.errors import ServiceException
from repro.osgi.events import (
    EventDispatcher,
    ServiceEvent,
    ServiceEventType,
)
from repro.osgi.filter import Filter, parse_filter

#: Well-known property names, as in the OSGi spec.
OBJECTCLASS = "objectClass"
SERVICE_ID = "service.id"
SERVICE_RANKING = "service.ranking"

#: Bucket order key: ``(-ranking, service.id)``, best first.
_ORDER_KEY = attrgetter("_order_key")


class ServiceFactory:
    """Produce a per-bundle service instance.

    Register a subclass instead of a plain object to hand each consuming
    bundle its own instance (the OSGi ``ServiceFactory`` pattern — used in
    this reproduction to give each virtual instance a private facade over a
    shared base service). A subclass defines ``get_service(bundle,
    registration)`` and ``unget_service(bundle, registration, service)``,
    which the registry calls when that bundle's use count drops to zero.
    A ``RuntimeError`` from ``get_service`` reaches the consumer as a
    :class:`ServiceException` (``FACTORY_ERROR``); any other exception,
    and any exception from ``unget_service``, propagates as itself.
    """

    def get_service(self, bundle: Any, registration: "ServiceRegistration") -> Any:
        raise NotImplementedError


class ServiceReference:
    """Handle to a registered service; safe to hold after unregistration."""

    def __init__(self, registration: "ServiceRegistration") -> None:
        self._registration = registration

    @property
    def properties(self) -> Dict[str, Any]:
        """A copy of the service properties."""
        return dict(self._registration._properties)

    @property
    def _raw_properties(self) -> Mapping[str, Any]:
        """The live property mapping — read-only use on hot paths only."""
        return self._registration._properties

    def get_property(self, key: str) -> Any:
        return self._registration._properties.get(key)

    @property
    def service_id(self) -> int:
        return self._registration._properties[SERVICE_ID]

    @property
    def ranking(self) -> int:
        value = self._registration._properties.get(SERVICE_RANKING, 0)
        return value if isinstance(value, int) else 0

    @property
    def object_classes(self) -> Sequence[str]:
        return tuple(self._registration._properties[OBJECTCLASS])

    @property
    def bundle(self) -> Any:
        """The bundle that registered the service (None after unregister)."""
        return self._registration._bundle

    @property
    def using_bundles(self) -> List[Any]:
        return list(self._registration._use_counts)

    @property
    def registered(self) -> bool:
        return self._registration._registered

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ServiceReference):
            return NotImplemented
        return self._registration is other._registration

    def __hash__(self) -> int:
        return id(self._registration)

    def __repr__(self) -> str:
        classes = ",".join(self._registration._properties.get(OBJECTCLASS, ()))
        return "ServiceReference(id=%s, %s)" % (
            self._registration._properties.get(SERVICE_ID),
            classes,
        )


class ServiceRegistration:
    """The registrar-side handle: update properties or unregister."""

    def __init__(
        self,
        registry: "ServiceRegistry",
        bundle: Any,
        service: Any,
        properties: Dict[str, Any],
    ) -> None:
        self._registry = registry
        self._bundle = bundle
        self._service = service
        self._properties = properties
        self._registered = True
        self._reference = ServiceReference(self)
        self._use_counts: Dict[Any, int] = {}
        self._factory_instances: Dict[Any, Any] = {}
        self._order_key = self._compute_order_key()

    def _compute_order_key(self) -> "tuple[int, int]":
        ranking = self._properties.get(SERVICE_RANKING, 0)
        if not isinstance(ranking, int):
            ranking = 0
        return (-ranking, self._properties[SERVICE_ID])

    @property
    def reference(self) -> ServiceReference:
        if not self._registered:
            raise ServiceException(
                "service already unregistered", ServiceException.UNREGISTERED
            )
        return self._reference

    def set_properties(self, properties: Mapping[str, Any]) -> None:
        """Replace mutable properties; objectClass and service.id are pinned."""
        if not self._registered:
            raise ServiceException(
                "cannot modify unregistered service", ServiceException.UNREGISTERED
            )
        pinned = {
            OBJECTCLASS: self._properties[OBJECTCLASS],
            SERVICE_ID: self._properties[SERVICE_ID],
        }
        updated = {str(k): v for k, v in properties.items()}
        updated.update(pinned)
        self._properties = updated
        self._registry._reindex(self)
        dispatcher = self._registry._dispatcher
        if dispatcher._service_entries:
            dispatcher.fire_service_event(
                ServiceEvent(ServiceEventType.MODIFIED, self._reference)
            )

    def unregister(self) -> None:
        """Withdraw the service; fires UNREGISTERING before removal."""
        if not self._registered:
            raise ServiceException(
                "service already unregistered", ServiceException.UNREGISTERED
            )
        self._registry._unregister(self)

    def __repr__(self) -> str:
        return "ServiceRegistration(%r)" % (self._properties.get(OBJECTCLASS),)


class ServiceRegistry:
    """Central registry; one per framework instance.

    Registrations live in an insertion-ordered ``id -> registration``
    dict (O(1) unregister) and in a per-objectClass index whose buckets
    are kept in ``(-ranking, service.id)`` order, so class-scoped lookup
    is O(matching services) with no per-call sort.
    """

    def __init__(self, dispatcher: EventDispatcher) -> None:
        self._dispatcher = dispatcher
        self._registrations: Dict[int, ServiceRegistration] = {}
        self._by_class: Dict[str, List[ServiceRegistration]] = {}
        self._next_id = 1
        #: Lookup count, read by the ``registry.lookups`` pull gauge.
        self.lookups = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        bundle: Any,
        classes: "str | Sequence[str]",
        service: Any,
        properties: Optional[Mapping[str, Any]] = None,
    ) -> ServiceRegistration:
        if isinstance(classes, str):
            classes = (classes,)
        classes = tuple(classes)
        if not classes:
            raise ServiceException("at least one object class required")
        if service is None:
            raise ServiceException("cannot register a None service")
        props: Dict[str, Any] = {str(k): v for k, v in (properties or {}).items()}
        props[OBJECTCLASS] = classes
        props[SERVICE_ID] = self._next_id
        self._next_id += 1
        registration = ServiceRegistration(self, bundle, service, props)
        self._registrations[props[SERVICE_ID]] = registration
        for clazz in classes:
            insort(self._by_class.setdefault(clazz, []), registration, key=_ORDER_KEY)
        if self._dispatcher._service_entries:
            self._dispatcher.fire_service_event(
                ServiceEvent(ServiceEventType.REGISTERED, registration._reference)
            )
        return registration

    def _unregister(self, registration: ServiceRegistration) -> None:
        if self._dispatcher._service_entries:
            self._dispatcher.fire_service_event(
                ServiceEvent(ServiceEventType.UNREGISTERING, registration._reference)
            )
        registration._registered = False
        registration._bundle = None
        registration._use_counts.clear()
        registration._factory_instances.clear()
        if self._registrations.pop(registration._properties[SERVICE_ID], None) is None:
            return  # reentrant unregister during the UNREGISTERING event
        for clazz in registration._properties[OBJECTCLASS]:
            bucket = self._by_class[clazz]
            bucket.remove(registration)
            if not bucket:
                del self._by_class[clazz]

    def _reindex(self, registration: ServiceRegistration) -> None:
        """Restore bucket order after a property change touched the ranking."""
        old_key = registration._order_key
        new_key = registration._compute_order_key()
        if new_key == old_key:
            return
        registration._order_key = new_key
        for clazz in registration._properties[OBJECTCLASS]:
            bucket = self._by_class.get(clazz)
            if bucket is not None:
                bucket.sort(key=_ORDER_KEY)

    def unregister_all(self, bundle: Any) -> int:
        """Withdraw every service the bundle registered; returns the count."""
        mine = [r for r in self._registrations.values() if r._bundle is bundle]
        for registration in mine:
            self._unregister(registration)
        return len(mine)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get_references(
        self,
        clazz: Optional[str] = None,
        filter: "str | Filter | None" = None,
    ) -> List[ServiceReference]:
        """All matching references, best-first (ranking, then age)."""
        self.lookups += 1
        parsed: Optional[Filter] = None
        if filter is not None:
            parsed = filter if isinstance(filter, Filter) else parse_filter(filter)
        if clazz is not None:
            # Indexed path: the bucket is already in (-ranking, id) order.
            bucket = self._by_class.get(clazz)
            if not bucket:
                return []
            if parsed is None:
                return [r._reference for r in bucket]
            match = parsed._match
            return [r._reference for r in bucket if match(r._properties)]
        pool: Iterable[ServiceRegistration] = self._registrations.values()
        if parsed is not None:
            match = parsed._match
            pool = [r for r in pool if match(r._properties)]
        return [r._reference for r in sorted(pool, key=_ORDER_KEY)]

    def get_reference(
        self, clazz: str, filter: "str | Filter | None" = None
    ) -> Optional[ServiceReference]:
        """The best matching reference, or None."""
        if clazz is None:
            refs = self.get_references(None, filter)
            return refs[0] if refs else None
        if filter is None:
            bucket = self._by_class.get(clazz)
            return bucket[0]._reference if bucket else None
        parsed = filter if isinstance(filter, Filter) else parse_filter(filter)
        match = parsed._match
        for registration in self._by_class.get(clazz, ()):
            if match(registration._properties):
                return registration._reference
        return None

    # ------------------------------------------------------------------
    # Use counting
    # ------------------------------------------------------------------
    def get_service(self, bundle: Any, reference: ServiceReference) -> Any:
        """Obtain the service object for ``bundle``, bumping its use count."""
        registration = reference._registration
        if not registration._registered:
            return None
        service = registration._service
        if isinstance(service, ServiceFactory):
            if bundle not in registration._factory_instances:
                try:
                    instance = service.get_service(bundle, registration)
                except RuntimeError as exc:
                    # The spec's FACTORY_ERROR wrap, for the failure a
                    # factory signals; any other exception is a bug in the
                    # factory and surfaces as itself.
                    raise ServiceException(
                        "service factory failed: %s" % exc,
                        ServiceException.FACTORY_ERROR,
                    ) from exc
                if instance is None:
                    raise ServiceException(
                        "service factory returned None",
                        ServiceException.FACTORY_ERROR,
                    )
                registration._factory_instances[bundle] = instance
            service = registration._factory_instances[bundle]
        registration._use_counts[bundle] = registration._use_counts.get(bundle, 0) + 1
        return service

    def unget_service(self, bundle: Any, reference: ServiceReference) -> bool:
        """Drop one use; returns False when the bundle held no use."""
        registration = reference._registration
        count = registration._use_counts.get(bundle, 0)
        if count == 0:
            return False
        if count == 1:
            del registration._use_counts[bundle]
            factory_instance = registration._factory_instances.pop(bundle, None)
            if factory_instance is not None and isinstance(
                registration._service, ServiceFactory
            ):
                registration._service.unget_service(
                    bundle, registration, factory_instance
                )
        else:
            registration._use_counts[bundle] = count - 1
        return True

    def services_of(self, bundle: Any) -> List[ServiceReference]:
        """References to services registered by ``bundle``."""
        return [
            r._reference for r in self._registrations.values() if r._bundle is bundle
        ]

    def in_use_by(self, bundle: Any) -> List[ServiceReference]:
        """References to services ``bundle`` currently holds uses of."""
        return [
            r._reference
            for r in self._registrations.values()
            if bundle in r._use_counts
        ]

    def release_all(self, bundle: Any) -> None:
        """Drop every use held by ``bundle`` (on bundle stop)."""
        for registration in list(self._registrations.values()):
            if bundle in registration._use_counts:
                registration._use_counts.pop(bundle, None)
                instance = registration._factory_instances.pop(bundle, None)
                if instance is not None and isinstance(
                    registration._service, ServiceFactory
                ):
                    registration._service.unget_service(
                        bundle, registration, instance
                    )

    @property
    def size(self) -> int:
        return len(self._registrations)

    def __repr__(self) -> str:
        return "ServiceRegistry(%d services)" % len(self._registrations)
