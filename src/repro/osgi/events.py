"""Framework, bundle and service events with synchronous dispatch.

OSGi delivers lifecycle changes to registered listeners; this module keeps
the same three event families and a small dispatcher that isolates listener
failures (a throwing listener produces a FrameworkEvent ERROR instead of
breaking the publisher, as the spec requires).

Publishers test the family's listener container (``_bundle_listeners``,
``_service_entries``, ``_framework_listeners``) before building an event,
so an unobserved transition costs one truth test and no event object.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional


class BundleEventType(enum.Enum):
    INSTALLED = "INSTALLED"
    RESOLVED = "RESOLVED"
    STARTING = "STARTING"
    STARTED = "STARTED"
    STOPPING = "STOPPING"
    STOPPED = "STOPPED"
    UPDATED = "UPDATED"
    UNRESOLVED = "UNRESOLVED"
    UNINSTALLED = "UNINSTALLED"


class ServiceEventType(enum.Enum):
    REGISTERED = "REGISTERED"
    MODIFIED = "MODIFIED"
    UNREGISTERING = "UNREGISTERING"


class FrameworkEventType(enum.Enum):
    STARTED = "STARTED"
    STOPPED = "STOPPED"
    ERROR = "ERROR"
    WARNING = "WARNING"
    INFO = "INFO"
    STARTLEVEL_CHANGED = "STARTLEVEL_CHANGED"


@dataclass(frozen=True)
class BundleEvent:
    type: BundleEventType
    bundle: Any  # Bundle; typed loosely to avoid a circular import

    def __str__(self) -> str:
        return "BundleEvent(%s, %s)" % (self.type.value, self.bundle)


@dataclass(frozen=True)
class ServiceEvent:
    type: ServiceEventType
    reference: Any  # ServiceReference

    def __str__(self) -> str:
        return "ServiceEvent(%s, %s)" % (self.type.value, self.reference)


@dataclass(frozen=True)
class FrameworkEvent:
    type: FrameworkEventType
    source: Any = None
    error: Optional[BaseException] = None
    message: str = ""

    def __str__(self) -> str:
        return "FrameworkEvent(%s, %s)" % (self.type.value, self.message or self.source)


class _ServiceListenerEntry:
    """One service listener with its filter and objectClass interest set."""

    __slots__ = ("listener", "filter", "classes", "seq")

    def __init__(self, listener, filter, classes, seq) -> None:
        self.listener = listener
        self.filter = filter
        self.classes = classes  # frozenset of objectClass names, or None=any
        self.seq = seq


_SEQ = attrgetter("seq")


class EventDispatcher:
    """Registry of listeners for the three event families.

    Dispatch is synchronous and ordered by registration; a listener that
    raises is reported through a FrameworkEvent ERROR (and never unseats
    other listeners). Service listeners may carry an LDAP filter that is
    evaluated against the service properties before delivery.

    Service listeners are indexed by objectClass: a listener whose filter
    (or explicit ``classes`` hint) pins the object classes it can match
    is only visited for events on those classes, so a service event costs
    O(interested listeners) rather than a broadcast over every listener.
    Entries are keyed by the listener itself (equality, so a bound method
    finds the entry an earlier ``obj.method`` created) and buckets are
    insertion-ordered sets of entries (dicts with no values), so removal
    unlinks one entry and leaves the rest in order.
    """

    def __init__(self) -> None:
        self._bundle_listeners: List[Callable[[BundleEvent], None]] = []
        #: listener -> entry, in registration order.
        self._service_entries: Dict[Any, _ServiceListenerEntry] = {}
        #: objectClass -> {entry: None} of the entries interested in it.
        self._service_index: Dict[str, Dict[_ServiceListenerEntry, None]] = {}
        #: {entry: None} with no class constraint — visited for every event.
        self._service_wildcard: Dict[_ServiceListenerEntry, None] = {}
        self._listener_seq = 0
        self._framework_listeners: List[Callable[[FrameworkEvent], None]] = []
        self._delivering_error = False

    # -- registration ---------------------------------------------------
    def add_bundle_listener(self, listener: Callable[[BundleEvent], None]) -> None:
        if listener not in self._bundle_listeners:
            self._bundle_listeners.append(listener)

    def remove_bundle_listener(self, listener: Callable[[BundleEvent], None]) -> None:
        if listener in self._bundle_listeners:
            self._bundle_listeners.remove(listener)

    def add_service_listener(
        self,
        listener: Callable[[ServiceEvent], None],
        filter: Any = None,
        classes: Any = None,
    ) -> None:
        """Register ``listener``, optionally filtered.

        ``classes`` is an optional iterable of objectClass names the
        listener cares about (an indexing hint, e.g. a mirror's exported
        classes).
        When omitted it is derived from the filter where possible;
        otherwise the listener receives every service event.
        """
        self.remove_service_listener(listener)
        if classes is not None:
            interest = frozenset(classes)
        elif filter is not None:
            derive = getattr(filter, "objectclass_candidates", None)
            interest = derive() if derive is not None else None
        else:
            interest = None
        entry = _ServiceListenerEntry(listener, filter, interest, self._listener_seq)
        self._listener_seq += 1
        self._service_entries[listener] = entry
        if interest is None:
            self._service_wildcard[entry] = None
        else:
            for clazz in interest:
                self._service_index.setdefault(clazz, {})[entry] = None

    def remove_service_listener(
        self, listener: Callable[[ServiceEvent], None]
    ) -> None:
        entry = self._service_entries.pop(listener, None)
        if entry is None:
            return
        if entry.classes is None:
            del self._service_wildcard[entry]
        for clazz in entry.classes or ():
            bucket = self._service_index[clazz]
            del bucket[entry]
            if not bucket:
                del self._service_index[clazz]

    def add_framework_listener(
        self, listener: Callable[[FrameworkEvent], None]
    ) -> None:
        if listener not in self._framework_listeners:
            self._framework_listeners.append(listener)

    def clear(self) -> None:
        self._bundle_listeners = []
        self._service_entries = {}
        self._service_index = {}
        self._service_wildcard = {}
        self._framework_listeners = []

    # -- dispatch ---------------------------------------------------------
    def fire_bundle_event(self, event: BundleEvent) -> None:
        for listener in list(self._bundle_listeners):
            self._safely(listener, event)

    def fire_service_event(self, event: ServiceEvent) -> None:
        reference = event.reference
        classes = getattr(reference, "object_classes", None)
        if classes is None:
            # Reference without class metadata: visit every listener.
            entries = list(self._service_entries.values())
        elif not self._service_index:
            entries = list(self._service_wildcard)
        else:
            touched = set(self._service_wildcard)
            for clazz in classes:
                touched.update(self._service_index.get(clazz, ()))
            # A listener interested in several of the event's classes sits
            # in several buckets: deliver once, in registration order.
            entries = sorted(touched, key=_SEQ)
        props = getattr(reference, "_raw_properties", None)
        if props is None:
            props = reference.properties
        for entry in entries:
            if entry.filter is not None and not entry.filter.matches(props):
                continue
            self._safely(entry.listener, event)

    def fire_framework_event(self, event: FrameworkEvent) -> None:
        for listener in list(self._framework_listeners):
            try:
                listener(event)
            except Exception:
                # Listener isolation (OSGi core, event delivery); reporting
                # a framework listener's failure as an ERROR would recurse.
                pass

    def _safely(self, listener: Callable[[Any], None], event: Any) -> None:
        try:
            listener(event)
        except Exception as exc:
            # Listener isolation (OSGi core, event delivery): report the
            # failure as a FrameworkEvent ERROR, deliver to the next one.
            if self._framework_listeners and not self._delivering_error:
                self._delivering_error = True
                try:
                    self.fire_framework_event(
                        FrameworkEvent(
                            FrameworkEventType.ERROR,
                            source=listener,
                            error=exc,
                            message="listener failed handling %s" % event,
                        )
                    )
                finally:
                    self._delivering_error = False
