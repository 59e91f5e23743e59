"""The framework: bundle host, service broker, persistent platform.

A :class:`Framework` is the unit the paper calls an "OSGi environment": it
hosts bundles, brokers services, and persists its state (installed bundles
+ autostart flags + start level) through a
:class:`~repro.osgi.persistence.FrameworkStorage`. Stopping and starting a
framework with the same ``instance_id`` and storage restores the same
bundle population — the property §3.2 of the paper exploits to migrate
whole environments between nodes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.osgi.bundle import Bundle, BundleContext, BundleState
from repro.osgi.definition import BundleDefinition
from repro.osgi.errors import BundleException, FrameworkError
from repro.osgi.events import (
    BundleEvent,
    BundleEventType,
    EventDispatcher,
    FrameworkEvent,
    FrameworkEventType,
)
from repro.osgi.manifest import Manifest
from repro.osgi.persistence import (
    BundleRecord,
    FrameworkState,
    FrameworkStorage,
    InMemoryFrameworkStorage,
)
from repro.osgi.registry import ServiceRegistry
from repro.osgi.startlevel import StartLevelManager
from repro.osgi.wiring import Resolver

#: Start level the framework moves to on start when no state is persisted.
DEFAULT_ACTIVE_LEVEL = 10


class Framework:
    """An OSGi-style framework instance.

    Parameters
    ----------
    instance_id:
        Stable identity used as the persistence key. Two frameworks created
        with the same id and storage are "the same environment" rebooted —
        possibly on different nodes.
    storage:
        Where framework state and bundle data areas live. Defaults to a
        process-local in-memory store.
    repository:
        ``location -> BundleDefinition`` map used to re-materialize bundles
        on restart (the analogue of re-reading bundle JARs from disk).
        Locations of freshly installed definitions are added automatically.
    properties:
        Launch properties visible to bundles via ``context.get_property``.
    class_fallback:
        The custom topmost loader every bundle gets when installed (see
        :class:`~repro.osgi.loader.BundleNamespace`); a virtual instance
        passes its delegation loader, so restored bundles have it too.
    """

    def __init__(
        self,
        instance_id: str,
        storage: Optional[FrameworkStorage] = None,
        repository: Optional[Dict[str, BundleDefinition]] = None,
        properties: Optional[Mapping[str, Any]] = None,
        definition_resolver: Optional[
            Callable[[str], Optional[BundleDefinition]]
        ] = None,
        class_fallback: Optional[Callable[[str, str], Any]] = None,
    ) -> None:
        self.instance_id = instance_id
        self.storage = storage if storage is not None else InMemoryFrameworkStorage()
        self.repository: Dict[str, BundleDefinition] = dict(repository or {})
        self.definition_resolver = definition_resolver
        self.class_fallback = class_fallback
        self.properties: Dict[str, Any] = dict(properties or {})
        self.dispatcher = EventDispatcher()
        self.registry = ServiceRegistry(self.dispatcher)
        self.resolver = Resolver(self)
        self.start_levels = StartLevelManager(self)
        self.active = False
        #: id -> bundle; ids only grow, so insertion order is id order.
        self._bundles: Dict[int, Bundle] = {}
        self._by_location: Dict[str, Bundle] = {}
        self._next_bundle_id = 1
        self.counters: Dict[str, int] = {
            "installs": 0,
            "resolves": 0,
            "starts": 0,
            "stops": 0,
            "restores": 0,
        }
        #: Write-through (spec behaviour) so a crash — which never reaches
        #: stop() — still leaves recoverable state: while set, storage
        #: equals the current state whenever a public framework, bundle or
        #: start-level operation returns. Each operation writes once, at
        #: its boundary; start() and stop() are one operation each, however
        #: many bundles the start-level walk starts or stops on the way.
        self.autopersist = True
        self._in_transition = False
        self._system_bundle = self._make_system_bundle()

    # ------------------------------------------------------------------
    # System bundle
    # ------------------------------------------------------------------
    def _make_system_bundle(self) -> Bundle:
        manifest = Manifest.build(
            "system.bundle",
            version="1.0.0",
            exports=('org.osgi.framework;version="1.4.0"',),
        )
        definition = BundleDefinition(
            manifest, packages={"org.osgi.framework": {"Framework": Framework}}
        )
        bundle = Bundle(self, 0, definition, "system:%s" % self.instance_id)
        bundle.state = BundleState.RESOLVED
        return bundle

    @property
    def system_bundle(self) -> Bundle:
        return self._system_bundle

    @property
    def system_context(self) -> BundleContext:
        """Context of the system bundle; only valid while the framework runs."""
        context = self._system_bundle.context
        if context is None:
            raise FrameworkError("framework %s is not active" % self.instance_id)
        return context

    # ------------------------------------------------------------------
    # Framework lifecycle
    # ------------------------------------------------------------------
    def start(self, target_level: int = DEFAULT_ACTIVE_LEVEL) -> None:
        """Boot the framework, restoring any persisted bundle population."""
        if self.active:
            return
        self.active = True
        self._system_bundle.state = BundleState.ACTIVE
        self._system_bundle._context = BundleContext(self._system_bundle)
        self._in_transition = True
        try:
            restored = self.storage.load_state(self.instance_id)
            if restored is not None:
                self.counters["restores"] += 1
                self._restore_records(restored)
                target_level = max(restored.start_level, 1)
            self.start_levels.set_level(target_level)
        finally:
            self._in_transition = False
        # Make the environment recoverable immediately, even before the
        # first bundle operation — a crash right after boot must still
        # find the instance on the SAN.
        self._changed()
        if self.dispatcher._framework_listeners:
            self.dispatcher.fire_framework_event(
                FrameworkEvent(FrameworkEventType.STARTED, source=self)
            )

    def stop(self) -> None:
        """Stop every bundle, persist state and shut the framework down."""
        if not self.active:
            return
        running_level = self.start_levels.level
        self._in_transition = True
        try:
            self.start_levels.set_level(0)
        finally:
            self._in_transition = False
        # Written after the walk, so it covers whatever activators did on
        # the way down, at the level the framework ran at (the walk ends
        # at 0): that is the level the next start() must come back to.
        self._write_state(running_level)
        if self.dispatcher._framework_listeners:
            self.dispatcher.fire_framework_event(
                FrameworkEvent(FrameworkEventType.STOPPED, source=self)
            )
        if self._system_bundle._context is not None:
            self._system_bundle._context._invalidate()
        self._system_bundle._context = None
        self._system_bundle.state = BundleState.RESOLVED
        self.active = False

    def persist(self) -> None:
        """Write the current framework state to storage."""
        self._write_state(self.start_levels.level)

    def _changed(self) -> None:
        """A public operation that may have touched persisted fields returns."""
        if self.autopersist and self.active and not self._in_transition:
            self.persist()

    def _write_state(self, start_level: int) -> None:
        records = [
            BundleRecord(
                location=b.location,
                symbolic_name=b.symbolic_name,
                version=str(b.version),
                autostart=b.autostart,
                start_level=b.start_level,
            )
            for b in self.bundles()
        ]
        state = FrameworkState(
            bundles=records,
            start_level=start_level,
            properties=self.properties,
        )
        self.storage.save_state(self.instance_id, state)

    def _restore_records(self, state: FrameworkState) -> None:
        for record in state.bundles:
            definition = self.repository.get(record.location)
            if definition is None and self.definition_resolver is not None:
                definition = self.definition_resolver(record.location)
            if definition is None:
                self.dispatcher.fire_framework_event(
                    FrameworkEvent(
                        FrameworkEventType.WARNING,
                        source=self,
                        message="no definition for persisted bundle at %s"
                        % record.location,
                    )
                )
                continue
            bundle = self.install(definition, record.location)
            bundle.autostart = record.autostart
            bundle.start_level = record.start_level

    # ------------------------------------------------------------------
    # Bundle management
    # ------------------------------------------------------------------
    @property
    def initial_bundle_start_level(self) -> int:
        return self.start_levels.initial_bundle_level

    @property
    def start_level(self) -> int:
        return self.start_levels.level

    def install(
        self,
        definition: BundleDefinition,
        location: Optional[str] = None,
    ) -> Bundle:
        """Install a bundle; same location returns the existing bundle."""
        if not self.active:
            raise FrameworkError(
                "framework %s is not active; cannot install" % self.instance_id
            )
        if location is None:
            location = "bundle://%s/%s" % (
                definition.symbolic_name,
                definition.version,
            )
        existing = self._by_location.get(location)
        if existing is not None:
            return existing
        bundle = Bundle(self, self._next_bundle_id, definition, location)
        bundle.namespace.fallback = self.class_fallback
        self._next_bundle_id += 1
        self._bundles[bundle.bundle_id] = bundle
        self._by_location[location] = bundle
        self.repository.setdefault(location, definition)
        self.counters["installs"] += 1
        self._fire_bundle_event(BundleEventType.INSTALLED, bundle)
        self._changed()
        return bundle

    def bundles(self) -> List[Bundle]:
        """All installed bundles, ordered by bundle id (excludes system)."""
        return list(self._bundles.values())

    def get_bundle(self, bundle_id: int) -> Optional[Bundle]:
        if bundle_id == 0:
            return self._system_bundle
        return self._bundles.get(bundle_id)

    def get_bundle_by_name(self, symbolic_name: str) -> Optional[Bundle]:
        for bundle in self.bundles():
            if bundle.symbolic_name == symbolic_name:
                return bundle
        return None

    def _remove_bundle(self, bundle: Bundle) -> None:
        self._bundles.pop(bundle.bundle_id, None)
        self._by_location.pop(bundle.location, None)

    def _resolve_bundle(self, bundle: Bundle) -> None:
        self.counters["resolves"] += 1
        self.resolver.resolve(bundle)

    # ------------------------------------------------------------------
    # Events & accounting
    # ------------------------------------------------------------------
    def _fire_bundle_event(self, type: BundleEventType, bundle: Bundle) -> None:
        if type == BundleEventType.STARTED:
            self.counters["starts"] += 1
        elif type == BundleEventType.STOPPED:
            self.counters["stops"] += 1
        if self.dispatcher._bundle_listeners:
            self.dispatcher.fire_bundle_event(BundleEvent(type, bundle))

    def _report_error(self, source: Any, error: Exception) -> None:
        if self.dispatcher._framework_listeners:
            self.dispatcher.fire_framework_event(
                FrameworkEvent(
                    FrameworkEventType.ERROR,
                    source=source,
                    error=error,
                    message=str(error),
                )
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def memory_footprint(self) -> int:
        """Notional resident bytes: bundle archives + live service overhead.

        Used by Fig. 1/2/4 benchmarks to compare deployment layouts; the
        constants are per-bundle bookkeeping overheads, not JVM heap.
        """
        total = 0
        for bundle in self.bundles():
            total += bundle.definition.size_bytes
            total += bundle.ledger.memory_bytes
        total += self.registry.size * 512
        return total

    def __repr__(self) -> str:
        return "Framework(%s, %s, %d bundles, level=%d)" % (
            self.instance_id,
            "active" if self.active else "stopped",
            len(self._bundles),
            self.start_levels.level,
        )
