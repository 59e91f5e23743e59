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
from repro.osgi.filter import Filter, parse_filter
from repro.osgi.manifest import Manifest
from repro.osgi.persistence import (
    BundleRecord,
    FrameworkState,
    FrameworkStorage,
    InMemoryFrameworkStorage,
)
from repro.osgi.registry import ServiceReference, ServiceRegistry
from repro.osgi.startlevel import StartLevelManager
from repro.osgi.wiring import Resolver

#: Start level the framework moves to on start when no state is persisted.
DEFAULT_ACTIVE_LEVEL = 10

ConsumptionListener = Callable[[Bundle, float, int, int], None]
VisibilityHook = Callable[[Bundle, ServiceReference], bool]


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
    ) -> None:
        self.instance_id = instance_id
        self.storage = storage if storage is not None else InMemoryFrameworkStorage()
        self.repository: Dict[str, BundleDefinition] = dict(repository or {})
        self.definition_resolver = definition_resolver
        self.properties: Dict[str, Any] = dict(properties or {})
        self.dispatcher = EventDispatcher()
        self.registry = ServiceRegistry(self.dispatcher)
        self.resolver = Resolver(self)
        self.start_levels = StartLevelManager(self)
        self.active = False
        self._bundles: Dict[int, Bundle] = {}
        self._next_bundle_id = 1
        self._consumption_listeners: List[ConsumptionListener] = []
        self._visibility_hooks: List[VisibilityHook] = []
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
        verify: bool = False,
    ) -> Bundle:
        """Install a bundle; same location returns the existing bundle.

        With ``verify=True`` the static bundle verifier
        (:func:`repro.analysis.bundles.verify_install`) checks the
        definition against the installed population first and any
        error-severity diagnostic rejects the install with a
        :class:`~repro.osgi.errors.VerificationError` carrying the full
        diagnostic list — the paper's "explicit export checking" applied
        before a single lifecycle event fires. Reinstalling an existing
        location returns the live bundle without re-verification.
        """
        if not self.active:
            raise FrameworkError(
                "framework %s is not active; cannot install" % self.instance_id
            )
        if location is None:
            location = "bundle://%s/%s" % (
                definition.symbolic_name,
                definition.version,
            )
        for bundle in self._bundles.values():
            if bundle.location == location:
                return bundle
        if verify:
            # Imported here so repro.osgi stays importable without the
            # analysis package (strict downward layering otherwise).
            from repro.analysis.bundles import verify_install

            diagnostics = verify_install(self, definition)
            if any(d.severity.value == "error" for d in diagnostics):
                from repro.osgi.errors import VerificationError

                raise VerificationError(definition.symbolic_name, diagnostics)
        bundle = Bundle(self, self._next_bundle_id, definition, location)
        self._next_bundle_id += 1
        self._bundles[bundle.bundle_id] = bundle
        self.repository.setdefault(location, definition)
        self.counters["installs"] += 1
        self._fire_bundle_event(BundleEventType.INSTALLED, bundle)
        self._changed()
        return bundle

    def bundles(self) -> List[Bundle]:
        """All installed bundles, ordered by bundle id (excludes system)."""
        return [self._bundles[i] for i in sorted(self._bundles)]

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

    def _resolve_bundle(self, bundle: Bundle) -> None:
        self.counters["resolves"] += 1
        self.resolver.resolve(bundle)

    # ------------------------------------------------------------------
    # Service visibility (the VOSGi hook point)
    # ------------------------------------------------------------------
    def add_visibility_hook(self, hook: VisibilityHook) -> None:
        """Install a predicate limiting which services a bundle can see."""
        self._visibility_hooks.append(hook)

    def remove_visibility_hook(self, hook: VisibilityHook) -> None:
        if hook in self._visibility_hooks:
            self._visibility_hooks.remove(hook)

    def _visible(self, bundle: Bundle, reference: ServiceReference) -> bool:
        return all(hook(bundle, reference) for hook in self._visibility_hooks)

    def _lookup_reference(
        self, bundle: Bundle, clazz: str, filter: "str | Filter | None"
    ) -> Optional[ServiceReference]:
        for reference in self.registry.get_references(clazz, self._parse_filter(filter)):
            if self._visible(bundle, reference):
                return reference
        return None

    def _lookup_references(
        self,
        bundle: Bundle,
        clazz: Optional[str],
        filter: "str | Filter | None",
    ) -> List[ServiceReference]:
        return [
            reference
            for reference in self.registry.get_references(
                clazz, self._parse_filter(filter)
            )
            if self._visible(bundle, reference)
        ]

    def _parse_filter(self, filter: "str | Filter | None") -> Optional[Filter]:
        if filter is None or isinstance(filter, Filter):
            return filter
        return parse_filter(filter)

    # ------------------------------------------------------------------
    # Events & accounting
    # ------------------------------------------------------------------
    def _fire_bundle_event(self, type: BundleEventType, bundle: Bundle) -> None:
        if type == BundleEventType.STARTED:
            self.counters["starts"] += 1
        elif type == BundleEventType.STOPPED:
            self.counters["stops"] += 1
        self.dispatcher.fire_bundle_event(BundleEvent(type, bundle))

    def _report_error(self, source: Any, error: Exception) -> None:
        self.dispatcher.fire_framework_event(
            FrameworkEvent(
                FrameworkEventType.ERROR,
                source=source,
                error=error,
                message=str(error),
            )
        )

    def add_consumption_listener(self, listener: ConsumptionListener) -> None:
        """Subscribe to per-bundle resource consumption reports."""
        if listener not in self._consumption_listeners:
            self._consumption_listeners.append(listener)

    def remove_consumption_listener(self, listener: ConsumptionListener) -> None:
        if listener in self._consumption_listeners:
            self._consumption_listeners.remove(listener)

    def _notify_consumption(
        self, bundle: Bundle, cpu: float, memory_delta: int, disk_delta: int
    ) -> None:
        for listener in list(self._consumption_listeners):
            try:
                listener(bundle, cpu, memory_delta, disk_delta)
            except Exception as exc:
                self._report_error(listener, exc)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def installed_definitions(self) -> List[BundleDefinition]:
        """Definitions of every installed bundle plus the system bundle.

        The bundle-set view the static verifier and the chaos deployment
        verdicts consume; the system bundle comes last so diagnostics
        read in install order.
        """
        return [b.definition for b in self.bundles()] + [
            self._system_bundle.definition
        ]

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
