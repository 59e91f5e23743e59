"""Start levels: ordered activation and deactivation of bundles.

The framework has an active start level; each bundle has its own. Raising
the framework level starts (autostart) bundles whose level became <= the
framework level, in ascending level order (ties by bundle id); lowering it
stops bundles in the reverse order. This is what lets the platform bring
base services (log, HTTP) up before customer bundles — the ordering the
VOSGi design relies on.
"""

from __future__ import annotations

from typing import List, Set, TYPE_CHECKING

from repro.osgi.errors import BundleException

if TYPE_CHECKING:  # pragma: no cover
    from repro.osgi.bundle import Bundle
    from repro.osgi.framework import Framework


class StartLevelManager:
    """Owns the framework start level and per-bundle levels."""

    def __init__(self, framework: "Framework", initial_bundle_level: int = 1) -> None:
        self._framework = framework
        self._level = 0
        self.initial_bundle_level = initial_bundle_level

    @property
    def level(self) -> int:
        return self._level

    def set_bundle_level(self, bundle: "Bundle", level: int) -> None:
        """Move one bundle to ``level``, starting/stopping it as implied."""
        if level < 1:
            raise BundleException("bundle start level must be >= 1")
        bundle.start_level = level
        from repro.osgi.bundle import BundleState

        try:
            if bundle.autostart:
                if level <= self._level and bundle.state == BundleState.RESOLVED:
                    bundle._do_start()
                elif level > self._level and bundle.state == BundleState.ACTIVE:
                    was_autostart = bundle.autostart
                    bundle._do_stop()
                    bundle.autostart = was_autostart
        finally:
            self._framework._changed()

    def set_level(self, target: int) -> None:
        """Walk the framework start level to ``target``.

        Only levels some bundle lives at are visited, looked up afresh at
        each step because an activator may install or move bundles.
        """
        if target < 0:
            raise BundleException("framework start level must be >= 0")
        if target == self._level:
            return
        while self._level < target:
            self._level = min(self._occupied(self._level, target), default=target)
            self._activate_level(self._level)
        while self._level > target:
            self._deactivate_level(self._level)
            self._level = max(self._occupied(target, self._level - 1), default=target)
        from repro.osgi.events import FrameworkEvent, FrameworkEventType

        self._framework.dispatcher.fire_framework_event(
            FrameworkEvent(
                FrameworkEventType.STARTLEVEL_CHANGED,
                source=self._framework,
                message="start level is now %d" % self._level,
            )
        )
        self._framework._changed()

    def _occupied(self, low: int, high: int) -> Set[int]:
        """Bundle start levels in ``(low, high]``."""
        return {
            b.start_level
            for b in self._framework._bundles.values()
            if low < b.start_level <= high
        }

    def _activate_level(self, level: int) -> None:
        from repro.osgi.bundle import BundleState

        candidates: List["Bundle"] = [
            b
            for b in self._framework.bundles()  # in bundle-id order
            if b.autostart
            and b.start_level == level
            and b.state in (BundleState.INSTALLED, BundleState.RESOLVED)
        ]
        for bundle in candidates:
            try:
                if bundle.state == BundleState.INSTALLED:
                    self._framework._resolve_bundle(bundle)
                bundle._do_start()
            except BundleException as exc:
                self._framework._report_error(bundle, exc)

    def _deactivate_level(self, level: int) -> None:
        from repro.osgi.bundle import BundleState

        candidates = [
            b
            for b in self._framework.bundles()
            if b.start_level == level and b.state == BundleState.ACTIVE
        ]
        for bundle in reversed(candidates):
            was_autostart = bundle.autostart
            try:
                bundle._do_stop()
            except BundleException as exc:
                self._framework._report_error(bundle, exc)
            bundle.autostart = was_autostart
