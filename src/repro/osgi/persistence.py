"""Persistent framework state.

The OSGi specification requires the framework to remember, across restarts,
which bundles are installed and whether they were started. §3.2 of the
paper leans on exactly this property to make migration cheap: persist the
framework state to globally visible storage, then "reboot" the framework on
another node.

:class:`FrameworkStorage` is the small interface the framework needs;
:class:`InMemoryFrameworkStorage` suffices for single-process tests, while
:class:`repro.storage.san.SanFrameworkStorage` adapts the shared store for
the distributed setting.
"""

from __future__ import annotations

from typing import Any, Dict, List, MutableMapping, Optional


class BundleRecord:
    """Serializable record of one installed bundle."""

    __slots__ = ("location", "symbolic_name", "version", "autostart", "start_level")

    def __init__(
        self,
        location: str,
        symbolic_name: str,
        version: str,
        autostart: bool,
        start_level: int,
    ) -> None:
        self.location = location
        self.symbolic_name = symbolic_name
        self.version = version
        self.autostart = autostart
        self.start_level = start_level

    def to_dict(self) -> Dict[str, Any]:
        return {
            "location": self.location,
            "symbolic_name": self.symbolic_name,
            "version": self.version,
            "autostart": self.autostart,
            "start_level": self.start_level,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BundleRecord":
        return cls(
            location=data["location"],
            symbolic_name=data["symbolic_name"],
            version=data["version"],
            autostart=bool(data["autostart"]),
            start_level=int(data["start_level"]),
        )

    def __repr__(self) -> str:
        return "BundleRecord(%s@%s, autostart=%s)" % (
            self.symbolic_name,
            self.location,
            self.autostart,
        )


class FrameworkState:
    """Everything a framework persists between reboots."""

    def __init__(
        self,
        bundles: Optional[List[BundleRecord]] = None,
        start_level: int = 1,
        properties: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.bundles = list(bundles or [])
        self.start_level = start_level
        self.properties = dict(properties or {})

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bundles": [b.to_dict() for b in self.bundles],
            "start_level": self.start_level,
            "properties": dict(self.properties),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FrameworkState":
        return cls(
            bundles=[BundleRecord.from_dict(b) for b in data.get("bundles", [])],
            start_level=int(data.get("start_level", 1)),
            properties=dict(data.get("properties", {})),
        )

    def __repr__(self) -> str:
        return "FrameworkState(%d bundles, level=%d)" % (
            len(self.bundles),
            self.start_level,
        )


class FrameworkStorage:
    """Storage interface consumed by :class:`~repro.osgi.framework.Framework`."""

    def save_state(self, instance_id: str, state: FrameworkState) -> None:
        raise NotImplementedError

    def load_state(self, instance_id: str) -> Optional[FrameworkState]:
        raise NotImplementedError

    def bundle_data(
        self, instance_id: str, symbolic_name: str
    ) -> MutableMapping[str, Any]:
        """Return the persistent data area for one bundle of one instance."""
        raise NotImplementedError


class InMemoryFrameworkStorage(FrameworkStorage):
    """Process-local storage for tests and single-node examples."""

    def __init__(self) -> None:
        self._states: Dict[str, Dict[str, Any]] = {}
        self._data: Dict[str, Dict[str, Any]] = {}

    def save_state(self, instance_id: str, state: FrameworkState) -> None:
        self._states[instance_id] = state.to_dict()

    def load_state(self, instance_id: str) -> Optional[FrameworkState]:
        data = self._states.get(instance_id)
        if data is None:
            return None
        return FrameworkState.from_dict(data)

    def bundle_data(
        self, instance_id: str, symbolic_name: str
    ) -> MutableMapping[str, Any]:
        key = "%s/%s" % (instance_id, symbolic_name)
        return self._data.setdefault(key, {})

    def __repr__(self) -> str:
        return "InMemoryFrameworkStorage(%d states)" % len(self._states)
