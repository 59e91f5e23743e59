"""Persistent framework state.

The OSGi specification requires the framework to remember, across restarts,
which bundles are installed and whether they were started. §3.2 of the
paper leans on exactly this property to make migration cheap: persist the
framework state to globally visible storage, then "reboot" the framework on
another node.

:class:`FrameworkStorage` is the small interface the framework needs. A
:class:`FrameworkState` is an immutable snapshot, so
:class:`InMemoryFrameworkStorage` (single-process tests and examples) keeps
the one it is given, while :class:`repro.storage.san.SanFrameworkStorage`
adapts the shared store, which serializes it, for the distributed setting.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Dict, Iterable, Mapping, MutableMapping, NamedTuple, Optional


class BundleRecord(NamedTuple):
    """Serializable record of one installed bundle; immutable."""

    location: str
    symbolic_name: str
    version: str
    autostart: bool
    start_level: int

    def to_dict(self) -> Dict[str, Any]:
        return self._asdict()

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
    """Everything a framework persists between reboots, as one immutable
    snapshot: a tuple of records and a read-only copy of the properties,
    so a storage may keep the very object it is given."""

    __slots__ = ("bundles", "start_level", "properties")

    def __init__(
        self,
        bundles: Iterable[BundleRecord] = (),
        start_level: int = 1,
        properties: Optional[Mapping[str, Any]] = None,
    ) -> None:
        init = object.__setattr__
        init(self, "bundles", tuple(bundles))
        init(self, "start_level", start_level)
        init(self, "properties", MappingProxyType(dict(properties or {})))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("FrameworkState is immutable")

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild from plain values: a mappingproxy has neither.
        return FrameworkState, (self.bundles, self.start_level, dict(self.properties))

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
            properties=data.get("properties"),
        )

    def __repr__(self) -> str:
        return "FrameworkState(%d bundles, level=%d)" % (
            len(self.bundles),
            self.start_level,
        )


class FrameworkStorage:
    """Storage interface consumed by :class:`~repro.osgi.framework.Framework`.

    ``save_state`` may keep the snapshot it is given; ``load_state``
    returns an immutable snapshot.
    """

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
        self._states: Dict[str, FrameworkState] = {}
        self._data: Dict[str, Dict[str, Any]] = {}

    def save_state(self, instance_id: str, state: FrameworkState) -> None:
        self._states[instance_id] = state

    def load_state(self, instance_id: str) -> Optional[FrameworkState]:
        return self._states.get(instance_id)

    def bundle_data(
        self, instance_id: str, symbolic_name: str
    ) -> MutableMapping[str, Any]:
        key = "%s/%s" % (instance_id, symbolic_name)
        return self._data.setdefault(key, {})

    def __repr__(self) -> str:
        return "InMemoryFrameworkStorage(%d states)" % len(self._states)
