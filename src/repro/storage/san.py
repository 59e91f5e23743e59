"""The shared store: globally visible, node-failure-surviving persistence.

Three namespaces live on the store:

* **framework states** — what each OSGi environment persists on shutdown
  (and what a rebooting environment, possibly on another node, reads back);
* **bundle data areas** — per-(instance, bundle) key-value dictionaries,
  the "persistent state accessible by the other nodes" of §3.2;
* **bundle repository** — installable
  :class:`~repro.osgi.definition.BundleDefinition` objects by location, the
  analogue of bundle JARs on the SAN.

Values written to data areas must be JSON-serializable: that is the honest
contract a real SAN imposes, and the property the migration module's state
transfer relies on. Writes are deep-copied so a node crash never leaves a
half-shared object graph behind.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterator, MutableMapping, Optional

from repro.osgi.definition import BundleDefinition
from repro.osgi.persistence import FrameworkState, FrameworkStorage


class StorageError(Exception):
    """A store operation failed (unserializable value, unmounted node...)."""


@dataclass
class StoreStats:
    """Operation counters, used by migration/startup cost models."""

    state_reads: int = 0
    state_writes: int = 0
    data_reads: int = 0
    data_writes: int = 0
    bytes_written: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "state_reads": self.state_reads,
            "state_writes": self.state_writes,
            "data_reads": self.data_reads,
            "data_writes": self.data_writes,
            "bytes_written": self.bytes_written,
        }


class SharedStore:
    """The SAN. One per cluster; survives any node failure by assumption."""

    def __init__(self) -> None:
        self._states: Dict[str, Dict[str, Any]] = {}
        self._data: Dict[str, Dict[str, Any]] = {}
        self._repository: Dict[str, BundleDefinition] = {}
        self.stats = StoreStats()

    # ------------------------------------------------------------------
    # Framework states
    # ------------------------------------------------------------------
    def save_state(self, instance_id: str, state: FrameworkState) -> None:
        payload = state.to_dict()
        size = self._encoded_size(payload, "framework state of %s" % instance_id)
        self._states[instance_id] = copy.deepcopy(payload)
        self.stats.state_writes += 1
        self.stats.bytes_written += size

    def load_state(self, instance_id: str) -> Optional[FrameworkState]:
        self.stats.state_reads += 1
        payload = self._states.get(instance_id)
        if payload is None:
            return None
        return FrameworkState.from_dict(copy.deepcopy(payload))

    def has_state(self, instance_id: str) -> bool:
        return instance_id in self._states

    def instance_ids(self) -> Iterator[str]:
        return iter(sorted(self._states))

    # ------------------------------------------------------------------
    # Bundle data areas
    # ------------------------------------------------------------------
    def data_area(self, instance_id: str, symbolic_name: str) -> "DataArea":
        key = "%s/%s" % (instance_id, symbolic_name)
        backing = self._data.setdefault(key, {})
        return DataArea(self, backing, key)

    # ------------------------------------------------------------------
    # Bundle repository
    # ------------------------------------------------------------------
    def put_definition(self, location: str, definition: BundleDefinition) -> None:
        """Publish a bundle archive on the SAN."""
        self._repository[location] = definition
        self.stats.bytes_written += definition.size_bytes

    def get_definition(self, location: str) -> Optional[BundleDefinition]:
        return self._repository.get(location)

    def repository_view(self) -> Dict[str, BundleDefinition]:
        """Live-readable snapshot of the repository (location -> definition)."""
        return dict(self._repository)

    # ------------------------------------------------------------------
    def mount(self, node_id: str) -> "Mount":
        """Attach a node to the store."""
        return Mount(self, node_id)

    def _encoded_size(self, value: Any, what: str) -> int:
        """Length of ``value``'s JSON encoding; refuses what has none."""
        try:
            return len(json.dumps(value))
        except (TypeError, ValueError) as exc:
            raise StorageError(
                "%s is not JSON-serializable: %s" % (what, exc)
            ) from exc

    def __repr__(self) -> str:
        return "SharedStore(states=%d, data_areas=%d, repository=%d)" % (
            len(self._states),
            len(self._data),
            len(self._repository),
        )


class DataArea(MutableMapping[str, Any]):
    """A bundle's persistent key-value area, write-through to the store.

    Enforces JSON-serializable values so stateful bundles keep the
    migratable-state contract.
    """

    def __init__(self, store: SharedStore, backing: Dict[str, Any], key: str) -> None:
        self._store = store
        self._backing = backing
        self._key = key

    def __getitem__(self, key: str) -> Any:
        self._store.stats.data_reads += 1
        return copy.deepcopy(self._backing[key])

    def read_only(self, key: str) -> Any:
        """The stored value itself (or ``None``), uncopied: writes replace it."""
        self._store.stats.data_reads += 1
        return self._backing.get(key)

    def __setitem__(self, key: str, value: Any) -> None:
        what = "data %r in area %s" % (key, self._key)
        size = self._store._encoded_size(value, what)
        self._store.stats.data_writes += 1
        self._store.stats.bytes_written += size
        self._backing[key] = copy.deepcopy(value)

    def __delitem__(self, key: str) -> None:
        del self._backing[key]

    def __iter__(self) -> Iterator[str]:
        return iter(list(self._backing))

    def __len__(self) -> int:
        return len(self._backing)

    def __repr__(self) -> str:
        return "DataArea(%s, %d keys)" % (self._key, len(self._backing))


class Mount:
    """A node's attachment to the shared store.

    Unmounting (node crash) invalidates the handle but never the data —
    that is the whole point of the SAN assumption.
    """

    def __init__(self, store: SharedStore, node_id: str) -> None:
        self.store = store
        self.node_id = node_id
        self.mounted = True

    def framework_storage(self) -> "SanFrameworkStorage":
        self._check()
        return SanFrameworkStorage(self)

    def unmount(self) -> None:
        self.mounted = False

    def _check(self) -> None:
        if not self.mounted:
            raise StorageError("node %s lost its SAN mount" % self.node_id)

    def __repr__(self) -> str:
        return "Mount(%s, %s)" % (
            self.node_id,
            "mounted" if self.mounted else "unmounted",
        )


class SanFrameworkStorage(FrameworkStorage):
    """Adapter: the OSGi persistence interface over a SAN mount."""

    def __init__(self, mount: Mount) -> None:
        self._mount = mount

    def save_state(self, instance_id: str, state: FrameworkState) -> None:
        self._mount._check()
        self._mount.store.save_state(instance_id, state)

    def load_state(self, instance_id: str) -> Optional[FrameworkState]:
        self._mount._check()
        return self._mount.store.load_state(instance_id)

    def bundle_data(
        self, instance_id: str, symbolic_name: str
    ) -> MutableMapping[str, Any]:
        self._mount._check()
        return self._mount.store.data_area(instance_id, symbolic_name)

    def __repr__(self) -> str:
        return "SanFrameworkStorage(%s)" % self._mount
