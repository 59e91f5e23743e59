"""The cluster-wide customer directory, persisted on the SAN.

A :class:`CustomerDescriptor` is everything a node needs to (re)deploy a
customer's virtual instance somewhere else: export policy, quota, priority
and placement hints. The directory lives in a well-known SAN data area so
any surviving node can redeploy any customer after a failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.isolation.quotas import ResourceQuota
from repro.sim.eventloop import EventLoop
from repro.storage.san import SharedStore
from repro.vosgi.delegation import ExportPolicy

_AREA_INSTANCE = "platform"
_AREA_BUNDLE = "customer-directory"


@dataclass(frozen=True)
class CustomerDescriptor:
    """Serializable description of one admitted customer."""

    name: str
    packages: tuple = ()
    services: tuple = ()
    cpu_share: float = 1.0
    memory_bytes: int = 256 * 1024 * 1024
    disk_bytes: int = 1024 * 1024 * 1024
    priority: int = 0
    #: Estimated bundles, used for migration latency modelling.
    bundle_count_hint: int = 0
    #: Estimated persistent state size in bytes.
    state_bytes_hint: int = 0
    #: Desired state: False means deliberately stopped (e.g. by an SLA
    #: policy) — the recovery sweep must not resurrect it.
    active: bool = True

    def policy(self) -> ExportPolicy:
        return ExportPolicy(set(self.packages), set(self.services))

    def quota(self) -> ResourceQuota:
        return ResourceQuota(
            cpu_share=self.cpu_share,
            memory_bytes=self.memory_bytes,
            disk_bytes=self.disk_bytes,
        )

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "packages": list(self.packages),
            "services": list(self.services),
            "cpu_share": self.cpu_share,
            "memory_bytes": self.memory_bytes,
            "disk_bytes": self.disk_bytes,
            "priority": self.priority,
            "bundle_count_hint": self.bundle_count_hint,
            "state_bytes_hint": self.state_bytes_hint,
            "active": self.active,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CustomerDescriptor":
        return cls(
            name=data["name"],
            packages=tuple(data.get("packages", ())),
            services=tuple(data.get("services", ())),
            cpu_share=float(data.get("cpu_share", 1.0)),
            memory_bytes=int(data.get("memory_bytes", 256 * 1024 * 1024)),
            disk_bytes=int(data.get("disk_bytes", 1024 * 1024 * 1024)),
            priority=int(data.get("priority", 0)),
            bundle_count_hint=int(data.get("bundle_count_hint", 0)),
            state_bytes_hint=int(data.get("state_bytes_hint", 0)),
            active=bool(data.get("active", True)),
        )


class CustomerDirectory:
    """SAN-backed name → :class:`CustomerDescriptor` map.

    The directory is the replicated deployment registry the paper's
    recovery story depends on, so its operations are the ones the
    conformance linearizability checker judges: each ``put``/``get``/
    ``remove`` is recorded as an invoke/return pair on the key
    ``descriptor:<name>`` when ``loop``'s probe carries a history
    recorder (see docs/CONFORMANCE.md). ``owner`` names the calling
    process in that history — pass the node id where one is known.
    """

    def __init__(
        self, store: SharedStore, loop: EventLoop, owner: str = "registry"
    ) -> None:
        self._area = store.data_area(_AREA_INSTANCE, _AREA_BUNDLE)
        self._loop = loop
        self._owner = owner
        # Test-only mutant state: first-seen values for stale reads.
        self._stale_cache: Dict[str, Dict] = {}

    def put(self, descriptor: CustomerDescriptor) -> None:
        data = descriptor.to_dict()
        self._area[descriptor.name] = data
        probe = self._loop.probe
        if probe is not None:
            probe.directory_op(self._owner, "write", descriptor.name, data, data)

    def get(self, name: str) -> Optional[CustomerDescriptor]:
        data = self._area.read_only(name)
        probe = self._loop.probe
        if probe is not None:
            if probe.mutated("stale_directory_reads", self._owner):
                # Mutant: return the first value this directory ever saw.
                if name in self._stale_cache:
                    data = self._stale_cache[name]
                elif data is not None:
                    self._stale_cache[name] = data
            probe.directory_op(self._owner, "read", name, None, data)
        if data is None:
            return None
        return CustomerDescriptor.from_dict(data)

    def require(self, name: str) -> CustomerDescriptor:
        descriptor = self.get(name)
        if descriptor is None:
            raise KeyError("no customer descriptor for %r" % name)
        return descriptor

    def remove(self, name: str) -> None:
        self._area.pop(name, None)
        probe = self._loop.probe
        if probe is not None:
            probe.directory_op(self._owner, "remove", name, None, None)

    def names(self) -> List[str]:
        return sorted(self._area)

    def __repr__(self) -> str:
        return "CustomerDirectory(%s)" % self.names()
