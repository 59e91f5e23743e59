"""Cluster inventory: what each node knows about every other node.

Inventories arrive as GCS multicasts ("by exchanging messages with
information about the virtual instances running on each node, we
reliably address issue number 1"), sent when they change and once after
every view install. They are soft state: each entry carries the virtual
time its node built it, and the view decides which nodes are alive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class NodeInventory:
    """Last-known state of one node."""

    node_id: str
    at: float
    instances: Dict[str, Dict] = field(default_factory=dict)
    resources: Dict[str, float] = field(default_factory=dict)
    #: Customers this node holds a warm standby for (see migration.standby).
    standbys: List[str] = field(default_factory=list)

    @property
    def instance_names(self) -> List[str]:
        return sorted(self.instances)

    def to_dict(self) -> Dict:
        return {
            "node_id": self.node_id,
            "at": self.at,
            "instances": self.instances,
            "resources": self.resources,
            "standbys": list(self.standbys),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "NodeInventory":
        """Shares ``data``'s containers: ``INV`` payloads are read-only."""
        return cls(
            node_id=data["node_id"],
            at=float(data["at"]),
            instances=data.get("instances", {}),
            resources=data.get("resources", {}),
            standbys=data.get("standbys", []),
        )


class ClusterInventory:
    """This node's assembled knowledge of the cluster."""

    def __init__(self) -> None:
        self._nodes: Dict[str, NodeInventory] = {}

    def update(self, inventory: NodeInventory) -> None:
        existing = self._nodes.get(inventory.node_id)
        if existing is None or inventory.at >= existing.at:
            self._nodes[inventory.node_id] = inventory

    def get(self, node_id: str) -> Optional[NodeInventory]:
        return self._nodes.get(node_id)

    def forget(self, node_id: str) -> Optional[NodeInventory]:
        return self._nodes.pop(node_id, None)

    def node_ids(self) -> List[str]:
        return sorted(self._nodes)

    def instances_on(self, node_id: str) -> List[str]:
        inventory = self._nodes.get(node_id)
        return inventory.instance_names if inventory else []

    def locate(self, instance_name: str) -> Optional[str]:
        """Which node last reported hosting ``instance_name``?"""
        best: Optional[NodeInventory] = None
        for inventory in self._nodes.values():
            if instance_name in inventory.instances:
                if best is None or inventory.at > best.at:
                    best = inventory
        return best.node_id if best else None

    def total_instances(self) -> int:
        return sum(len(inv.instances) for inv in self._nodes.values())

    def standby_host(self, instance_name: str) -> Optional[str]:
        """Which node advertises a warm standby for ``instance_name``?"""
        best: Optional[NodeInventory] = None
        for inventory in self._nodes.values():
            if instance_name in inventory.standbys:
                if best is None or inventory.at > best.at:
                    best = inventory
        return best.node_id if best else None

    def __repr__(self) -> str:
        return "ClusterInventory(%s)" % {
            n: inv.instance_names for n, inv in sorted(self._nodes.items())
        }
