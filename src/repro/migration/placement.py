"""Placement policies: where does an instance go?

The paper defers placement to "policies in the Autonomic Module". The
Migration Module places with :class:`LeastLoadedPlacement`; the
Autonomic Module's consolidation policy plans with
:class:`PackingPlacement`. Both map instance name → node id, omit what
they cannot place, and are **deterministic functions of their inputs** —
every survivor computes the same answer from the same view + inventories,
which is what makes decentralized failure redeployment safe without an
extra agreement round.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.migration.inventory import ClusterInventory
from repro.migration.registry import CustomerDescriptor


class LeastLoadedPlacement:
    """Greedy best-fit by reported free CPU, respecting memory headroom.

    Instances are placed in priority order onto the candidate with the
    most remaining CPU share that still fits the instance's quota; the
    running tally makes one call internally consistent.
    """

    def assign(
        self,
        instances: Sequence[CustomerDescriptor],
        candidate_nodes: Sequence[str],
        inventory: ClusterInventory,
    ) -> Dict[str, str]:
        free_cpu: Dict[str, float] = {}
        free_mem: Dict[str, float] = {}
        for node_id in candidate_nodes:
            node_inventory = inventory.get(node_id)
            resources = node_inventory.resources if node_inventory else {}
            measured = float(resources.get("cpu_available_share", 1.0))
            # Respect standing reservations when the node reports them:
            # an idle node with its CPU fully promised is not free.
            unreserved = float(resources.get("cpu_unreserved_share", measured))
            free_cpu[node_id] = min(measured, unreserved)
            free_mem[node_id] = float(
                resources.get("memory_available_bytes", 4 * 1024**3)
            )
        assignment: Dict[str, str] = {}
        ordered = sorted(instances, key=lambda d: (-d.priority, d.name))
        for descriptor in ordered:
            best: Optional[str] = None
            for node_id in sorted(candidate_nodes):
                if free_mem[node_id] < descriptor.memory_bytes:
                    continue
                remaining = free_cpu[node_id] - descriptor.cpu_share
                # The paper's degradation: refuse past a threshold, here
                # the node's capacity.
                if remaining < 0.0:
                    continue
                if best is None or free_cpu[node_id] > free_cpu[best]:
                    best = node_id
            if best is None:
                continue  # graceful degradation: leave it down, report it
            assignment[descriptor.name] = best
            free_cpu[best] -= descriptor.cpu_share
            free_mem[best] -= descriptor.memory_bytes
        return assignment


class PackingPlacement:
    """First-fit-decreasing consolidation: fill the fewest nodes possible.

    Used by the Autonomic Module's consolidation policy (§4: concentrate
    idle customers on few nodes, hibernate the rest).
    """

    def assign(
        self,
        instances: Sequence[CustomerDescriptor],
        candidate_nodes: Sequence[str],
        inventory: ClusterInventory,
    ) -> Dict[str, str]:
        nodes = sorted(candidate_nodes)
        free_cpu = {n: 1.0 for n in nodes}
        for node_id in nodes:
            node_inventory = inventory.get(node_id)
            if node_inventory and "cpu_capacity" in node_inventory.resources:
                free_cpu[node_id] = float(node_inventory.resources["cpu_capacity"])
        assignment: Dict[str, str] = {}
        ordered = sorted(instances, key=lambda d: (-d.cpu_share, d.name))
        for descriptor in ordered:
            for node_id in nodes:
                if free_cpu[node_id] >= descriptor.cpu_share:
                    assignment[descriptor.name] = node_id
                    free_cpu[node_id] -= descriptor.cpu_share
                    break
        return assignment
