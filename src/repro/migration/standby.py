"""Warm standby — the paper's "instantaneous failover" future work.

§3.2: *"having the running context of the bundle replicated on other
nodes and doing instantaneous failover in case of node failures. Naturally
this approach has many issues to solve, namely the costs and feasibility
of strategies such as the pointed above but the approach seems worth
investigating."*

Investigated here: a :class:`StandbyManager` on a node *prepares* a
customer — reading the customer's environment from the SAN and
pre-materializing its bundles locally (installed + resolved, not active) —
and keeps the preparation fresh with a periodic resync. At failover the
Migration Module sees the advertised standby in the inventory gossip,
routes the redeployment there, and the deployment pays only *activation*
cost instead of the full SAN read + install + resolve. Combined with the
:mod:`~repro.migration.livemigration` checkpoints (running context already
on the SAN), failover downtime drops to tens of milliseconds — measured by
the ABL-STANDBY benchmark against the cold redeploy path.

The cost of the strategy, as the paper anticipates: the standby node holds
memory for environments it is not serving, and preparation/resync consume
background time proportional to the instance size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster.future import Completion
from repro.cluster.node import Node, NodeState
from repro.migration.registry import CustomerDescriptor, CustomerDirectory
from repro.sim.eventloop import ScheduledEvent


@dataclass
class PreparedStandby:
    """Local record of one prepared customer."""

    name: str
    bundle_count: int
    state_bytes: int
    prepared_at: float
    synced_at: float

    def memory_cost_bytes(self, per_bundle: int = 64 * 1024) -> int:
        return self.bundle_count * per_bundle + 512 * 1024


class StandbyManager:
    """Keeps warm standbys of selected customers on this node."""

    def __init__(self, node: Node, sync_interval: float = 1.0) -> None:
        self.node = node
        self.loop = node.loop
        self.sync_interval = sync_interval
        self.customers = CustomerDirectory(node.store, node.loop)
        self._prepared: Dict[str, PreparedStandby] = {}
        self.running = False
        self._timer: Optional[ScheduledEvent] = None
        self.preparations = 0
        self.resyncs = 0
        self.promotions = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self._arm()

    def stop(self) -> None:
        self.running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def crash(self) -> None:
        self.stop()
        self._prepared.clear()

    # ------------------------------------------------------------------
    def prepare(self, name: str) -> "Completion[PreparedStandby]":
        """Materialize a standby of customer ``name`` on this node.

        Pays the full instance-read cost once (SAN state + archives +
        resolution), in the background; afterwards the node advertises the
        standby and failovers to it are activation-only.
        """
        if self.node.state != NodeState.ON:
            raise RuntimeError("node %s is not running" % self.node.node_id)
        if name in self._prepared:
            raise ValueError("standby for %r already prepared" % name)
        completion: Completion[PreparedStandby] = Completion(
            "standby:%s@%s" % (name, self.node.node_id)
        )
        descriptor = self.customers.get(name) or CustomerDescriptor(name=name)
        delay = self.node.costs.instance_start_seconds(
            bundle_count=descriptor.bundle_count_hint,
            state_bytes=descriptor.state_bytes_hint,
        )

        def finish() -> None:
            if self.node.state != NodeState.ON:
                completion.fail(RuntimeError("node died during preparation"))
                return
            record = PreparedStandby(
                name=name,
                bundle_count=self._live_bundle_count(name, descriptor),
                state_bytes=descriptor.state_bytes_hint,
                prepared_at=self.loop.clock.now,
                synced_at=self.loop.clock.now,
            )
            self._prepared[name] = record
            self.preparations += 1
            completion.complete(record, at=self.loop.clock.now)

        self.loop.call_after(delay, finish, label="standby-prep:%s" % name)
        return completion

    def unprepare(self, name: str) -> bool:
        return self._prepared.pop(name, None) is not None

    def consume(self, name: str) -> Optional[PreparedStandby]:
        """Promote: hand the preparation to the deployer and drop it."""
        record = self._prepared.pop(name, None)
        if record is not None:
            self.promotions += 1
        return record

    def is_prepared(self, name: str) -> bool:
        return name in self._prepared

    def prepared_names(self) -> List[str]:
        return sorted(self._prepared)

    def memory_cost_bytes(self) -> int:
        """What the warm copies cost this node while idle."""
        return sum(r.memory_cost_bytes() for r in self._prepared.values())

    # ------------------------------------------------------------------
    def _live_bundle_count(
        self, name: str, descriptor: CustomerDescriptor
    ) -> int:
        state = self.node.store.load_state("vosgi:%s" % name)
        if state is not None:
            return len(state.bundles)
        return descriptor.bundle_count_hint

    def _arm(self) -> None:
        def tick() -> None:
            if not self.running:
                return
            self._resync()
            self._arm()

        self._timer = self.loop.call_after(
            self.sync_interval, tick, label="standby-sync:%s" % self.node.node_id
        )

    def _resync(self) -> None:
        """Refresh each preparation against the primary's persisted state."""
        for name, record in list(self._prepared.items()):
            descriptor = self.customers.get(name)
            if descriptor is not None and not descriptor.active:
                # Customer deliberately stopped: drop the standby.
                del self._prepared[name]
                continue
            fresh_count = self._live_bundle_count(
                name, descriptor or CustomerDescriptor(name=name)
            )
            if fresh_count != record.bundle_count:
                record.bundle_count = fresh_count
            record.synced_at = self.loop.clock.now
            self.resyncs += 1

    def __repr__(self) -> str:
        return "StandbyManager(%s, prepared=%s)" % (
            self.node.node_id,
            self.prepared_names(),
        )
