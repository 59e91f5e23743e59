"""The Migration Module proper.

One module runs per node. It joins the platform GCS group, gossips its
node's inventory, and reacts to membership changes:

* a member **left with an empty inventory** — graceful shutdown, nothing to
  do (its Migration Module evacuated first, §3.2);
* a member **left while still hosting instances** — node failure: the
  survivors redeploy its instances "in a decentralized way".

Two coordination modes implement the redeployment decision (compared by
the ABL-ORDER benchmark):

* ``"deterministic"`` — every survivor runs the same pure placement
  function over the shared view and inventories and executes only its own
  assignments; no extra agreement traffic, but divergent inventories can
  cause duplicate deployments (which are then detected and resolved);
* ``"sequencer"`` — the view coordinator computes the assignment and
  disseminates it by total-order multicast; survivors execute exactly what
  was agreed.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.cluster.future import Completion
from repro.cluster.node import Node, NodeState
from repro.gcs.jgcs import GroupConfiguration
from repro.gcs.view import ViewChange
from repro.migration.inventory import ClusterInventory, NodeInventory
from repro.migration.placement import LeastLoadedPlacement
from repro.migration.registry import CustomerDescriptor, CustomerDirectory
from repro.sim.eventloop import ScheduledEvent

#: GCS group every Migration Module joins.
PLATFORM_GROUP = "platform.migration"
#: Seconds between inventory broadcasts (each also runs the orphan sweep).
INVENTORY_INTERVAL = 0.5


@dataclass
class MigrationRecord:
    """One observed instance movement, with its downtime."""

    instance: str
    from_node: str
    to_node: str
    #: "planned" (administrator/Autonomic/evacuation), "failure"
    #: (view-change redeployment) or "recovery" (orphan sweep).
    reason: str
    down_at: float
    up_at: Optional[float] = None

    @property
    def completed(self) -> bool:
        return self.up_at is not None

    @property
    def downtime(self) -> Optional[float]:
        if self.up_at is None:
            return None
        return self.up_at - self.down_at

    def __repr__(self) -> str:
        return "MigrationRecord(%s: %s->%s, %s, down=%.3f, downtime=%s)" % (
            self.instance,
            self.from_node,
            self.to_node,
            self.reason,
            self.down_at,
            "%.3fs" % self.downtime if self.downtime is not None else "pending",
        )


def _endpoint_node(endpoint: str) -> str:
    """``gcs/<group>/<node>`` → ``<node>``."""
    return endpoint.rsplit("/", 1)[1]


class MigrationModule:
    """Per-node migration logic over the GCS."""

    def __init__(
        self,
        node: Node,
        coordination: str = "deterministic",
        hb_interval: float = 0.1,
        fd_timeout: float = 0.35,
        adaptive_fd: bool = False,
    ) -> None:
        if coordination not in ("deterministic", "sequencer"):
            raise ValueError("coordination must be deterministic|sequencer")
        self.node = node
        self.loop = node.loop
        self.placement = LeastLoadedPlacement()
        self.coordination = coordination
        self.customers = CustomerDirectory(node.store, node.loop, owner=node.node_id)
        config = GroupConfiguration(
            PLATFORM_GROUP,
            hb_interval=hb_interval,
            fd_timeout=fd_timeout,
            adaptive_fd=adaptive_fd,
        )
        self.control = node.protocol.create_control_session(config)
        self.data = node.protocol.create_data_session(config)
        self.inventory = ClusterInventory()
        self.records: List[MigrationRecord] = []
        self.duplicate_deploys = 0
        self.unplaced: List[str] = []
        self.running = False
        self._timer: Optional[ScheduledEvent] = None
        # instance -> virtual time the redeploy claim was made. Claims
        # expire after ``redeploy_grace`` so a claim that never materialises
        # (assignment divergence, claimant died) cannot block recovery.
        self._redeploying: Dict[str, float] = {}
        self.redeploy_grace = 15.0
        self._open_records: Dict[str, MigrationRecord] = {}
        self._listeners: List[Callable[[MigrationRecord], None]] = []
        #: name -> handler(args) for cluster-level commands (see CMD).
        self.command_handlers: Dict[str, Callable[[Dict], None]] = {}
        self._orphan_strikes: Dict[str, int] = {}
        self._last_view_change = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self.data.set_message_listener(self._on_message)
        self.control.set_membership_listener(self._on_view_change)
        self.control.join()
        self._broadcast_inventory()
        self._arm_timer()

    def stop(self) -> None:
        """Leave the group quietly (callers evacuate first if needed)."""
        if not self.running:
            return
        self.running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self.control.leave()

    def crash(self) -> None:
        self.running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # ------------------------------------------------------------------
    # Inventory gossip
    # ------------------------------------------------------------------
    def _arm_timer(self) -> None:
        def tick() -> None:
            if not self.running:
                return
            self._broadcast_inventory()
            self._recover_orphans()
            self._arm_timer()

        self._timer = self.loop.call_after(
            INVENTORY_INTERVAL, tick, label="mig-inv:%s" % self.node.node_id
        )

    def _local_inventory(self) -> NodeInventory:
        instances: Dict[str, Dict] = {}
        for instance in self.node.instances():
            instances[instance.name] = {
                "bundles": len(instance.bundles()),
            }
        reserved = sum(i.quota.cpu_share for i in self.node.instances())
        resources: Dict[str, float] = {
            "cpu_capacity": self.node.spec.cpu_capacity,
            # Quota already promised to hosted customers: placement must
            # respect reservations, not just measured load, or an idle
            # node looks free and gets overcommitted.
            "cpu_reserved_share": reserved,
            "cpu_unreserved_share": max(
                0.0, self.node.spec.cpu_capacity - reserved
            ),
        }
        if self.node.monitoring is not None:
            resources.update(self.node.monitoring.node_summary())
        standby = self.node.modules.get("standby")
        return NodeInventory(
            node_id=self.node.node_id,
            at=self.loop.clock.now,
            instances=instances,
            resources=resources,
            standbys=standby.prepared_names() if standby is not None else [],
        )

    def _broadcast_inventory(self) -> None:
        if not self.control.joined:
            return
        inventory = self._local_inventory()
        self.inventory.update(inventory)
        try:
            self.data.multicast({"mig": "INV", "inv": inventory.to_dict()})
        except RuntimeError:
            pass  # not in a view yet

    # ------------------------------------------------------------------
    # Messages
    # ------------------------------------------------------------------
    def _on_message(self, sender: str, payload: Any) -> None:
        if not isinstance(payload, dict) or "mig" not in payload:
            return
        kind = payload["mig"]
        if kind == "INV":
            inventory = NodeInventory.from_dict(payload["inv"])
            self.inventory.update(inventory)
            self._resolve_duplicates(inventory)
        elif kind == "DEPLOY":
            self._on_deploy_request(payload)
        elif kind == "DEPLOYED":
            self._on_deployed(payload)
        elif kind == "ASSIGN":
            self._on_assignment(payload)
        elif kind == "CMD":
            self._on_command(payload)

    def _on_command(self, payload: Dict) -> None:
        """Cluster-level modules (Autonomic) address commands to one node.

        A handler that raises is not swallowed here: the error reaches
        the group member delivering the command, which counts it in
        ``Cluster.gcs_listener_errors``.
        """
        if payload.get("target_node") != self.node.node_id:
            return
        handler = self.command_handlers.get(payload.get("cmd", ""))
        if handler is not None:
            handler(payload.get("args", {}))

    def send_command(self, target_node: str, cmd: str, args: Dict) -> None:
        """Address a command to ``target_node``'s registered handler."""
        if target_node == self.node.node_id:
            handler = self.command_handlers.get(cmd)
            if handler is not None:
                handler(args)
            return
        self.data.multicast(
            {"mig": "CMD", "cmd": cmd, "args": args, "target_node": target_node}
        )

    def _resolve_duplicates(self, remote: NodeInventory) -> None:
        """Two nodes hosting the same instance: lexicographically smaller
        node id keeps it (same rule as the DEPLOYED handler, but driven by
        the periodic gossip so missed messages cannot hide a duplicate)."""
        if remote.node_id >= self.node.node_id or not remote.instances:
            return
        if self.node.instance_manager is None:
            return
        for name in self.node.instance_manager.names():
            if name in remote.instances:
                self.duplicate_deploys += 1
                self.node.undeploy_instance(name)

    def _on_deploy_request(self, payload: Dict) -> None:
        if payload["target"] != self.node.node_id:
            return
        self._deploy_here(
            payload["instance"],
            from_node=payload["from"],
            reason=payload["reason"],
            down_at=payload["down_at"],
        )

    def _on_deployed(self, payload: Dict) -> None:
        instance = payload["instance"]
        host = payload["node"]
        self._redeploying.pop(instance, None)
        record = self._open_records.pop(instance, None)
        if record is not None and record.up_at is None:
            record.to_node = host
            record.up_at = payload["at"]
            self._fire(record)
        # Duplicate resolution: if someone else also hosts this instance,
        # the lexicographically smaller node id keeps it.
        if (
            host != self.node.node_id
            and self.node.instance_manager is not None
            and instance in self.node.instance_manager.names()
        ):
            if host < self.node.node_id:
                self.duplicate_deploys += 1
                self.node.undeploy_instance(instance)

    def _on_assignment(self, payload: Dict) -> None:
        for instance, target in sorted(payload["assignment"].items()):
            if target != self.node.node_id:
                continue
            self._deploy_here(
                instance,
                from_node=payload["from_node"],
                reason="failure",
                down_at=payload["down_at"],
            )

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _on_view_change(self, change: ViewChange) -> None:
        if not self.running:
            return
        self._last_view_change = self.loop.clock.now
        left_nodes = sorted(_endpoint_node(m) for m in change.left)
        orphans: List[str] = []
        failed_nodes: Dict[str, List[str]] = {}
        for node_id in left_nodes:
            hosted = self.inventory.instances_on(node_id)
            self.inventory.forget(node_id)
            if hosted:
                failed_nodes[node_id] = hosted
                orphans.extend(hosted)
        if not orphans:
            return
        self._handle_failures(failed_nodes, change)

    def _handle_failures(
        self, failed_nodes: Dict[str, List[str]], change: ViewChange
    ) -> None:
        now = self.loop.clock.now
        alive = sorted(_endpoint_node(m) for m in change.view.members)
        descriptors: List[CustomerDescriptor] = []
        origin: Dict[str, str] = {}
        for node_id, hosted in sorted(failed_nodes.items()):
            for name in hosted:
                if self._is_redeploying(name):
                    continue
                descriptor = self.customers.get(name)
                if descriptor is None:
                    descriptor = CustomerDescriptor(name=name)
                descriptors.append(descriptor)
                origin[name] = node_id
        if not descriptors:
            return
        # Warm standbys short-circuit placement: every survivor sees the
        # same standby advertisements in the gossip, so this pre-assignment
        # is as deterministic as the placement function itself.
        standby_assigned: Dict[str, str] = {}
        remaining: List[CustomerDescriptor] = []
        for descriptor in descriptors:
            host = self.inventory.standby_host(descriptor.name)
            if host is not None and host in alive:
                standby_assigned[descriptor.name] = host
            else:
                remaining.append(descriptor)
        for name, target in sorted(standby_assigned.items()):
            self._mark_redeploying(name)
            if target == self.node.node_id:
                self._deploy_here(
                    name, from_node=origin[name], reason="failure", down_at=now
                )
        descriptors = remaining
        if not descriptors:
            return
        if self.coordination == "sequencer":
            if not self.control.is_coordinator:
                for descriptor in descriptors:
                    self._mark_redeploying(descriptor.name)
                return
            assignment = self.placement.assign(descriptors, alive, self.inventory)
            self._note_unplaced(descriptors, assignment)
            for name in assignment:
                self._mark_redeploying(name)
            # Total order: every survivor executes the same agreed plan.
            for from_node in sorted(set(origin.values())):
                subset = {
                    k: v for k, v in assignment.items() if origin[k] == from_node
                }
                if subset:
                    self.data.multicast(
                        {
                            "mig": "ASSIGN",
                            "assignment": subset,
                            "from_node": from_node,
                            "down_at": now,
                        },
                        total_order=True,
                    )
            return
        # Deterministic mode: everyone computes; each executes its share.
        assignment = self.placement.assign(descriptors, alive, self.inventory)
        self._note_unplaced(descriptors, assignment)
        for name, target in sorted(assignment.items()):
            self._mark_redeploying(name)
            if target == self.node.node_id:
                self._deploy_here(
                    name, from_node=origin[name], reason="failure", down_at=now
                )

    # ------------------------------------------------------------------
    # Redeploy claims
    # ------------------------------------------------------------------
    def _mark_redeploying(self, name: str) -> None:
        self._redeploying[name] = self.loop.clock.now

    def _is_redeploying(self, name: str) -> bool:
        claimed_at = self._redeploying.get(name)
        if claimed_at is None:
            return False
        if self.loop.clock.now - claimed_at > self.redeploy_grace:
            del self._redeploying[name]
            return False
        return True

    # ------------------------------------------------------------------
    # Orphan recovery sweep
    # ------------------------------------------------------------------
    def _recover_orphans(self) -> None:
        """Coordinator-only safety net.

        Deterministic redeployment can drop an instance when survivors'
        inventories momentarily diverge (each believes another node owns
        the redeploy); capacity shortage can also park instances. This
        sweep finds customers whose desired state is *running* (directory
        ``active``), whose environment exists on the SAN, but that no
        inventory reports — after two consecutive strikes (to let in-
        flight deployments land) it redeploys them via the normal path.
        """
        if not self.control.is_coordinator:
            self._orphan_strikes.clear()
            return
        strikes: Dict[str, int] = self._orphan_strikes
        view = self.control.current_view
        if view is None:
            return
        # A freshly changed view means inventories are still converging —
        # sweeping now would see phantom orphans and double-deploy them.
        if (
            self.loop.clock.now - self._last_view_change
            < 4 * INVENTORY_INTERVAL
        ):
            strikes.clear()
            return
        alive = sorted(_endpoint_node(m) for m in view.members)
        recoverable: List[CustomerDescriptor] = []
        for name in self.customers.names():
            descriptor = self.customers.get(name)
            if descriptor is None or not descriptor.active:
                strikes.pop(name, None)
                continue
            open_record = self._open_records.get(name)
            handoff_pending = (
                open_record is not None
                and self.loop.clock.now - open_record.down_at
                <= self.redeploy_grace
            )
            if (
                self._is_redeploying(name)
                or handoff_pending
                or self.inventory.locate(name) is not None
                or not self.node.store.has_state("vosgi:%s" % name)
            ):
                strikes.pop(name, None)
                continue
            strikes[name] = strikes.get(name, 0) + 1
            if strikes[name] >= 2:
                recoverable.append(descriptor)
        if not recoverable:
            return
        now = self.loop.clock.now
        assignment = self.placement.assign(recoverable, alive, self.inventory)
        for name, target in sorted(assignment.items()):
            strikes.pop(name, None)
            self._mark_redeploying(name)
            if name in self.unplaced:
                self.unplaced.remove(name)
            if target == self.node.node_id:
                self._deploy_here(
                    name, from_node="?", reason="recovery", down_at=now
                )
            else:
                self.data.multicast(
                    {
                        "mig": "DEPLOY",
                        "instance": name,
                        "target": target,
                        "from": "?",
                        "reason": "recovery",
                        "down_at": now,
                    }
                )

    def _note_unplaced(
        self, descriptors: List[CustomerDescriptor], assignment: Dict[str, str]
    ) -> None:
        for descriptor in descriptors:
            if descriptor.name not in assignment:
                if descriptor.name not in self.unplaced:
                    self.unplaced.append(descriptor.name)

    # ------------------------------------------------------------------
    # Deployment execution
    # ------------------------------------------------------------------
    def _deploy_here(
        self, instance: str, from_node: str, reason: str, down_at: float
    ) -> None:
        if self.node.state != NodeState.ON or self.node.instance_manager is None:
            return
        if instance in self.node.instance_manager.names():
            return
        descriptor = self.customers.get(instance) or CustomerDescriptor(name=instance)
        record = MigrationRecord(
            instance=instance,
            from_node=from_node,
            to_node=self.node.node_id,
            reason=reason,
            down_at=down_at,
        )
        self.records.append(record)
        bundle_count = descriptor.bundle_count_hint
        warm = False
        standby = self.node.modules.get("standby")
        if standby is not None and standby.is_prepared(instance):
            prepared = standby.consume(instance)
            if prepared is not None:
                warm = True
                bundle_count = prepared.bundle_count
        node_id = self.node.node_id
        probe = self.loop.probe
        deploy_op = mig_span = None
        if probe is not None:
            failover = reason == "failure"
            deploy_op = probe.migration_event(
                node_id,
                "failover" if failover else "deploy",
                instance,
                from_node,
                node_id,
                reason,
                warm,
            )
            mig_span = probe.start_span(
                "migration.failover" if failover else "migration.deploy",
                node_id,
                {
                    "instance": instance,
                    "from": from_node,
                    "reason": reason,
                    "warm": warm,
                },
            )
        with nullcontext() if probe is None else probe.activate(mig_span):
            completion = self.node.deploy_instance(
                instance,
                policy=descriptor.policy(),
                quota=descriptor.quota(),
                bundle_count_hint=bundle_count,
                state_bytes_hint=descriptor.state_bytes_hint,
                warm=warm,
            )

        def finished(c: Completion) -> None:
            probe = self.loop.probe
            if mig_span is not None:
                mig_span.attributes["ok"] = c.ok
                mig_span.finish(self.loop.clock.now)
            if probe is not None:
                probe.migration_done(deploy_op, node_id, c.ok)
            if not c.ok:
                self._redeploying.pop(instance, None)
                return
            record.up_at = self.loop.clock.now
            if probe is not None:
                probe.migration_event(
                    node_id,
                    "activation",
                    instance,
                    from_node,
                    node_id,
                    reason,
                    warm,
                    downtime=record.downtime,
                )
            self._redeploying.pop(instance, None)
            self._fire(record)
            self._broadcast_inventory()
            try:
                self.data.multicast(
                    {
                        "mig": "DEPLOYED",
                        "instance": instance,
                        "node": node_id,
                        "at": record.up_at,
                    }
                )
            except RuntimeError:
                pass

        completion.on_done(finished)

    # ------------------------------------------------------------------
    # Planned migration & evacuation
    # ------------------------------------------------------------------
    def migrate(self, instance: str, target_node: str) -> Completion[MigrationRecord]:
        """Move a locally hosted instance to ``target_node``.

        "Instructed directly by the administrator or by the Autonomic
        Module." Downtime = stop on source + redeploy on target.
        """
        if self.node.instance_manager is None or instance not in (
            self.node.instance_manager.names()
        ):
            raise ValueError(
                "instance %r is not hosted on node %s" % (instance, self.node.node_id)
            )
        completion: Completion[MigrationRecord] = Completion(
            "migrate:%s->%s" % (instance, target_node)
        )
        record = MigrationRecord(
            instance=instance,
            from_node=self.node.node_id,
            to_node=target_node,
            reason="planned",
            down_at=self.loop.clock.now,
        )
        self.records.append(record)

        def stopped(c: Completion) -> None:
            if not c.ok:
                completion.fail(c.error or RuntimeError("undeploy failed"))
                return
            self._broadcast_inventory()
            if target_node == self.node.node_id:
                self._deploy_here(
                    instance,
                    from_node=self.node.node_id,
                    reason="planned",
                    down_at=record.down_at,
                )
            else:
                self._open_records[instance] = record
                self.data.multicast(
                    {
                        "mig": "DEPLOY",
                        "instance": instance,
                        "target": target_node,
                        "from": self.node.node_id,
                        "reason": "planned",
                        "down_at": record.down_at,
                    }
                )
            self._watch_record(record, completion)

        self.node.undeploy_instance(instance).on_done(stopped)
        return completion

    def _watch_record(
        self,
        record: MigrationRecord,
        completion: Completion[MigrationRecord],
        timeout: float = 30.0,
    ) -> None:
        deadline = self.loop.clock.now + timeout

        def check() -> None:
            if completion.done:
                return
            if record.up_at is not None:
                completion.complete(record, at=self.loop.clock.now)
                return
            if self.loop.clock.now >= deadline:
                # Unblock the recovery sweep: the handoff is considered
                # dead and the instance an orphan again.
                self._open_records.pop(record.instance, None)
                self._redeploying.pop(record.instance, None)
                completion.fail(
                    TimeoutError("migration of %s timed out" % record.instance)
                )
                return
            self.loop.call_after(0.05, check, label="mig-watch")

        check()

    def evacuate(self) -> Completion[List[MigrationRecord]]:
        """Move every local instance elsewhere (graceful shutdown, §3.2)."""
        completion: Completion[List[MigrationRecord]] = Completion(
            "evacuate:%s" % self.node.node_id
        )
        names = self.node.instance_names()
        if not names:
            self._broadcast_inventory()
            completion.complete([], at=self.loop.clock.now)
            return completion
        view = self.control.current_view
        others = sorted(
            _endpoint_node(m)
            for m in (view.members if view else ())
            if _endpoint_node(m) != self.node.node_id
        )
        if not others:
            completion.fail(RuntimeError("no surviving node to evacuate to"))
            return completion
        descriptors = [
            self.customers.get(n) or CustomerDescriptor(name=n) for n in names
        ]
        assignment = self.placement.assign(descriptors, others, self.inventory)
        self._note_unplaced(descriptors, assignment)
        pending: List[Completion[MigrationRecord]] = []
        results: List[MigrationRecord] = []
        for name, target in sorted(assignment.items()):
            migration = self.migrate(name, target)
            pending.append(migration)
            migration.on_done(
                lambda c: results.append(c.value) if c.ok else None
            )

        def poll() -> None:
            if completion.done:
                return
            if all(p.done for p in pending):
                self._broadcast_inventory()
                completion.complete(results, at=self.loop.clock.now)
                return
            self.loop.call_after(0.05, poll, label="evac-poll")

        poll()
        return completion

    def shutdown_gracefully(self) -> Completion[Node]:
        """Evacuate, announce, leave the group, power the node off."""
        completion: Completion[Node] = Completion(
            "graceful:%s" % self.node.node_id
        )

        def evacuated(c: Completion) -> None:
            if not c.ok:
                completion.fail(c.error or RuntimeError("evacuation failed"))
                return
            self.stop()
            # Give the LEAVE a moment to disseminate before power-off.
            self.loop.call_after(
                0.2,
                lambda: self.node.shutdown().on_done(
                    lambda s: completion.complete(self.node, at=self.loop.clock.now)
                    if s.ok
                    else completion.fail(s.error or RuntimeError("shutdown failed"))
                ),
                label="graceful-off",
            )

        self.evacuate().on_done(evacuated)
        return completion

    # ------------------------------------------------------------------
    def add_listener(self, listener: Callable[[MigrationRecord], None]) -> None:
        if listener not in self._listeners:
            self._listeners.append(listener)

    def _fire(self, record: MigrationRecord) -> None:
        """Tell the record listeners; one that raises is a bug and raises."""
        for listener in list(self._listeners):
            listener(record)

    def __repr__(self) -> str:
        return "MigrationModule(%s, %s, records=%d)" % (
            self.node.node_id,
            self.coordination,
            len(self.records),
        )
