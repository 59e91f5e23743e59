"""The Autonomic Module: events in, enforcement out.

Per node, the module:

* turns Monitoring Module reports into ``"usage-report"`` events for a
  node-level :class:`~repro.autonomic.serpentine.PolicyEngine`;
* on the GCS coordinator only, emits periodic ``"cluster-tick"`` events to
  a cluster-level parent engine (the Serpentine hierarchy in action);
* executes the resulting actions, locally or by addressing a command to
  the hosting node through the Migration Module's command channel — "it is
  able to instrument the Migration Module to migrate a given instance".
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from repro.autonomic.serpentine import (
    Action,
    AutonomicContext,
    Event,
    PolicyEngine,
    Policy,
)
from repro.cluster.node import Node, NodeState
from repro.migration.module import MigrationModule
from repro.monitoring.monitor import UsageReport
from repro.sim.eventloop import ScheduledEvent

#: Seconds between cluster-policy evaluations.
CLUSTER_TICK_INTERVAL = 2.0


class AutonomicModule:
    """Wires engines, monitoring and migration together on one node."""

    def __init__(self, node: Node, migration: MigrationModule) -> None:
        self.node = node
        self.migration = migration
        self.loop = node.loop
        self.cluster_engine = PolicyEngine(
            "cluster:%s" % node.node_id, executor=self._execute
        )
        self.engine = PolicyEngine(
            "node:%s" % node.node_id,
            executor=self._execute,
            parent=self.cluster_engine,
        )
        self.context = AutonomicContext(
            node=node,
            migration=migration,
            monitoring=node.monitoring,
        )
        self.throttled: Set[str] = set()
        self.actions_log: List[Action] = []
        self.running = False
        self._timer: Optional[ScheduledEvent] = None

    # ------------------------------------------------------------------
    def add_node_policy(self, policy: Policy) -> "AutonomicModule":
        self.engine.add_policy(policy)
        return self

    def add_cluster_policy(self, policy: Policy) -> "AutonomicModule":
        self.cluster_engine.add_policy(policy)
        return self

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self.context.facilities["monitoring"] = self.node.monitoring
        if self.node.monitoring is not None:
            self.node.monitoring.add_listener(self._on_report)
        self.migration.command_handlers["migrate"] = self._cmd_migrate
        self.migration.command_handlers["stop-instance"] = self._cmd_stop
        self.migration.command_handlers["hibernate-node"] = self._cmd_hibernate
        self._arm_cluster_tick()

    def stop(self) -> None:
        self.running = False
        if self.node.monitoring is not None:
            self.node.monitoring.remove_listener(self._on_report)
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def crash(self) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Event sources
    # ------------------------------------------------------------------
    def _on_report(self, report: UsageReport) -> None:
        if not self.running:
            return
        event = Event(
            "usage-report",
            at=self.loop.clock.now,
            data={"report": report},
            source=self.node.node_id,
        )
        self.engine.handle(event, self.context)

    def _arm_cluster_tick(self) -> None:
        def tick() -> None:
            if not self.running:
                return
            if self.migration.control.is_coordinator:
                event = Event(
                    "cluster-tick",
                    at=self.loop.clock.now,
                    source=self.node.node_id,
                )
                self.cluster_engine.handle(event, self.context)
            self._arm_cluster_tick()

        self._timer = self.loop.call_after(
            CLUSTER_TICK_INTERVAL, tick, label="auto-tick:%s" % self.node.node_id
        )

    # ------------------------------------------------------------------
    # Action execution
    # ------------------------------------------------------------------
    def _execute(self, action: Action, context: AutonomicContext) -> bool:
        self.actions_log.append(action)
        if action.kind == "migrate":
            return self._do_migrate(action)
        if action.kind == "stop-instance":
            return self._do_stop(action)
        if action.kind == "throttle":
            return self._do_throttle(action)
        if action.kind == "hibernate-node":
            return self._do_hibernate(action)
        if action.kind == "wake-node":
            return self._do_wake(action)
        return False

    def _do_wake(self, action: Action) -> bool:
        """Wake a hibernated node via the out-of-band wake agent (the
        wake-on-LAN analogue — a sleeping node is unreachable over GCS)."""
        wake_agent = self.context.facilities.get("wake_agent")
        if wake_agent is None:
            return False
        # A refused wake fails the agent's completion; a raise is a bug.
        wake_agent(action.target)
        return True

    def _do_migrate(self, action: Action) -> bool:
        instance = action.target
        from_node = action.params.get("from_node")
        hosted_here = instance in self.node.instance_names()
        if hosted_here:
            target = action.params.get("to_node") or self._pick_target()
            if target is None:
                return False
            self.migration.migrate(instance, target)
            return True
        host = from_node or self.migration.inventory.locate(instance)
        if host is None:
            return False
        target = action.params.get("to_node") or self._pick_target(exclude=host)
        if target is None:
            return False
        self.migration.send_command(
            host, "migrate", {"instance": instance, "to_node": target}
        )
        return True

    def _do_stop(self, action: Action) -> bool:
        instance = action.target
        self._mark_inactive(instance)
        if instance in self.node.instance_names():
            host = self.node.node_id
        else:
            host = self.migration.inventory.locate(instance)
        if host is None:
            return False
        self.migration.send_command(host, "stop-instance", {"instance": instance})
        return True

    def _mark_inactive(self, instance: str) -> None:
        """Record the *desired* state so the recovery sweep respects it."""
        from repro.migration.registry import CustomerDescriptor

        descriptor = self.migration.customers.get(instance)
        if descriptor is not None and descriptor.active:
            self.migration.customers.put(
                CustomerDescriptor(**{**descriptor.to_dict(), "active": False})
            )

    def _do_throttle(self, action: Action) -> bool:
        self.throttled.add(action.target)
        descriptor = self.migration.customers.get(action.target)
        if descriptor is not None:
            from repro.migration.registry import CustomerDescriptor

            lowered = CustomerDescriptor(
                **{**descriptor.to_dict(), "priority": descriptor.priority - 1}
            )
            self.migration.customers.put(lowered)
        return True

    def _do_hibernate(self, action: Action) -> bool:
        if action.target == self.node.node_id:
            return self._cmd_hibernate({})
        self.migration.send_command(action.target, "hibernate-node", {})
        return True

    # ------------------------------------------------------------------
    # Remote command handlers (invoked via the Migration Module channel)
    # ------------------------------------------------------------------
    def _cmd_migrate(self, args: Dict) -> None:
        instance = args.get("instance")
        target = args.get("to_node")
        if instance in self.node.instance_names() and target:
            self.migration.migrate(instance, target)

    def _cmd_stop(self, args: Dict) -> None:
        # The requester already marked the customer inactive (_do_stop).
        instance = args.get("instance")
        if instance in self.node.instance_names():
            self.node.undeploy_instance(instance)

    def _cmd_hibernate(self, args: Dict) -> bool:
        if self.node.instance_names():
            return False  # never hibernate a node still hosting customers
        if self.node.state != NodeState.ON:
            return False
        self.migration.stop()
        self.node.hibernate()
        return True

    # ------------------------------------------------------------------
    def _pick_target(self, exclude: Optional[str] = None) -> Optional[str]:
        """Most CPU headroom among other alive nodes, per the inventory."""
        best: Optional[str] = None
        best_free = -1.0
        for node_id in self.migration.inventory.node_ids():
            if node_id == self.node.node_id or node_id == exclude:
                continue
            inventory = self.migration.inventory.get(node_id)
            if inventory is None:
                continue
            free = float(inventory.resources.get("cpu_available_share", 0.0))
            if free > best_free:
                best = node_id
                best_free = free
        return best

    def __repr__(self) -> str:
        return "AutonomicModule(%s, actions=%d)" % (
            self.node.node_id,
            len(self.actions_log),
        )
