"""Executes a :class:`FaultSchedule` as events on the shared event loop.

The injector owns no randomness: everything it does is dictated by the
schedule, so a (seed, schedule) pair replays exactly. Each action lands as
a labelled event (``fault:<kind>``) on the cluster's
:class:`~repro.sim.eventloop.EventLoop` and appends to a
:class:`~repro.faults.trace.FaultTrace` — including the *skips* (crashing
a node that is already down), because a skip changes nothing in the
cluster but is still part of the reproducible story.

Fault semantics per kind:

* ``crash`` — fail-stop via :meth:`DependableEnvironment.fail_node` (so
  SLA downtime accounting sees it) or bare :meth:`Node.fail`;
* ``repair`` — boot a FAILED/OFF node back, rewiring its platform modules
  when an environment is attached;
* ``partition`` / ``heal`` — node-id partitions on the network (endpoints
  attached after the split, e.g. a repaired node's fresh GCS identity,
  stay correctly confined);
* ``loss_burst`` — raises ``Network.loss_rate`` and restores the previous
  value after the burst;
* ``slow_node`` — per-node extra one-way latency, then clears it;
* ``clock_skew`` — a node whose clock runs fast (factor < 1) heartbeats
  and suspects early; one running slow (factor > 1) heartbeats late. The
  observable effect of skew in this middleware is entirely through those
  timers, so the injector scales the node's GCS timer intervals for the
  window and restores the originals afterwards.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.node import NodeState
from repro.faults.schedule import (
    CLOCK_SKEW,
    CRASH,
    HEAL,
    LOSS_BURST,
    PARTITION,
    REPAIR,
    SLOW_NODE,
    FaultAction,
    FaultSchedule,
)
from repro.faults.trace import FaultTrace


class FaultInjector:
    """Binds one schedule to one cluster (optionally one environment)."""

    def __init__(
        self,
        cluster: Cluster,
        schedule: FaultSchedule,
        env: Optional[Any] = None,
        trace: Optional[FaultTrace] = None,
    ) -> None:
        self.cluster = cluster
        self.schedule = schedule
        self.env = env
        self.trace = trace if trace is not None else FaultTrace()
        self.armed = False
        self._baseline_loss = cluster.network.loss_rate
        self._slowed_nodes: List[str] = []
        #: (member, original hb_interval) pairs for active skews.
        self._skews: List[Tuple[Any, float]] = []

    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Schedule every action relative to the current virtual time."""
        if self.armed:
            raise RuntimeError("injector is already armed")
        self.armed = True
        loop = self.cluster.loop
        base = loop.clock.now
        self._baseline_loss = self.cluster.network.loss_rate
        for action in self.schedule:
            loop.call_at(
                base + action.at,
                lambda a=action: self._execute(a),
                label="fault:%s" % action.kind,
            )

    def quiesce(self) -> None:
        """Withdraw every environmental fault so the cluster can settle.

        Heals partitions, restores the baseline loss rate, clears slow
        nodes and undoes clock skews. Crashed nodes are *not* repaired —
        that is a policy decision left to the campaign.
        """
        network = self.cluster.network
        network.heal()
        network.loss_rate = self._baseline_loss
        for node_id in self._slowed_nodes:
            network.clear_node_latency(node_id)
        self._slowed_nodes = []
        self._restore_skews()
        self.trace.record(self.cluster.loop.clock.now, "quiesce", "all-clear")

    # ------------------------------------------------------------------
    def _execute(self, action: FaultAction) -> None:
        handler = {
            CRASH: self._do_crash,
            REPAIR: self._do_repair,
            PARTITION: self._do_partition,
            HEAL: self._do_heal,
            LOSS_BURST: self._do_loss_burst,
            SLOW_NODE: self._do_slow_node,
            CLOCK_SKEW: self._do_clock_skew,
        }[action.kind]
        handler(action)

    def _record(self, action: FaultAction, detail: str) -> None:
        self.trace.record(self.cluster.loop.clock.now, action.kind, detail)

    def _node_or_skip(self, action: FaultAction):
        node_id = action.arg("node")
        try:
            return self.cluster.node(node_id)
        except KeyError:
            self._record(action, "skipped unknown-node %s" % node_id)
            return None

    # -- node lifecycle --------------------------------------------------
    def _do_crash(self, action: FaultAction) -> None:
        node = self._node_or_skip(action)
        if node is None:
            return
        if node.state in (NodeState.OFF, NodeState.FAILED):
            self._record(action, "skipped %s already-%s" % (
                node.node_id, node.state.value))
            return
        if self.env is not None:
            hosted = self.env.fail_node(node.node_id)
            self._record(
                action,
                "%s hosted=%s" % (node.node_id, ",".join(hosted) or "-"),
            )
        else:
            node.fail()
            self._record(action, node.node_id)

    def _do_repair(self, action: FaultAction) -> None:
        node = self._node_or_skip(action)
        if node is None:
            return
        if node.state not in (NodeState.FAILED, NodeState.OFF):
            self._record(action, "skipped %s state-%s" % (
                node.node_id, node.state.value))
            return
        if self.env is not None:
            self.env.repair_node(node.node_id)
        else:
            node.boot()
        self._record(action, node.node_id)

    # -- network conditions ----------------------------------------------
    def _do_partition(self, action: FaultAction) -> None:
        groups = action.arg("groups", ())
        self.cluster.network.partition_nodes(*(set(g) for g in groups))
        self._record(
            action,
            "|".join(",".join(sorted(g)) for g in groups),
        )

    def _do_heal(self, action: FaultAction) -> None:
        self.cluster.network.heal()
        self._record(action, "-")

    def _do_loss_burst(self, action: FaultAction) -> None:
        network = self.cluster.network
        rate = float(action.arg("rate"))
        duration = float(action.arg("duration"))
        previous = network.loss_rate
        network.loss_rate = rate
        self._record(action, "rate=%.3f for=%.3fs" % (rate, duration))

        def restore() -> None:
            network.loss_rate = previous
            self.trace.record(
                self.cluster.loop.clock.now,
                "loss_restore",
                "rate=%.3f" % previous,
            )

        self.cluster.loop.call_after(duration, restore, label="fault:loss-end")

    def _do_slow_node(self, action: FaultAction) -> None:
        node_id = action.arg("node")
        extra = float(action.arg("extra"))
        duration = float(action.arg("duration"))
        network = self.cluster.network
        network.set_node_latency(node_id, extra)
        self._slowed_nodes.append(node_id)
        self._record(action, "%s +%.4fs for=%.3fs" % (node_id, extra, duration))

        def restore() -> None:
            network.clear_node_latency(node_id)
            if node_id in self._slowed_nodes:
                self._slowed_nodes.remove(node_id)
            self.trace.record(
                self.cluster.loop.clock.now, "slow_restore", node_id
            )

        self.cluster.loop.call_after(duration, restore, label="fault:slow-end")

    # -- clock skew --------------------------------------------------------
    def _do_clock_skew(self, action: FaultAction) -> None:
        node = self._node_or_skip(action)
        if node is None:
            return
        factor = float(action.arg("factor"))
        duration = float(action.arg("duration"))
        skewed = []
        for member in node.group_members():
            skewed.append((member, member.hb_interval))
            member.hb_interval = member.hb_interval * factor
        self._skews.extend(skewed)
        self._record(
            action,
            "%s x%.3f members=%d for=%.3fs"
            % (node.node_id, factor, len(skewed), duration),
        )

        def restore() -> None:
            for member, original in skewed:
                member.hb_interval = original
                for pair in list(self._skews):
                    if pair[0] is member:
                        self._skews.remove(pair)
                        break
            self.trace.record(
                self.cluster.loop.clock.now, "skew_restore", node.node_id
            )

        self.cluster.loop.call_after(duration, restore, label="fault:skew-end")

    def _restore_skews(self) -> None:
        for member, original in self._skews:
            member.hb_interval = original
        self._skews = []

    def __repr__(self) -> str:
        return "FaultInjector(%d actions, %s, trace=%d)" % (
            len(self.schedule),
            "armed" if self.armed else "idle",
            len(self.trace),
        )
