"""Cluster wiring: one loop, one network, one SAN, N nodes."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cluster.node import Node, NodeState
from repro.cluster.spec import CostModel, NodeSpec
from repro.gcs.directory import GroupDirectory
from repro.sim.clock import Clock
from repro.sim.eventloop import EventLoop
from repro.sim.network import Network
from repro.sim.rng import RngStreams
from repro.storage.san import SharedStore


class Cluster:
    """A set of nodes sharing network, SAN, group directory and clock."""

    def __init__(
        self,
        seed: int = 0,
        latency: float = 0.001,
        jitter: float = 0.0005,
        loss_rate: float = 0.0,
        spec: Optional[NodeSpec] = None,
        costs: Optional[CostModel] = None,
        monitoring_mode: str = "jsr284",
        monitoring_interval: float = 1.0,
    ) -> None:
        self.rng = RngStreams(seed)
        self.loop = EventLoop(Clock())
        self.network = Network(
            self.loop, self.rng, latency=latency, jitter=jitter, loss_rate=loss_rate
        )
        self.store = SharedStore()
        self.directory = GroupDirectory()
        self.spec = spec if spec is not None else NodeSpec()
        self.costs = costs if costs is not None else CostModel()
        self.monitoring_mode = monitoring_mode
        self.monitoring_interval = monitoring_interval
        self._nodes: Dict[str, Node] = {}

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, node_count: int, seed: int = 0, boot: bool = True, **kwargs
    ) -> "Cluster":
        """Create ``node_count`` nodes named n1..nN; optionally boot them."""
        cluster = cls(seed=seed, **kwargs)
        for i in range(1, node_count + 1):
            cluster.add_node("n%d" % i)
        if boot:
            cluster.boot_all()
        return cluster

    def add_node(
        self,
        node_id: str,
        spec: Optional[NodeSpec] = None,
        monitoring_mode: Optional[str] = None,
    ) -> Node:
        if node_id in self._nodes:
            raise ValueError("node %r already exists" % node_id)
        node = Node(
            node_id,
            self.loop,
            self.network,
            self.store,
            self.directory,
            spec=spec if spec is not None else self.spec,
            costs=self.costs,
            rng=self.rng,
            monitoring_mode=monitoring_mode or self.monitoring_mode,
            monitoring_interval=self.monitoring_interval,
        )
        self._nodes[node_id] = node
        return node

    def boot_all(self) -> None:
        """Boot every OFF node and run the loop until all are up."""
        pending = []
        for node in self.nodes():
            if node.state == NodeState.OFF:
                pending.append(node.boot())
        self.run_until_settled(pending)

    # ------------------------------------------------------------------
    def node(self, node_id: str) -> Node:
        return self._nodes[node_id]

    def nodes(self) -> List[Node]:
        return [self._nodes[k] for k in sorted(self._nodes)]

    def alive_nodes(self) -> List[Node]:
        return [n for n in self.nodes() if n.alive]

    def failed_nodes(self) -> List[Node]:
        return [n for n in self.nodes() if n.state == NodeState.FAILED]

    # ------------------------------------------------------------------
    def run_for(self, duration: float) -> int:
        """Advance virtual time."""
        return self.loop.run_for(duration)

    def run_until_settled(self, completions, timeout: float = 60.0) -> None:
        """Advance time until every completion settles (or timeout)."""
        deadline = self.loop.clock.now + timeout
        while self.loop.clock.now < deadline:
            if all(c.done for c in completions):
                return
            nxt = self.loop.peek_next_time()
            if nxt is None or nxt > deadline:
                break
            self.loop.step()
        if not all(c.done for c in completions):
            raise TimeoutError(
                "completions still pending after %.1fs: %s"
                % (timeout, [c for c in completions if not c.done])
            )

    # ------------------------------------------------------------------
    def total_power_watts(self) -> float:
        return sum(n.power_watts() for n in self.nodes())

    def gcs_listener_errors(self) -> int:
        """GCS view and message listeners that raised, over all nodes,
        across crashes and rejoins (``loop.errors`` keys them by node).

        A raising listener is skipped so the others still run; this count
        is what is left of the exception (0 in a healthy run)."""
        return sum(
            count
            for key, count in self.loop.errors.items()
            if key.startswith("gcs.listener/")
        )

    def __repr__(self) -> str:
        states = {n.node_id: n.state.value for n in self.nodes()}
        return "Cluster(t=%.2f, %s)" % (self.loop.clock.now, states)
