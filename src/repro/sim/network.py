"""Simulated message network between named endpoints.

The network delivers unicast messages between :class:`Endpoint` objects with
configurable latency, jitter and loss, and supports administrative
partitions. Delivery order between a fixed (source, destination) pair is
FIFO — latency jitter is applied per-message but a later message never
overtakes an earlier one on the same link, matching TCP-like channels the
paper's middleware (jGCS over a LAN) would use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.sim.eventloop import EventLoop
from repro.sim.rng import RngStreams


class Message:
    """An opaque payload in flight between two endpoints.

    One is built per message sent, so it is a plain slotted class: the
    six attributes and the positional constructor are the contract.
    Messages compare by identity and handlers must treat them, and the
    payload a :meth:`Network.send_all` fan-out shares, as read-only.
    """

    __slots__ = ("source", "destination", "payload", "sent_at", "size_bytes", "trace")

    def __init__(
        self,
        source: str,
        destination: str,
        payload: Any,
        sent_at: float,
        size_bytes: int = 256,
        trace: Any = None,
    ) -> None:
        self.source = source
        self.destination = destination
        self.payload = payload
        self.sent_at = sent_at
        self.size_bytes = size_bytes
        #: Captured telemetry span context, re-activated around delivery.
        self.trace = trace

    def __repr__(self) -> str:
        return "Message(%s -> %s at %r, %d bytes: %r)" % (
            self.source,
            self.destination,
            self.sent_at,
            self.size_bytes,
            self.payload,
        )


@dataclass
class NetworkStats:
    """Counters describing traffic seen by the network so far."""

    sent: int = 0
    delivered: int = 0
    dropped_loss: int = 0
    dropped_partition: int = 0
    dropped_dead: int = 0
    bytes_sent: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped_loss": self.dropped_loss,
            "dropped_partition": self.dropped_partition,
            "dropped_dead": self.dropped_dead,
            "bytes_sent": self.bytes_sent,
        }


class Endpoint:
    """A network attachment point with an inbound message handler."""

    def __init__(
        self,
        name: str,
        network: "Network",
        handler: Callable[[Message], None],
    ) -> None:
        self.name = name
        self.network = network
        self._handler = handler
        self.alive = True

    def send(self, destination: str, payload: Any, size_bytes: int = 256) -> None:
        """Send ``payload`` to the endpoint named ``destination``."""
        self.network.send_all(self.name, (destination,), payload, size_bytes)

    def send_all(
        self, destinations: Iterable[str], payload: Any, size_bytes: int = 256
    ) -> None:
        """Send the one ``payload`` object to each of ``destinations``."""
        self.network.send_all(self.name, destinations, payload, size_bytes)

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return "Endpoint(%s, %s)" % (self.name, state)


class Network:
    """Latency/loss/partition-aware unicast fabric on a shared event loop.

    Parameters
    ----------
    loop:
        Event loop providing virtual time.
    rng:
        Seeded stream factory; the network uses the ``"network"`` stream.
    latency:
        Base one-way delay in seconds.
    jitter:
        Uniform extra delay in ``[0, jitter]`` seconds per message.
    loss_rate:
        Probability in ``[0, 1)`` that a message is silently dropped.
    """

    def __init__(
        self,
        loop: EventLoop,
        rng: Optional[RngStreams] = None,
        latency: float = 0.001,
        jitter: float = 0.0005,
        loss_rate: float = 0.0,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1): %r" % loss_rate)
        if latency < 0 or jitter < 0:
            raise ValueError("latency/jitter must be non-negative")
        self.loop = loop
        self._rng = (rng or RngStreams(0)).stream("network")
        self.latency = latency
        self.jitter = jitter
        self.loss_rate = loss_rate
        self.stats = NetworkStats()
        self._endpoints: Dict[str, Endpoint] = {}
        #: source -> destination -> the link's last delivery instant,
        #: which a later message on the link may not precede (FIFO).
        self._next_free: Dict[str, Dict[str, float]] = {}
        #: node id -> group index while a partition is installed, else
        #: ``None``. Built by :meth:`partition_nodes` only; the message
        #: path just reads it.
        self._side_of: Optional[Dict[str, int]] = None
        #: node id -> extra one-way latency applied to its traffic.
        self._node_latency: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def attach(self, name: str, handler: Callable[[Message], None]) -> Endpoint:
        """Create and register an endpoint. Names must be unique."""
        if name in self._endpoints:
            raise ValueError("endpoint already attached: %r" % name)
        endpoint = Endpoint(name, self, handler)
        self._endpoints[name] = endpoint
        return endpoint

    def detach(self, name: str) -> None:
        """Remove an endpoint; in-flight messages to it are dropped."""
        endpoint = self._endpoints.pop(name, None)
        if endpoint is not None:
            endpoint.alive = False

    def endpoint(self, name: str) -> Optional[Endpoint]:
        return self._endpoints.get(name)

    def endpoint_names(self) -> List[str]:
        return sorted(self._endpoints)

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def partition_nodes(self, *groups: Set[str]) -> None:
        """Split the network by node id: traffic may only flow within each group.

        Endpoint names follow the ``prefix/.../node_id`` convention (the
        last ``/``-separated segment names the owning node; a bare name is
        its own node id). Nodes not named in any group can talk to each
        other but to no partitioned node. Node partitions survive endpoint
        churn: an endpoint attached *after* the partition — e.g. the fresh
        GCS identity of a repaired node — is still confined to its node's
        side. Replaces any previous partition layout.
        """
        self._side_of = self._index(groups)

    @property
    def partitioned(self) -> bool:
        """True while a partition is active."""
        return self._side_of is not None

    def heal(self) -> None:
        """Remove the partition."""
        self._side_of = None

    @staticmethod
    def node_of(endpoint_name: str) -> str:
        """Owning node id of an endpoint: the last path segment."""
        return endpoint_name.rsplit("/", 1)[-1]

    @staticmethod
    def _index(groups: Tuple[Set[str], ...]) -> Optional[Dict[str, int]]:
        """Member -> group index of one partition layout (``None``: no layout)."""
        if not groups:
            return None
        return {member: i for i, group in enumerate(groups) for member in group}

    def _partitioned(self, a: str, b: str) -> bool:
        # Members of no group read as ``None``: they reach each other
        # and nobody inside a group.
        group_of = self._side_of
        if group_of is None:
            return False
        node_of = self.node_of
        return group_of.get(node_of(a)) != group_of.get(node_of(b))

    # ------------------------------------------------------------------
    # Per-node latency (slow-node fault model)
    # ------------------------------------------------------------------
    def set_node_latency(self, node_id: str, extra: float) -> None:
        """Add ``extra`` seconds of one-way delay to ``node_id``'s traffic.

        Applied to every message whose source or destination endpoint
        belongs to the node (per :meth:`node_of`); a message between two
        slow nodes pays both penalties. Models an overloaded/thermally
        throttled machine rather than a slow link.
        """
        if extra < 0:
            raise ValueError("extra latency must be non-negative: %r" % extra)
        self._node_latency[node_id] = extra

    def clear_node_latency(self, node_id: str) -> None:
        self._node_latency.pop(node_id, None)

    def _extra_latency(self, source: str, destination: str) -> float:
        return self._node_latency.get(
            self.node_of(source), 0.0
        ) + self._node_latency.get(self.node_of(destination), 0.0)

    # ------------------------------------------------------------------
    # Transfer
    # ------------------------------------------------------------------
    def send(
        self, source: str, destination: str, payload: Any, size_bytes: int = 256
    ) -> None:
        """Queue a message for FIFO delivery, applying loss and partitions."""
        self.send_all(source, (destination,), payload, size_bytes)

    def send_all(
        self,
        source: str,
        destinations: Iterable[str],
        payload: Any,
        size_bytes: int = 256,
    ) -> None:
        """Queue the one ``payload`` object for each of ``destinations``.

        Exactly ``for d in destinations: send(source, d, payload)``: the
        same RNG draws (loss before jitter), counters, link FIFO and event
        sequence numbers, in that order. Each surviving message is one
        transient event, so messages due at the same instant are
        delivered in send order. Only what cannot change between two of
        those sends is read once: the clock, the ambient trace context
        and the fault configuration.
        """
        stats = self.stats
        loop = self.loop
        now = loop.clock.now
        probe = loop.probe
        trace = None if probe is None else probe.context()
        latency = self.latency
        jitter = self.jitter
        loss_rate = self.loss_rate
        random = self._rng.random
        split = self.partitioned
        slow = bool(self._node_latency)
        next_free = self._next_free.get(source)
        if next_free is None:
            next_free = self._next_free[source] = {}
        schedule = loop.call_transient_at
        deliver = self._deliver
        count = 0
        for destination in destinations:
            count += 1
            if split and self._partitioned(source, destination):
                stats.dropped_partition += 1
                continue
            if loss_rate and random() < loss_rate:
                stats.dropped_loss += 1
                continue
            delay = latency + (random() * jitter if jitter else 0.0)
            if slow:
                delay += self._extra_latency(source, destination)
            deliver_at = now + delay
            # FIFO per link: never before the link's last delivery.
            if deliver_at < next_free.get(destination, 0.0):
                deliver_at = next_free[destination]
            next_free[destination] = deliver_at
            schedule(
                deliver_at,
                deliver,
                Message(source, destination, payload, now, size_bytes, trace),
            )
        stats.sent += count
        stats.bytes_sent += count * size_bytes

    def _deliver(self, message: Message) -> None:
        stats = self.stats
        # A partition raised while the message was in flight also kills
        # it, like a dropped TCP link.
        if self._side_of is not None and self._partitioned(
            message.source, message.destination
        ):
            stats.dropped_partition += 1
            return
        endpoint = self._endpoints.get(message.destination)
        if endpoint is None or not endpoint.alive:
            stats.dropped_dead += 1
            return
        stats.delivered += 1
        trace = message.trace
        probe = self.loop.probe if trace is not None else None
        if probe is None:
            endpoint._handler(message)
        else:  # the sender's context is the handler's parent
            probe.carry(trace, endpoint._handler, message)

    def __repr__(self) -> str:
        return "Network(endpoints=%d, latency=%.4fs, loss=%.3f)" % (
            len(self._endpoints),
            self.latency,
            self.loss_rate,
        )
