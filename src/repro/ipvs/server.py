"""The IP virtual server (director) and its fault-tolerant replication.

A :class:`VirtualServer` owns virtual endpoints (``ip:port``) and
redirects each incoming :class:`Request` to one of the *real servers*
currently providing the service, per a scheduling discipline. Real servers
process requests with a service time and a bounded queue, on the event
loop — so saturation, latency and loss are measurable.

:class:`DirectorCluster` replicates the director itself ("a fault tolerant
IP virtual server"): the first alive director is primary; when it fails,
requests are lost during the failover window, then the standby answers.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.cluster.node import Node, NodeState
from repro.ipvs.addressing import IpEndpoint
from repro.ipvs.schedulers import RoundRobinScheduler, Scheduler
from repro.sim.eventloop import EventLoop
from repro.telemetry.tracer import Span


class Request:
    """One client request to a virtual endpoint.

    One is built per request submitted, so it is a plain slotted class
    (``dataclass(slots=True)`` needs Python 3.10) written to behave as
    ``@dataclass`` would make it: fields in constructor order, a
    ``repr`` and field-wise equality that both leave the spans out, and
    no hash.
    """

    __slots__ = (
        "request_id",
        "endpoint",
        "arrived_at",
        "client",
        "completed_at",
        "served_by",
        "dropped",
        "span",
        "serve_span",
    )

    def __init__(
        self,
        request_id: int,
        endpoint: IpEndpoint,
        arrived_at: float,
        client: Optional[str] = None,
        completed_at: Optional[float] = None,
        served_by: Optional[str] = None,
        dropped: Optional[str] = None,
        span: Optional[Span] = None,
    ) -> None:
        self.request_id = request_id
        self.endpoint = endpoint
        self.arrived_at = arrived_at
        #: Client identity (source address analogue); the director's
        #: schedulers do not read it.
        self.client = client
        self.completed_at = completed_at
        self.served_by = served_by
        self.dropped = dropped
        #: Open ``ipvs.request`` span, when telemetry was attached at
        #: submit; a traced request also gets an ``ipvs.serve`` span
        #: from the real server that admits it.
        self.span = span
        self.serve_span: Optional[Span] = None

    @property
    def ok(self) -> bool:
        return self.completed_at is not None

    @property
    def latency(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.arrived_at

    def _compared(self) -> tuple:
        return (
            self.request_id,
            self.endpoint,
            self.arrived_at,
            self.client,
            self.completed_at,
            self.served_by,
            self.dropped,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        return (
            "Request(request_id=%r, endpoint=%r, arrived_at=%r, client=%r, "
            "completed_at=%r, served_by=%r, dropped=%r)" % self._compared()
        )


class RealServer:
    """One replica of a service on one node.

    While a least-connection scheduler indexes the server, the server
    holds a slot in that index (one scheduler's at a time) and
    :meth:`admit` / :meth:`_finish` move its bit between count masks.
    """

    def __init__(
        self,
        node_id: str,
        port: int,
        weight: int = 1,
        service_time: float = 0.01,
        queue_limit: int = 64,
        on_served=None,
    ) -> None:
        if weight < 0:
            raise ValueError("weight must be >= 0")
        if service_time <= 0:
            raise ValueError("service_time must be > 0")
        self.node_id = node_id
        self.port = port
        self.weight = weight
        self.service_time = service_time
        self.queue_limit = queue_limit
        self.alive = True
        self.active_connections = 0
        self.served = 0
        self._busy_until = 0.0
        #: The loop this server runs on and its clock, bound by the first
        #: :meth:`admit` (a real server lives on one loop).
        self._loop: Optional[EventLoop] = None
        self._clock = None
        #: :meth:`_finish`, bound once so that :meth:`admit` does not
        #: build a bound method per request.
        self._finish_bound = self._finish
        #: Callback ``(request) -> None`` at completion — the hook that
        #: charges the serving customer's resource ledger. It runs after
        #: the completion is counted; what it raises propagates.
        self.on_served = on_served
        #: The slot: the indexing scheduler's count masks (``None`` while
        #: no scheduler holds it) and this server's bit in them.
        self._masks: Optional[List[int]] = None
        self._bit = 0

    @property
    def available(self) -> bool:
        return self.alive and self.weight > 0 and (
            self.active_connections < self.queue_limit
        )

    def admit(self, request: Request, loop: EventLoop) -> None:
        """Queue the request; completion fires after queueing + service."""
        active = self.active_connections
        self.active_connections = active + 1
        masks = self._masks
        if masks is not None:
            bit = self._bit
            masks[active] ^= bit
            if active + 1 == len(masks):
                masks.append(bit)
            else:
                masks[active + 1] |= bit
        clock = self._clock
        if clock is None:
            self._loop = loop
            clock = self._clock = loop.clock
        start = clock.now
        if self._busy_until > start:
            start = self._busy_until
        finish_at = start + self.service_time
        self._busy_until = finish_at
        if request.span is not None:
            # Traced at submit: the serve span rides on the request.
            probe = loop.probe
            if probe is not None:
                request.serve_span = probe.start_span(
                    "ipvs.serve", self.node_id, {"port": self.port}
                )
        loop.call_transient_at(finish_at, self._finish_bound, request)

    def _finish(self, request: Request) -> None:
        """Completion of an admitted request: a transient event with the
        request as its argument."""
        active = self.active_connections
        self.active_connections = active - 1
        masks = self._masks
        if masks is not None:
            bit = self._bit
            masks[active] ^= bit
            masks[active - 1] |= bit
        now = self._clock.now
        if not self.alive:
            request.dropped = "server-died"
            probe = self._loop.probe
            if probe is not None:
                probe.request_drop(self.node_id, request, now)
            return
        self.served += 1
        request.completed_at = now
        request.served_by = self.node_id
        if request.span is not None:
            probe = self._loop.probe
            if probe is not None:
                probe.request_served(request, now)
        if self.on_served is not None:
            self.on_served(request)

    def __repr__(self) -> str:
        return "RealServer(%s:%d, w=%d, active=%d, served=%d, %s)" % (
            self.node_id,
            self.port,
            self.weight,
            self.active_connections,
            self.served,
            "up" if self.alive else "down",
        )


class VirtualServer:
    """One ipvs director instance."""

    def __init__(self, director_id: str, loop: EventLoop) -> None:
        self.director_id = director_id
        self._loop = loop
        self.alive = True
        self._services: Dict[Tuple[str, int], Tuple[Scheduler, List[RealServer]]] = {}
        #: node_id -> its real servers across every service; keeps the
        #: per-node operations (health flips, drains, active counts) from
        #: scanning the whole service table.
        self._node_index: Dict[str, List[RealServer]] = {}
        self.routed = 0
        self.drops: Counter = Counter()

    # -- configuration ---------------------------------------------------
    def add_service(
        self,
        endpoint: IpEndpoint,
        scheduler: Optional[Scheduler] = None,
    ) -> None:
        key = (endpoint.ip, endpoint.port)
        if key in self._services:
            raise ValueError("service %s already configured" % endpoint)
        self._services[key] = (
            scheduler if scheduler is not None else RoundRobinScheduler(),
            [],
        )

    def add_real_server(self, endpoint: IpEndpoint, server: RealServer) -> None:
        key = (endpoint.ip, endpoint.port)
        if key not in self._services:
            raise ValueError("no service at %s" % endpoint)
        scheduler, servers = self._services[key]
        servers.append(server)
        self._node_index.setdefault(server.node_id, []).append(server)
        scheduler.topology_changed()

    def remove_real_server(self, endpoint: IpEndpoint, node_id: str) -> int:
        key = (endpoint.ip, endpoint.port)
        if key not in self._services:
            return 0
        scheduler, servers = self._services[key]
        before = len(servers)
        servers[:] = [s for s in servers if s.node_id != node_id]
        removed = before - len(servers)
        if removed:
            # Rebuild the node's index entry from the surviving services.
            index = [
                s
                for _, svrs in self._services.values()
                for s in svrs
                if s.node_id == node_id
            ]
            if index:
                self._node_index[node_id] = index
            else:
                self._node_index.pop(node_id, None)
            scheduler.topology_changed()
        return removed

    def real_servers(self, endpoint: IpEndpoint) -> List[RealServer]:
        key = (endpoint.ip, endpoint.port)
        if key not in self._services:
            return []
        return list(self._services[key][1])

    def services(self) -> List[IpEndpoint]:
        return [IpEndpoint(ip, port) for ip, port in sorted(self._services)]

    def all_real_servers(self) -> List[Tuple[IpEndpoint, RealServer]]:
        """Every (service endpoint, real server) pair, deterministically
        ordered — the surface invariant checkers audit for dead routing."""
        out: List[Tuple[IpEndpoint, RealServer]] = []
        for ip, port in sorted(self._services):
            _, servers = self._services[(ip, port)]
            for server in servers:
                out.append((IpEndpoint(ip, port), server))
        return out

    def mark_node(self, node_id: str, alive: bool) -> int:
        """Health update: flip every real server hosted on ``node_id``."""
        touched = 0
        for server in self._node_index.get(node_id, ()):
            server.alive = alive
            touched += 1
        return touched

    def set_node_weight(self, node_id: str, weight: int) -> int:
        """Set the scheduling weight of every real server on ``node_id``.

        Weight 0 is the LVS drain idiom: the server stays configured and
        finishes its in-flight connections, but the scheduler stops
        sending it new ones (``ipvsadm --edit-server --weight 0``).
        """
        touched = 0
        for server in self._node_index.get(node_id, ()):
            server.weight = weight
            touched += 1
        return touched

    def node_active_connections(self, node_id: str) -> int:
        """In-flight requests across every real server on ``node_id``."""
        active = 0
        for server in self._node_index.get(node_id, ()):
            active += server.active_connections
        return active

    # -- routing -----------------------------------------------------------
    def route(self, request: Request) -> None:
        if not self.alive:
            request.dropped = "director-down"
            self.drops[request.dropped] += 1
            return
        key = (request.endpoint.ip, request.endpoint.port)
        entry = self._services.get(key)
        if entry is None:
            request.dropped = "no-service"
            self.drops[request.dropped] += 1
            return
        scheduler, servers = entry
        server = scheduler.pick(servers)
        if server is None:
            request.dropped = "no-real-server"
            self.drops[request.dropped] += 1
            return
        self.routed += 1
        server.admit(request, self._loop)

    def __repr__(self) -> str:
        return "VirtualServer(%s, %d services, routed=%d, %s)" % (
            self.director_id,
            len(self._services),
            self.routed,
            "up" if self.alive else "down",
        )


class DirectorCluster:
    """Replicated directors: primary answers, standby takes over on failure.

    Configuration methods apply to every replica so their service tables
    stay identical (what ``ipvsadm --sync`` achieves for LVS). Connection
    state is *not* replicated: connections in flight at failover complete
    on the real servers, but new requests drop until the standby assumes
    the VIPs (``failover_seconds`` later).
    """

    def __init__(
        self,
        loop: EventLoop,
        replicas: int = 2,
        failover_seconds: float = 1.0,
        retain_requests: bool = True,
    ) -> None:
        if replicas < 1:
            raise ValueError("need at least one director")
        self._loop = loop
        self.failover_seconds = failover_seconds
        self.directors = [
            VirtualServer("ipvs%d" % (i + 1), loop) for i in range(replicas)
        ]
        self._primary_index = 0
        self._takeover_ready_at = 0.0
        #: Keep every Request object? Macro-scale runs (millions of
        #: requests) switch this off and account latency via the
        #: ``on_served`` callback instead; :attr:`requests` then stays
        #: empty and :meth:`stats` reports from aggregate counters.
        self.retain_requests = retain_requests
        self.requests: List[Request] = []
        #: Requests submitted so far; the last one's ``request_id``.
        self.submitted = 0
        #: node_id -> pre-drain weight (see :meth:`drain_node`).
        self._drained_weights: Dict[str, int] = {}

    # -- configuration fan-out ---------------------------------------------
    def add_service(
        self,
        endpoint: IpEndpoint,
        scheduler_factory=RoundRobinScheduler,
    ) -> None:
        for director in self.directors:
            director.add_service(endpoint, scheduler_factory())

    def add_real_server(
        self,
        endpoint: IpEndpoint,
        node_id: str,
        weight: int = 1,
        service_time: float = 0.01,
        queue_limit: int = 64,
        on_served=None,
    ) -> None:
        for director in self.directors:
            server = RealServer(
                node_id,
                endpoint.port,
                weight=weight,
                service_time=service_time,
                queue_limit=queue_limit,
                on_served=on_served,
            )
            director.add_real_server(endpoint, server)

    def remove_real_server(self, endpoint: IpEndpoint, node_id: str) -> None:
        for director in self.directors:
            director.remove_real_server(endpoint, node_id)

    def mark_node(self, node_id: str, alive: bool) -> None:
        for director in self.directors:
            director.mark_node(node_id, alive)

    # -- draining (rolling upgrades) ------------------------------------------
    def drain_node(self, node_id: str) -> None:
        """Stop scheduling new requests onto ``node_id`` (weight -> 0).

        In-flight requests keep running; pair with
        :meth:`node_active_connections` to wait for them, then
        :meth:`undrain_node` to restore the remembered weights.
        """
        if node_id not in self._drained_weights:
            # Weights are uniform per node (configuration fans out to every
            # replica identically), so one remembered value suffices.
            weight = 1
            for director in self.directors:
                hosted = director._node_index.get(node_id)
                if hosted:
                    weight = hosted[0].weight
            self._drained_weights[node_id] = weight
        for director in self.directors:
            director.set_node_weight(node_id, 0)

    def undrain_node(self, node_id: str) -> None:
        """Restore the weight remembered by :meth:`drain_node`.

        A node that is not draining keeps its configured weights.
        """
        weight = self._drained_weights.pop(node_id, None)
        if weight is None:
            return
        for director in self.directors:
            director.set_node_weight(node_id, max(1, weight))

    def is_draining(self, node_id: str) -> bool:
        return node_id in self._drained_weights

    def node_active_connections(self, node_id: str) -> int:
        """In-flight requests to ``node_id``, across every replica."""
        return sum(
            director.node_active_connections(node_id)
            for director in self.directors
        )

    def all_real_servers(self) -> List[Tuple[IpEndpoint, RealServer]]:
        """Union of every replica's (endpoint, real server) pairs."""
        out: List[Tuple[IpEndpoint, RealServer]] = []
        for director in self.directors:
            out.extend(director.all_real_servers())
        return out

    def watch_node(self, node: Node) -> None:
        """Track a cluster node's health automatically."""

        def on_state(_: Node, state: NodeState) -> None:
            self.mark_node(node.node_id, state == NodeState.ON)

        node.add_state_listener(on_state)

    # -- director failover ----------------------------------------------------
    def fail_primary(self) -> None:
        """Kill the current primary; standby assumes after the window."""
        primary = self.active_director()
        if primary is None:
            return
        primary.alive = False
        self._takeover_ready_at = self._loop.clock.now + self.failover_seconds

    def active_director(self) -> Optional[VirtualServer]:
        for i, director in enumerate(self.directors):
            if director.alive:
                if i != self._primary_index:
                    # A standby: only serving once the takeover settled.
                    if self._loop.clock.now < self._takeover_ready_at:
                        return None
                    self._primary_index = i
                return director
        return None

    # -- traffic ---------------------------------------------------------------
    def submit(self, endpoint: IpEndpoint, client: Optional[str] = None) -> Request:
        """Inject one request now; routing outcome is on the Request."""
        self.submitted += 1
        request = Request(self.submitted, endpoint, self._loop.clock.now, client)
        if self.retain_requests:
            self.requests.append(request)
        probe = self._loop.probe
        if probe is not None:
            probe.request_submit(request)
        director = self.directors[0]
        if self._primary_index != 0 or not director.alive:
            # Anything but "the first director is the live primary" goes
            # through the takeover logic (and its failover window).
            director = self.active_director()
        if director is None:
            request.dropped = "no-director"
        elif request.span is None:
            director.route(request)
        else:
            with probe.activate(request.span):
                director.route(request)
        if request.dropped is not None and probe is not None:
            probe.request_drop("", request, self._loop.clock.now)
        return request

    # -- statistics -----------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        served = 0.0
        for _endpoint, server in self.all_real_servers():
            served += server.served
        if not self.retain_requests:
            # Aggregate-counter mode: per-request latency lives with the
            # caller's ``on_served`` hook (see repro.macrobench).
            return {
                "submitted": float(self.submitted),
                "completed": served,
                "dropped": float(
                    sum(sum(d.drops.values()) for d in self.directors)
                ),
                "mean_latency": 0.0,
                "max_latency": 0.0,
            }
        completed = [r for r in self.requests if r.ok]
        dropped = [r for r in self.requests if r.dropped is not None]
        latencies = [r.latency for r in completed]
        return {
            "submitted": float(len(self.requests)),
            "completed": float(len(completed)),
            "dropped": float(len(dropped)),
            "mean_latency": (
                sum(latencies) / len(latencies) if latencies else 0.0
            ),
            "max_latency": max(latencies) if latencies else 0.0,
        }

    def per_node_served(self) -> Dict[str, int]:
        served: Counter = Counter()
        for request in self.requests:
            if request.ok and request.served_by is not None:
                served[request.served_by] += 1
        return dict(served)

    def __repr__(self) -> str:
        return "DirectorCluster(%d directors, %d requests)" % (
            len(self.directors),
            len(self.requests),
        )
