"""The macro scenario: sharded directors under a simulated day of traffic.

Topology
--------
``shards`` independent :class:`~repro.ipvs.server.DirectorCluster`
instances (each its own primary+standby director pair) share one event
loop. Every shard fronts ``servers_per_shard`` real-server instances of
the virtual service. Clients are pinned to shards by a
:class:`~repro.ipvs.hashring.ConsistentHashRing` over the client id —
the affinity a decentralised director tier would give (Frénot's P2P
deployment model) — and each shard schedules across its instances with a
least-connection discipline.

Traffic is an open-loop non-homogeneous Poisson process from
:class:`~repro.workloads.arrivals.OpenLoopArrivals`: a compressed
diurnal curve from overnight trough to midday peak. Latency is
*virtual* (simulated seconds, queueing + service time); wall-clock cost
of executing the simulation is measured by the bench harness around
:meth:`MacroScenario.run`, never in here — everything this module
computes is deterministic and byte-identical for a given seed.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.ipvs.addressing import IpEndpoint
from repro.ipvs.hashring import ConsistentHashRing
from repro.ipvs.schedulers import LeastConnectionScheduler
from repro.ipvs.server import DirectorCluster, Request
from repro.sim.eventloop import EventLoop
from repro.sim.rng import RngStreams
from repro.workloads.arrivals import DiurnalProfile, OpenLoopArrivals

__all__ = ["MacroConfig", "MacroResult", "MacroScenario"]


@dataclass(frozen=True)
class MacroConfig:
    """Shape of one macro run. Defaults are the full "million-user day"."""

    shards: int = 4
    replicas_per_shard: int = 2
    servers_per_shard: int = 12
    service_time: float = 0.008
    queue_limit: int = 128
    #: Diurnal curve: overnight trough / midday peak, total across shards.
    base_rps: float = 1200.0
    peak_rps: float = 4800.0
    day_seconds: float = 400.0
    days: float = 1.0
    clients: int = 10000
    vnodes: int = 64
    seed: int = 2026

    @classmethod
    def million_user_day(cls, **overrides: Any) -> "MacroConfig":
        """The headline configuration: ~1.2M requests over one sim day."""
        return cls(**overrides)

    @classmethod
    def smoke(cls, **overrides: Any) -> "MacroConfig":
        """CI-scale variant: ~50k requests, same topology."""
        merged: Dict[str, Any] = dict(
            base_rps=400.0, peak_rps=1600.0, day_seconds=50.0
        )
        merged.update(overrides)
        return cls(**merged)

    @property
    def duration(self) -> float:
        return self.day_seconds * self.days

    @property
    def expected_requests(self) -> float:
        return (self.base_rps + self.peak_rps) / 2.0 * self.duration


@dataclass
class MacroResult:
    """Deterministic outcome of one macro run (no wall-clock fields)."""

    config: MacroConfig
    submitted: int = 0
    completed: int = 0
    dropped: int = 0
    events_fired: int = 0
    sim_seconds: float = 0.0
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    latency_p99: float = 0.0
    latency_max: float = 0.0
    latency_mean: float = 0.0
    per_shard_submitted: List[int] = field(default_factory=list)
    per_shard_completed: List[int] = field(default_factory=list)
    drop_reasons: Dict[str, int] = field(default_factory=dict)

    def report(self) -> Dict[str, Any]:
        """Self-digested JSON-ready dict; byte-stable across same-seed runs."""
        config = self.config
        payload: Dict[str, Any] = {
            "scenario": "million-user-day",
            "config": {
                "shards": config.shards,
                "replicas_per_shard": config.replicas_per_shard,
                "servers_per_shard": config.servers_per_shard,
                "service_time": config.service_time,
                "queue_limit": config.queue_limit,
                "base_rps": config.base_rps,
                "peak_rps": config.peak_rps,
                "day_seconds": config.day_seconds,
                "days": config.days,
                "clients": config.clients,
                "vnodes": config.vnodes,
                "seed": config.seed,
                "scheduler": LeastConnectionScheduler.name,
            },
            "requests": {
                "submitted": self.submitted,
                "completed": self.completed,
                "dropped": self.dropped,
                "per_shard_submitted": list(self.per_shard_submitted),
                "per_shard_completed": list(self.per_shard_completed),
                "drop_reasons": dict(sorted(self.drop_reasons.items())),
            },
            "virtual_latency_seconds": {
                "p50": round(self.latency_p50, 9),
                "p95": round(self.latency_p95, 9),
                "p99": round(self.latency_p99, 9),
                "max": round(self.latency_max, 9),
                "mean": round(self.latency_mean, 9),
            },
            "sim": {
                "events_fired": self.events_fired,
                "sim_seconds": round(self.sim_seconds, 6),
            },
        }
        payload["digest"] = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest()
        return payload


class MacroScenario:
    """Builds the sharded topology and runs one simulated day through it."""

    def __init__(self, config: Optional[MacroConfig] = None) -> None:
        self.config = config or MacroConfig()
        self.loop = EventLoop()
        self.rng = RngStreams(self.config.seed)
        self._latencies = array("d")
        self._shards: List[DirectorCluster] = []
        self._vips: List[IpEndpoint] = []
        self._per_shard_submitted: List[int] = []
        #: client index -> (shard index, client id string); precomputed so
        #: the per-request cost of ring affinity is one list index.
        self._client_home: List[int] = []
        self._client_names: List[str] = []
        self._clients = self.config.clients
        self._build()
        self._submits = [shard.submit for shard in self._shards]

    # -- topology ----------------------------------------------------------
    def _build(self) -> None:
        config = self.config
        ring = ConsistentHashRing(vnodes=config.vnodes)
        for s in range(config.shards):
            ring.add_shard("shard%d" % s)
        shard_index = {"shard%d" % s: s for s in range(config.shards)}
        node = 0
        for s in range(config.shards):
            vip = IpEndpoint("10.0.%d.1" % s, 8080)
            shard = DirectorCluster(
                self.loop,
                replicas=config.replicas_per_shard,
                retain_requests=False,
            )
            shard.add_service(vip, scheduler_factory=LeastConnectionScheduler)
            for _ in range(config.servers_per_shard):
                node += 1
                shard.add_real_server(
                    vip,
                    "n%03d" % node,
                    service_time=config.service_time,
                    queue_limit=config.queue_limit,
                    on_served=self._on_served,
                )
            self._shards.append(shard)
            self._vips.append(vip)
            self._per_shard_submitted.append(0)
        for c in range(config.clients):
            name = "c%06d" % c
            home = ring.lookup(name)
            self._client_names.append(name)
            self._client_home.append(shard_index[home])

    # -- per-request hooks -------------------------------------------------
    def _on_served(self, request: Request) -> None:
        # The hook fires for completed requests only, so both stamps are set.
        self._latencies.append(request.completed_at - request.arrived_at)

    def _on_arrival(self, _index: int) -> None:
        # ``randrange(clients)`` without its two frames: the body of
        # ``random.Random._randbelow_with_getrandbits``, same draws.
        client = self._getrandbits(self._client_bits)
        while client >= self._clients:
            client = self._getrandbits(self._client_bits)
        shard = self._client_home[client]
        self._per_shard_submitted[shard] += 1
        self._submits[shard](self._vips[shard], self._client_names[client])

    # -- execution ---------------------------------------------------------
    def run(self) -> MacroResult:
        config = self.config
        profile = DiurnalProfile(
            config.base_rps, config.peak_rps, config.day_seconds
        )
        if self._clients < 1:
            raise ValueError("need at least one client: %r" % self._clients)
        self._getrandbits = self.rng.stream("macro.clients").getrandbits
        self._client_bits = self._clients.bit_length()
        arrivals = OpenLoopArrivals(
            self.loop,
            self.rng.stream("macro.arrivals"),
            profile,
            self._on_arrival,
            duration=config.duration,
        )
        arrivals.start()
        self.loop.run_for(config.duration)
        # Let queued work finish: every remaining event is a pending
        # service completion (or the last rejected arrival candidates).
        self.loop.drain(max_events=50_000_000)

        result = MacroResult(config=config)
        result.submitted = sum(s.submitted for s in self._shards)
        result.completed = len(self._latencies)
        result.dropped = result.submitted - result.completed
        result.events_fired = self.loop.fired
        result.sim_seconds = self.loop.clock.now
        result.per_shard_submitted = list(self._per_shard_submitted)
        result.per_shard_completed = [
            int(s.stats()["completed"]) for s in self._shards
        ]
        reasons: Dict[str, int] = {}
        for shard in self._shards:
            for director in shard.directors:
                for reason, count in sorted(director.drops.items()):
                    reasons[reason] = reasons.get(reason, 0) + count
        # Server-died / queue-full losses surface as no-real-server above;
        # anything unaccounted for is in-flight loss at drain time.
        result.drop_reasons = reasons
        if self._latencies:
            ordered = sorted(self._latencies)
            n = len(ordered)
            result.latency_p50 = ordered[min(n - 1, int(0.50 * n))]
            result.latency_p95 = ordered[min(n - 1, int(0.95 * n))]
            result.latency_p99 = ordered[min(n - 1, int(0.99 * n))]
            result.latency_max = ordered[-1]
            result.latency_mean = sum(ordered) / n
        return result
