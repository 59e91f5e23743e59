"""Isolated per-operation cost of each layer: one public function, timed.

Each benchmark builds a small fixture, then times batches of direct
calls and reports the median batch's cost per call (host time, in the
unit the metric name ends with). The figure includes the timing loop's
own call overhead (tens of nanoseconds), the same on every commit.
These numbers size a change to one layer; whether it reaches a user is
read off the end-to-end metrics, never here.
"""

from __future__ import annotations

import statistics
import time
from itertools import repeat
from typing import Callable, Dict, Tuple

from repro.conformance.report import check_history
from repro.gcs.directory import GroupDirectory
from repro.gcs.member import GroupMember
from repro.ipvs.addressing import IpEndpoint
from repro.ipvs.hashring import ConsistentHashRing
from repro.ipvs.schedulers import (
    BucketedLeastConnectionScheduler,
    LeastConnectionScheduler,
)
from repro.ipvs.server import DirectorCluster, RealServer
from repro.osgi.definition import simple_bundle
from repro.osgi.events import EventDispatcher
from repro.osgi.filter import parse_filter
from repro.osgi.framework import Framework
from repro.osgi.registry import ServiceRegistry
from repro.sim.eventloop import EventLoop
from repro.sim.network import Network
from repro.sim.rng import RngStreams
from repro.sim.scheduler import make_loop
from repro.telemetry import Telemetry
from repro.vosgi.delegation import ExportPolicy
from repro.vosgi.manager import InstanceManager
from repro.workloads.arrivals import DiurnalProfile, OpenLoopArrivals

from . import workloads

BATCHES = 9

_PER_SECOND = {"ns": 1e9, "us": 1e6, "ms": 1e3}


def _per_call(op: Callable[[], object], calls: int, work_per_call: int = 1) -> float:
    """Seconds per unit of work: median over batches, after one warm-up
    batch. ``work_per_call`` is how many operations one ``op()`` does."""
    samples = []
    for batch in range(BATCHES + 1):
        start = time.perf_counter()
        for _ in repeat(None, calls):
            op()
        elapsed = time.perf_counter() - start
        if batch:
            samples.append(elapsed / (calls * work_per_call))
    return statistics.median(samples)


def _noop(*_args: object) -> None:
    pass


def _require(holds: bool, what: str) -> None:
    """Output check: a benchmark that timed a no-op must not report."""
    if not holds:
        raise RuntimeError("micro benchmark output check failed: %s" % what)


# -- workloads / ipvs ---------------------------------------------------
def _arrival() -> float:
    def generate() -> int:
        loop = EventLoop()
        arrivals = OpenLoopArrivals(
            loop,
            RngStreams(3).stream("arrivals"),
            DiurnalProfile(5000.0, 5000.0, 1.0),  # flat: every candidate kept
            _noop,
            duration=1.0,
        )
        arrivals.start()
        loop.run_for(1.0)
        return arrivals.arrivals

    count = generate()
    _require(4500 < count < 5500, "a flat 5000/s second gave %d arrivals" % count)
    return _per_call(generate, 4, count)


def _hashring_lookup() -> float:
    ring = ConsistentHashRing(vnodes=64)
    for shard in range(4):
        ring.add_shard("shard%d" % shard)
    keys = ["c%06d" % c for c in range(1000)]

    def lookups() -> None:
        lookup = ring.lookup
        for key in keys:
            lookup(key)

    return _per_call(lookups, 20, len(keys))


def _servers(count: int) -> list:
    servers = [RealServer("n%03d" % n, 8080, queue_limit=128) for n in range(count)]
    for index, server in enumerate(servers):
        server.active_connections = 1 + (index * 7) % 5
    servers[count // 2].active_connections = 0  # the pick, mid-pool
    return servers


def _lc_pick(count: int) -> Callable[[], float]:
    def bench() -> float:
        servers = _servers(count)
        scheduler = LeastConnectionScheduler()
        _require(scheduler.pick(servers) is servers[count // 2], "lc picked another server")
        return _per_call(lambda: scheduler.pick(servers), 4000)

    return bench


def _lcb_pick() -> float:
    servers = _servers(96)
    scheduler = BucketedLeastConnectionScheduler()
    _require(scheduler.pick(servers) is servers[48], "lc-bucketed picked another server")
    return _per_call(lambda: scheduler.pick(servers), 20000)


def _lcb_flap() -> float:
    servers = _servers(96)
    scheduler = BucketedLeastConnectionScheduler()

    def flap() -> None:
        scheduler.topology_changed()
        scheduler.pick(servers)

    return _per_call(flap, 300)


def _submit_complete() -> float:
    loop = EventLoop()
    vip = IpEndpoint("10.9.0.1", 8080)
    cluster = DirectorCluster(loop, replicas=2, retain_requests=False)
    cluster.add_service(vip, scheduler_factory=LeastConnectionScheduler)
    for n in range(12):
        cluster.add_real_server(vip, "n%03d" % n, service_time=0.008, queue_limit=128)
    burst = 500

    def serve() -> None:
        submit = cluster.submit
        for _ in repeat(None, burst):
            submit(vip)
        loop.drain()

    cost = _per_call(serve, 8, burst)
    stats = cluster.stats()
    _require(
        stats["completed"] == stats["submitted"] > 0,
        "served %d of %d requests" % (stats["completed"], stats["submitted"]),
    )
    return cost


# -- sim ----------------------------------------------------------------
def _transient(scheduler: str) -> Callable[[], float]:
    def bench() -> float:
        loop = make_loop(None, scheduler)
        burst = 2000

        def fire() -> None:
            schedule = loop.call_transient_after
            for index in range(burst):
                schedule(0.001 * (index % 7 + 1), _noop)
            loop.run_for(0.01)

        return _per_call(fire, 5, burst)

    return bench


def _timer_cancel() -> float:
    loop = EventLoop()
    burst = 2000

    def arm_and_cancel() -> None:
        for _ in repeat(None, burst):
            loop.call_after(1.0, _noop).cancel()

    return _per_call(arm_and_cancel, 5, burst)


def _network(fanout: int) -> Callable[[], float]:
    def bench() -> float:
        loop = EventLoop()
        network = Network(loop, rng=RngStreams(7), latency=0.001, jitter=0.0)
        source = network.attach("src", _noop)
        sinks = ["sink%d" % i for i in range(fanout)]
        for sink in sinks:
            network.attach(sink, _noop)

        def round_trip() -> None:
            send = source.send
            for sink in sinks:
                send(sink, 0)
            loop.run_for(0.01)

        cost = _per_call(round_trip, 2000 // fanout, fanout)
        stats = network.stats
        _require(
            stats.delivered == stats.sent > 0,
            "delivered %d of %d messages" % (stats.delivered, stats.sent),
        )
        return cost

    return bench


def _total_order_multicast() -> float:
    loop = EventLoop()
    network = Network(loop, RngStreams(5))
    directory = GroupDirectory()
    members = []
    for n in range(1, 6):
        member = GroupMember("n%d" % n, "bench", loop, network, directory)
        member.join()
        loop.run_for(0.5)
        members.append(member)
    loop.run_for(1.0)
    burst = 40

    def multicast() -> None:
        sender = members[2].multicast
        for index in range(burst):
            sender(index, total_order=True)
        loop.run_for(0.2)

    cost = _per_call(multicast, 3, burst)
    sent = (BATCHES + 1) * 3 * burst
    _require(
        all(member.delivered_count >= sent for member in members),
        "a member delivered fewer than the %d multicasts sent" % sent,
    )
    return cost


# -- osgi / vosgi -------------------------------------------------------
def _registry() -> ServiceRegistry:
    registry = ServiceRegistry(EventDispatcher())
    for index in range(1000):
        registry.register(
            object(),
            "bench.Kind%d" % (index % 100),
            object(),
            {"shard": index % 10, "service.ranking": index % 5, "owner": "acme"},
        )
    return registry


def _registry_lookup() -> float:
    registry = _registry()
    _require(len(registry.get_references("bench.Kind7")) == 10, "lookup found no services")
    return _per_call(lambda: registry.get_references("bench.Kind7"), 20000)


def _register_unregister() -> float:
    registry = _registry()
    owner, service = object(), object()

    def churn() -> None:
        registry.register(owner, "bench.Kind7", service, {"shard": 3}).unregister()

    return _per_call(churn, 2000)


def _filter_match() -> float:
    compiled = parse_filter(
        "(&(objectClass=bench.Kind7)(shard>=3)(owner~=Acme Corp)(name=svc-*-prod))"
    )
    properties = {
        "objectClass": ("bench.Kind7",),
        "shard": 7,
        "owner": "AcmeCorp",
        "name": "svc-eu-prod",
        "service.id": 42,
    }
    _require(compiled.matches(properties), "the filter does not match its properties")
    return _per_call(lambda: compiled.matches(properties), 10000)


def _filter_parse_cached() -> float:
    text = "(&(objectClass=bench.Kind7)(shard>=3)(!(owner=globex)))"
    parse_filter(text)
    return _per_call(lambda: parse_filter(text), 50000)


def _event_dispatch() -> float:
    dispatcher = EventDispatcher()
    registry = ServiceRegistry(dispatcher)
    for index in range(200):
        dispatcher.add_service_listener(
            lambda event: None, classes=("bench.Listened%d" % index,)
        )
    registration = registry.register(
        object(), "bench.Listened7", object(), {"shard": 1}
    )
    return _per_call(lambda: registration.set_properties({"shard": 1}), 4000)


def _tenant_host() -> Tuple[Framework, InstanceManager, ExportPolicy]:
    host = Framework("micro-host")
    host.start()
    for b in range(3):
        host.install(workloads.base_bundle(b)).start()
    policy = ExportPolicy(
        packages={"base%d" % b for b in range(3)}, service_classes={"base.Service"}
    )
    return host, InstanceManager(host), policy


def _instance_create() -> float:
    host, manager, policy = _tenant_host()

    def create() -> None:
        manager.create_instance("probe", policy=policy)
        manager.destroy_instance("probe")

    cost = _per_call(create, 60)
    host.stop()
    return cost


def _tenant_instance(manager: InstanceManager, policy: ExportPolicy):
    instance = manager.create_instance("tenant", policy=policy)
    for app in range(4):
        instance.install(simple_bundle("app-%d" % app)).start()
    return instance


def _stop_start() -> float:
    host, manager, policy = _tenant_host()
    _tenant_instance(manager, policy)

    def restart() -> None:
        manager.stop_instance("tenant")
        manager.start_instance("tenant")

    cost = _per_call(restart, 60)
    host.stop()
    return cost


def _mirrored_lookup() -> float:
    host, manager, policy = _tenant_host()
    context = _tenant_instance(manager, policy).framework.system_context
    found = context.get_service_references("base.Service", "(provider=base-1)")
    _require(len(found) == 1, "the mirrored base service is not visible")
    cost = _per_call(
        lambda: context.get_service_references("base.Service", "(provider=base-1)"),
        4000,
    )
    host.stop()
    return cost


# -- conformance / telemetry ---------------------------------------------
def _check_history() -> float:
    shape = workloads.FLEET_SCALE["smoke"]
    history = workloads.fleet_campaign(11, shape, []).run_episode(0).history
    _require(len(history) > 100 and not check_history(history), "no clean history")
    return _per_call(lambda: check_history(history), 2)


def _telemetry_span() -> float:
    loop = EventLoop()
    telemetry = Telemetry(loop.clock, RngStreams(9), scenario="micro")

    def span() -> None:
        telemetry.tracer.start_span("bench", node="n1").finish(0.0)

    return _per_call(span, 5000)


#: metric name -> benchmark; the name's suffix is the unit reported.
MICRO: Dict[str, Callable[[], float]] = {
    "workloads.arrivals.arrival_ns": _arrival,
    "ipvs.hashring.lookup_ns": _hashring_lookup,
    "ipvs.schedulers.lc_pick_12_ns": _lc_pick(12),
    "ipvs.schedulers.lc_pick_48_ns": _lc_pick(48),
    "ipvs.schedulers.lc_pick_96_ns": _lc_pick(96),
    "ipvs.schedulers.lcb_pick_96_ns": _lcb_pick,
    "ipvs.schedulers.lcb_flap_ns": _lcb_flap,
    "ipvs.server.submit_complete_ns": _submit_complete,
    "sim.eventloop.transient_ns": _transient("global"),
    "sim.eventloop.timer_cancel_ns": _timer_cancel,
    "sim.eventloop.laned_transient_ns": _transient("laned"),
    "sim.network.unicast_ns": _network(1),
    "sim.network.fanout50_ns": _network(50),
    "gcs.total_order_multicast_us": _total_order_multicast,
    "osgi.registry.lookup_ns": _registry_lookup,
    "osgi.registry.register_unregister_ns": _register_unregister,
    "osgi.filter.match_ns": _filter_match,
    "osgi.filter.parse_cached_ns": _filter_parse_cached,
    "osgi.events.dispatch_ns": _event_dispatch,
    "vosgi.instance_create_us": _instance_create,
    "vosgi.stop_start_us": _stop_start,
    "vosgi.mirrored_lookup_ns": _mirrored_lookup,
    "conformance.check_history_ms": _check_history,
    "telemetry.span_ns": _telemetry_span,
}


def unit_of(name: str) -> str:
    return name.rsplit("_", 1)[1]


def run_micro() -> Dict[str, Dict[str, object]]:
    """Every micro metric as ``{name: {"value", "unit"}}``."""
    out: Dict[str, Dict[str, object]] = {}
    for name, bench in MICRO.items():
        unit = unit_of(name)
        out[name] = {"value": bench() * _PER_SECOND[unit], "unit": unit}
    return out
