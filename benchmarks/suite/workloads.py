"""The four workloads, each one *unit* of work driven through ``repro.*``.

A unit builds its own topology from a seed, runs it, reads the public
counters, checks its outputs and returns a :class:`UnitResult`. Nothing
here measures host time: the harness times the call. Everything a unit
returns is a pure function of ``(seed, scale)``, which is what lets the
harness demand one digest from every repeat.

Scales: ``full`` is the unit the issue fixed; ``trace`` is what runs
under cProfile (only ``macro_day`` shrinks, to a quarter day, because
the profiler costs ~4.8x there); ``slice`` is the full topology at the
full rates cut to about half a host second, which the driver entry
repeats some forty times a run so that a quartile of them is steady;
``smoke`` finishes in about a second and serves as warm-up and as the
self-tests' unit.
"""

from __future__ import annotations

import hashlib
import json
import random
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping

from repro.core import DependableEnvironment
from repro.faults import ChaosCampaign, FaultSchedule
from repro.ipvs.addressing import IpEndpoint
from repro.ipvs.hashring import ConsistentHashRing
from repro.ipvs.schedulers import LeastConnectionScheduler
from repro.ipvs.server import DirectorCluster, Request
from repro.macrobench import MacroConfig, MacroScenario
from repro.osgi.bundle import BundleState
from repro.osgi.definition import BundleActivator, BundleDefinition, simple_bundle
from repro.osgi.framework import Framework
from repro.sim.eventloop import EventLoop
from repro.sim.rng import RngStreams
from repro.sla import ServiceLevelAgreement
from repro.vosgi.delegation import ExportPolicy
from repro.vosgi.manager import INSTANCE_MANAGER_CLASS, instance_manager_bundle
from repro.workloads.arrivals import DiurnalProfile, OpenLoopArrivals

from .spans import Spans

SCALES = ("full", "trace", "slice", "smoke")

#: Every public counter a unit reports; a workload that does not touch a
#: layer reports 0 for it, so the table has one shape on all four.
COUNTERS = (
    "sim.eventloop.events_fired",
    "sim.eventloop.scheduled",
    "sim.eventloop.events_per_op",
    "sim.network.msgs_sent",
    "sim.network.msgs_delivered",
    "sim.network.msgs_dropped",
    "sim.network.msgs_per_op",
    "gcs.view_installs",
    "gcs.multicasts_delivered",
    "migration.failovers",
    "ipvs.server.submitted",
    "ipvs.server.dropped",
    "conformance.history_events",
    "conformance.violations",
    "faults.injected",
    "faults.invariant_violations",
    "telemetry.spans",
)


@dataclass
class UnitResult:
    """What one unit did, free of host time."""

    #: What ``throughput_ops_s`` counts on this workload.
    ops: int
    attempted: int
    failed: int
    #: Simulated end-to-end metrics this workload defines (name -> value).
    sim: Dict[str, float]
    #: Fingerprint of the unit's deterministic outputs.
    digest: str
    #: Output checks that did not hold; empty means the unit is correct.
    errors: List[str]
    #: Every name in :data:`COUNTERS`.
    counters: Dict[str, float]


def _counters(ops: int, counted: Mapping[str, float]) -> Dict[str, float]:
    """All of :data:`COUNTERS`: the raw counts given, zeros elsewhere,
    and the two per-op ratios."""
    counters: Dict[str, float] = {name: 0 for name in COUNTERS}
    counters.update(counted)
    counters["sim.eventloop.events_per_op"] = (
        counters["sim.eventloop.events_fired"] / ops
    )
    counters["sim.network.msgs_per_op"] = counters["sim.network.msgs_sent"] / ops
    return counters


def _digest(payload: Mapping[str, Any]) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _percentile(ordered: "array", fraction: float) -> float:
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def _check(errors: List[str], holds: bool, message: str) -> None:
    if not holds:
        errors.append(message)


def _size(scale: str) -> str:
    """Only ``macro_day`` shrinks under the profiler; elsewhere the
    ``trace`` unit is the ``full`` one."""
    return "full" if scale == "trace" else scale


# ----------------------------------------------------------------------
# macro_day
# ----------------------------------------------------------------------
_MACRO_DAY_SCALE = {
    "full": lambda seed: MacroConfig.million_user_day(seed=seed),
    "trace": lambda seed: MacroConfig.million_user_day(seed=seed, day_seconds=100.0),
    "slice": lambda seed: MacroConfig.million_user_day(seed=seed, day_seconds=16.0),
    "smoke": lambda seed: MacroConfig.smoke(seed=seed),
}


def macro_day(seed: int, scale: str, spans: Spans) -> UnitResult:
    """``MacroScenario``: 4 shards x 12 servers, ``lc``, one diurnal day."""
    scenario = MacroScenario(_MACRO_DAY_SCALE[scale](seed))
    result = scenario.run()
    errors: List[str] = []
    _check(
        errors,
        result.submitted == result.completed + result.dropped,
        "submitted %d != completed %d + dropped %d"
        % (result.submitted, result.completed, result.dropped),
    )
    _check(
        errors,
        sum(result.per_shard_submitted) == result.submitted,
        "per-shard submitted sums to %d, not %d"
        % (sum(result.per_shard_submitted), result.submitted),
    )
    _check(
        errors,
        sum(result.per_shard_completed) == result.completed,
        "per-shard completed sums to %d, not %d"
        % (sum(result.per_shard_completed), result.completed),
    )
    return UnitResult(
        ops=result.submitted,
        attempted=result.submitted,
        failed=result.dropped,
        sim={
            "sim_latency_p50_ms": result.latency_p50 * 1e3,
            "sim_latency_p99_ms": result.latency_p99 * 1e3,
        },
        digest=result.report()["digest"],
        errors=errors,
        counters=_counters(
            result.submitted,
            {
                "sim.eventloop.events_fired": result.events_fired,
                "sim.eventloop.scheduled": scenario.loop.scheduled,
                "ipvs.server.submitted": result.submitted,
                "ipvs.server.dropped": result.dropped,
            },
        ),
    )


# ----------------------------------------------------------------------
# macro_wide
# ----------------------------------------------------------------------
_WIDE_SHARDS = 4
_WIDE_SERVERS = 96
_WIDE_SERVICE_TIME = 0.064
_WIDE_CLIENTS = 10000
#: ``slice`` ends after the first drain has been undone.
_WIDE_DAY_SECONDS = {"full": 100.0, "slice": 12.5, "smoke": 10.0}
#: Health flap: every second a shard takes its next server down for half
#: a second. Only an idle server is flapped, so no request is lost: the
#: scheduler must honour ``alive`` at once, and the run stays free of
#: failures whatever the seed.
_WIDE_FLAP_EVERY = 1.0
_WIDE_FLAP_DOWN = 0.5
#: Drain (weight 0, in-flight requests finish) every ten seconds.
_WIDE_DRAIN_EVERY = 10.0
_WIDE_DRAIN_FOR = 2.0


class _WideShard:
    """One director shard plus its deterministic churn schedule."""

    def __init__(self, loop: EventLoop, index: int, on_served) -> None:
        self.vip = IpEndpoint("10.1.%d.1" % index, 8080)
        self.cluster = DirectorCluster(loop, replicas=2, retain_requests=False)
        self.cluster.add_service(self.vip, scheduler_factory=LeastConnectionScheduler)
        self.nodes = ["w%d-%03d" % (index, n) for n in range(_WIDE_SERVERS)]
        for node in self.nodes:
            self.cluster.add_real_server(
                self.vip,
                node,
                service_time=_WIDE_SERVICE_TIME,
                queue_limit=128,
                on_served=on_served,
            )
        self._loop = loop
        self._flap_cursor = 0
        self._drain_cursor = _WIDE_SERVERS // 2
        self.submitted = 0
        self.flaps = 0
        self.flaps_skipped = 0
        self.drains = 0

    def schedule_churn(self, duration: float) -> None:
        t = _WIDE_FLAP_EVERY
        while t < duration:
            self._loop.call_at(t, self._flap_down, label="wide-flap")
            t += _WIDE_FLAP_EVERY
        t = _WIDE_DRAIN_EVERY
        while t + _WIDE_DRAIN_FOR < duration:
            self._loop.call_at(t, self._drain, label="wide-drain")
            t += _WIDE_DRAIN_EVERY

    def _flap_down(self) -> None:
        node = self.nodes[self._flap_cursor % _WIDE_SERVERS]
        self._flap_cursor += 1
        if self.cluster.is_draining(node) or self.cluster.node_active_connections(node):
            self.flaps_skipped += 1
            return
        self.cluster.mark_node(node, False)
        self.flaps += 1
        self._loop.call_after(
            _WIDE_FLAP_DOWN, lambda: self.cluster.mark_node(node, True), "wide-flap-up"
        )

    def _drain(self) -> None:
        node = self.nodes[self._drain_cursor % _WIDE_SERVERS]
        self._drain_cursor += 1
        self.cluster.drain_node(node)
        self.drains += 1
        self._loop.call_after(
            _WIDE_DRAIN_FOR, lambda: self.cluster.undrain_node(node), "wide-undrain"
        )


def macro_wide(seed: int, scale: str, spans: Spans) -> UnitResult:
    """4 shards x 96 servers under the diurnal curve, with server churn.

    Assembled here from public pieces because ``MacroScenario`` has no
    topology hook. Open loop in simulated time: arrivals follow the
    schedule whatever the servers do, latency runs from the due instant.
    """
    duration = _WIDE_DAY_SECONDS[_size(scale)]
    loop = EventLoop()
    rng = RngStreams(seed)
    latencies = array("d")

    def on_served(request: Request) -> None:
        latencies.append(request.completed_at - request.arrived_at)

    shards = [_WideShard(loop, s, on_served) for s in range(_WIDE_SHARDS)]
    ring = ConsistentHashRing(vnodes=64)
    for s in range(_WIDE_SHARDS):
        ring.add_shard("shard%d" % s)
    names = ["c%06d" % c for c in range(_WIDE_CLIENTS)]
    homes = [shards[int(ring.lookup(name)[len("shard") :])] for name in names]
    client_rng = rng.stream("wide.clients")

    def on_arrival(_index: int) -> None:
        client = client_rng.randrange(_WIDE_CLIENTS)
        shard = homes[client]
        shard.submitted += 1
        shard.cluster.submit(shard.vip, client=names[client])

    for shard in shards:
        shard.schedule_churn(duration)
    OpenLoopArrivals(
        loop,
        rng.stream("wide.arrivals"),
        DiurnalProfile(1200.0, 4800.0, duration),
        on_arrival,
        duration=duration,
    ).start()
    loop.run_for(duration)
    loop.drain(max_events=50_000_000)

    submitted = sum(shard.cluster.submitted for shard in shards)
    completed = len(latencies)
    dropped = submitted - completed
    per_shard_completed = [int(s.cluster.stats()["completed"]) for s in shards]
    errors: List[str] = []
    _check(
        errors,
        [s.submitted for s in shards] == [s.cluster.submitted for s in shards],
        "a shard's director saw a different request count than was sent to it",
    )
    _check(
        errors,
        sum(per_shard_completed) == completed,
        "per-shard completed sums to %d, not %d" % (sum(per_shard_completed), completed),
    )
    ordered = array("d", sorted(latencies))
    p50, p99 = _percentile(ordered, 0.50), _percentile(ordered, 0.99)
    summary = {
        "workload": "macro_wide",
        "seed": seed,
        "day_seconds": duration,
        "submitted": submitted,
        "completed": completed,
        "per_shard_submitted": [s.submitted for s in shards],
        "per_shard_completed": per_shard_completed,
        "flaps": [s.flaps for s in shards],
        "flaps_skipped": [s.flaps_skipped for s in shards],
        "drains": [s.drains for s in shards],
        "latency": {
            "p50": round(p50, 9),
            "p99": round(p99, 9),
            "max": round(ordered[-1], 9),
            "mean": round(sum(ordered) / len(ordered), 9),
        },
        "events_fired": loop.fired,
    }
    return UnitResult(
        ops=submitted,
        attempted=submitted,
        failed=dropped,
        sim={"sim_latency_p50_ms": p50 * 1e3, "sim_latency_p99_ms": p99 * 1e3},
        digest=_digest(summary),
        errors=errors,
        counters=_counters(
            submitted,
            {
                "sim.eventloop.events_fired": loop.fired,
                "sim.eventloop.scheduled": loop.scheduled,
                "ipvs.server.submitted": submitted,
                "ipvs.server.dropped": dropped,
            },
        ),
    )


# ----------------------------------------------------------------------
# chaos_fleet
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FleetScale:
    nodes: int
    customers: int
    standbys: int
    episodes: int
    episode_duration: float
    settle: float


FLEET_SCALE = {
    "full": FleetScale(8, 6, 3, 8, 30.0, 10.0),
    "slice": FleetScale(8, 6, 3, 1, 30.0, 10.0),
    "smoke": FleetScale(5, 4, 2, 2, 30.0, 5.0),
}
#: Crash/repair cycles per episode. The schedule is four cycles at seeded
#: times on seeded nodes rather than ``FaultSchedule.random``: a random
#: timeline's action count is Poisson, so the cost of a unit would swing
#: by a fifth from seed to seed, and with partitions, loss bursts, slow
#: nodes or most of the cluster down at once the 8-node platform leaves
#: duplicate or unplaced customers after the settle window on some seeds
#: (``single-primary``, ``customers-placed``). A benchmark run must not
#: contain failing operations; those faults belong to a correctness PR.
_FLEET_CYCLES = 4
_FLEET_PUMP_INTERVAL = 0.05  # 20 requests per simulated second
_FLEET_BUNDLES = 4


def _fleet_schedule(rng: random.Random, node_ids, duration: float) -> FaultSchedule:
    """Each cycle crashes one node early in its slot of the episode and
    repairs it a few seconds later, so at most two nodes are ever down."""
    schedule = FaultSchedule()
    nodes = sorted(node_ids)
    slot = duration / _FLEET_CYCLES
    for cycle in range(_FLEET_CYCLES):
        node = rng.choice(nodes)
        crash_at = cycle * slot + 1.0 + rng.random() * (slot / 2.0 - 1.0)
        repair_at = crash_at + slot * (0.25 + 0.2 * rng.random())
        schedule = schedule.crash(round(crash_at, 3), node).repair(
            round(repair_at, 3), node
        )
    return schedule


def _fleet_scenario(scale: FleetScale, built: List[Any]) -> Callable[[int], Any]:
    def scenario(seed: int) -> Any:
        env = DependableEnvironment.build(node_count=scale.nodes, seed=seed)
        names = ["cust%d" % c for c in range(scale.customers)]
        for name in names:
            admitted = env.admit_customer(
                ServiceLevelAgreement(name, cpu_share=0.2, availability_target=0.9),
                bundles=[
                    simple_bundle("%s.app%d" % (name, b)) for b in range(_FLEET_BUNDLES)
                ],
            )
            env.cluster.run_until_settled([admitted])
        env.run_for(1.0)
        for name in names[: scale.standbys]:
            host = env.locate(name)
            target = next(
                n.node_id for n in env.cluster.alive_nodes() if n.node_id != host
            )
            env.cluster.run_until_settled([env.prepare_standby(name, target)])
        endpoint = IpEndpoint("10.0.0.80", 80)
        env.expose_service(names[0], endpoint, service_time=0.005)

        def pump() -> None:
            env.director.submit(endpoint, client="fleet-client")
            env.loop.call_after(_FLEET_PUMP_INTERVAL, pump, label="fleet-traffic")

        env.loop.call_after(_FLEET_PUMP_INTERVAL, pump, label="fleet-traffic")
        built.append(env)
        return env

    return scenario


def fleet_campaign(seed: int, shape: FleetScale, built: List[Any]) -> ChaosCampaign:
    """The campaign ``chaos_fleet`` runs; every environment it builds is
    appended to ``built`` so the caller can read its counters."""
    return ChaosCampaign(
        scenario_factory=_fleet_scenario(shape, built),
        seed=seed,
        episodes=shape.episodes,
        episode_duration=shape.episode_duration,
        settle=shape.settle,
        schedule_factory=_fleet_schedule,
        telemetry=True,
        conformance=True,
    )


def chaos_fleet(seed: int, scale: str, spans: Spans) -> UnitResult:
    """A chaos campaign over an 8-node platform with warm and cold customers.

    The pump is an open loop in simulated time (20 requests per
    simulated second, whatever the platform is doing).
    """
    shape = FLEET_SCALE[_size(scale)]
    built: List[Any] = []
    campaign = fleet_campaign(seed, shape, built)
    result = campaign.run()
    failover = result.failover_percentiles()
    failed = sum(1 for episode in result.episodes if not episode.ok)
    errors: List[str] = []
    _check(
        errors,
        len(built) == len(result.episodes) == shape.episodes,
        "campaign ran %d episodes on %d environments, wanted %d"
        % (len(result.episodes), len(built), shape.episodes),
    )
    _check(
        errors,
        result.deployment_ok,
        "static verifier rejected the deployed bundles: %s"
        % result.deployment_diagnostics[:3],
    )
    histories = [episode.history for episode in result.episodes]
    network = [env.cluster.network.stats for env in built]
    submitted = sum(env.director.submitted for env in built)
    request_drops = sum(len(h.of_kind("request_drop")) for h in histories)
    summary = {
        "workload": "chaos_fleet",
        "seed": seed,
        "trace": result.trace_digest(),
        "histories": [episode.history_digest for episode in result.episodes],
        "verdicts": [episode.verdict.value for episode in result.episodes],
        "failover": {k: round(v, 9) for k, v in sorted(failover.items())},
    }
    return UnitResult(
        ops=len(result.episodes),
        attempted=len(result.episodes),
        failed=failed,
        sim={
            "sim_failover_downtime_p50_s": failover["p50"],
            "sim_failover_downtime_max_s": failover["max"],
        },
        digest=_digest(summary),
        errors=errors,
        counters=_counters(
            len(result.episodes),
            {
                "sim.eventloop.events_fired": sum(env.loop.fired for env in built),
                "sim.eventloop.scheduled": sum(env.loop.scheduled for env in built),
                "sim.network.msgs_sent": sum(s.sent for s in network),
                "sim.network.msgs_delivered": sum(s.delivered for s in network),
                "sim.network.msgs_dropped": sum(
                    s.dropped_loss + s.dropped_partition + s.dropped_dead for s in network
                ),
                "gcs.view_installs": sum(len(h.of_kind("view_install")) for h in histories),
                "gcs.multicasts_delivered": sum(len(h.of_kind("deliver")) for h in histories),
                "migration.failovers": sum(
                    1
                    for h in histories
                    for event in h.of_kind("migration")
                    if event.data["event"] == "failover"
                ),
                "ipvs.server.submitted": submitted,
                "ipvs.server.dropped": request_drops,
                "conformance.history_events": sum(len(h) for h in histories),
                "conformance.violations": len(result.conformance_violations),
                "faults.injected": sum(len(e.trace) for e in result.episodes),
                "faults.invariant_violations": len(result.violations),
                "telemetry.spans": sum(len(e.spans) for e in result.episodes),
            },
        ),
    )


# ----------------------------------------------------------------------
# tenant_platform
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _TenantScale:
    instances: int
    rounds: int


_TENANT_SCALE = {
    "full": _TenantScale(32, 60),
    "slice": _TenantScale(32, 30),
    "smoke": _TenantScale(8, 6),
}
_TENANT_BASE_BUNDLES = 3
_TENANT_APP_BUNDLES = 4
_TENANT_SERVICES_PER_APP = 2
_TENANT_LOOKUPS = 10


class _BaseActivator(BundleActivator):
    def start(self, context: Any) -> None:
        name = context.bundle.symbolic_name
        context.register_service("base.Service", {"provider": name}, {"provider": name})


class _AppActivator(BundleActivator):
    """Registers two services and looks the host's base service up by
    filter. The lookup may find nothing: a restarting instance starts
    its bundles before its service mirror reopens."""

    def __init__(self, app: int, mirrored_seen: List[int]) -> None:
        self._app = app
        self._mirrored_seen = mirrored_seen

    def start(self, context: Any) -> None:
        for slot in range(_TENANT_SERVICES_PER_APP):
            context.register_service(
                "app.Service", object(), {"app": self._app, "slot": slot}
            )
        found = context.get_service_references(
            "base.Service", "(provider=base-%d)" % (self._app % _TENANT_BASE_BUNDLES)
        )
        self._mirrored_seen.append(len(found))


def base_bundle(index: int) -> BundleDefinition:
    package = "base%d" % index
    return simple_bundle(
        "base-%d" % index,
        exports=('%s;version="1.0.0"' % package,),
        packages={package: {"Api": object()}},
        activator_factory=_BaseActivator,
    )


def tenant_platform(seed: int, scale: str, spans: Spans) -> UnitResult:
    """One host framework, 32 virtual instances, restarts against lookups.

    No event loop and no simulated time: the work is OSGi registry,
    filter, event and framework code, plus ``vosgi`` on top.
    """
    shape = _TENANT_SCALE[_size(scale)]
    rng = random.Random(seed)
    mirrored_seen: List[int] = []
    errors: List[str] = []

    with spans.span("build"):
        host = Framework("tenant-host")
        host.start()
        for b in range(_TENANT_BASE_BUNDLES):
            host.install(base_bundle(b)).start()
        host.install(instance_manager_bundle()).start()
        context = host.system_context
        manager = context.get_service(
            context.get_service_reference(INSTANCE_MANAGER_CLASS)
        )
        policy = ExportPolicy(
            packages={"base%d" % b for b in range(_TENANT_BASE_BUNDLES)},
            service_classes={"base.Service"},
        )
        names = ["t%02d" % i for i in range(shape.instances)]
        for name in names:
            instance = manager.create_instance(name, policy=policy)
            for app in range(_TENANT_APP_BUNDLES):
                instance.install(
                    simple_bundle(
                        "app-%d" % app,
                        activator_factory=lambda app=app: _AppActivator(
                            app, mirrored_seen
                        ),
                    )
                ).start()

    # The seed picks each round's instance order and each lookup's filter.
    plan = []
    for _ in range(shape.rounds):
        order = list(names)
        rng.shuffle(order)
        lookups = [
            [
                (rng.randrange(_TENANT_APP_BUNDLES), rng.randrange(2))
                for _ in range(_TENANT_LOOKUPS)
            ]
            for _ in order
        ]
        plan.append((order, lookups))

    management_ops = lookup_ops = failed = matched = 0
    for order, lookups in plan:
        with spans.span("write_phase"):
            for name in order:
                manager.stop_instance(name)
                manager.start_instance(name)
                management_ops += 2
        with spans.span("read_phase"):
            for name, picks in zip(order, lookups):
                instance_context = manager.require(name).framework.system_context
                for app, mirrored in picks:
                    if mirrored:
                        refs = instance_context.get_service_references(
                            "base.Service",
                            "(provider=base-%d)" % (app % _TENANT_BASE_BUNDLES),
                        )
                        want = 1
                    else:
                        refs = instance_context.get_service_references(
                            "app.Service", "(&(app=%d)(slot>=0))" % app
                        )
                        want = _TENANT_SERVICES_PER_APP
                    lookup_ops += 1
                    matched += len(refs)
                    if len(refs) != want:
                        failed += 1

    per_instance = (
        _TENANT_APP_BUNDLES * _TENANT_SERVICES_PER_APP + _TENANT_BASE_BUNDLES
    )
    for name in names:
        instance = manager.require(name)
        _check(errors, instance.running, "instance %s is not running" % name)
        states = [bundle.state for bundle in instance.bundles()]
        _check(
            errors,
            states == [BundleState.ACTIVE] * _TENANT_APP_BUNDLES,
            "instance %s bundles are %s" % (name, [s.value for s in states]),
        )
        _check(
            errors,
            instance.framework.registry.size == per_instance,
            "instance %s holds %d services, wanted %d"
            % (name, instance.framework.registry.size, per_instance),
        )
    instances = manager.instances()
    host.stop()
    _check(errors, host.registry.size == 0, "host registry not empty after stop")
    for instance in instances:
        _check(
            errors,
            not instance.running and instance.framework.registry.size == 0,
            "instance %s outlived its host" % instance.name,
        )

    ops = management_ops + lookup_ops
    summary = {
        "workload": "tenant_platform",
        "seed": seed,
        "instances": shape.instances,
        "rounds": shape.rounds,
        "management_ops": management_ops,
        "lookup_ops": lookup_ops,
        "matched": matched,
        "mirrored_seen": sum(mirrored_seen),
        "activations": len(mirrored_seen),
    }
    return UnitResult(
        ops=ops,
        attempted=ops,
        failed=failed,
        sim={},
        digest=_digest(summary),
        errors=errors,
        counters=_counters(ops, {}),
    )


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    ops: str
    default_seed: int
    repeats: int
    why: str
    unit: Callable[[int, str, Spans], UnitResult]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "macro_day",
            "requests",
            2026,
            3,
            "the roadmap's end-to-end figure: event loop, real servers and "
            "arrival generation do the work; a 12-server pick is small",
            macro_day,
        ),
        Workload(
            "macro_wide",
            "requests",
            2026,
            5,
            "same ipvs layers, 96 servers per shard: the least-connection pick "
            "dominates, and health flaps and drains are its index's write side",
            macro_wide,
        ),
        Workload(
            "chaos_fleet",
            "episodes",
            11,
            5,
            "8-node crash/repair campaign: network, gcs, migration, conformance "
            "and telemetry do the work; the only source of failover downtime",
            chaos_fleet,
        ),
        Workload(
            "tenant_platform",
            "management+lookup ops",
            7,
            15,
            "the paper's virtual OSGi instances: registry, filter, events, "
            "framework and vosgi only, no simulator, so sim and ipvs changes "
            "predict no movement",
            tenant_platform,
        ),
    )
}
