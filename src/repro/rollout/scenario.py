"""Canonical rollout scenarios: a fleet behind one VIP, plus an engine.

:func:`rollout_scenario` builds the deployment shape every rollout test
and the ``python -m repro rollout`` CLI share: ``fleet_size`` customers
(``svc-1`` ... ``svc-N``), each pinned to its own node and running the
same ``fleet.app`` bundle at the pinned version, all serving one virtual
endpoint through the director pair, with a steady deterministic traffic
pump. A :class:`~repro.rollout.engine.RolloutEngine` for the target
release is attached as ``env.rollout_engine`` and scheduled to start at
``start_delay`` — *after* a chaos campaign activates telemetry and the
history recorder, so gates and rollout history events land correctly.

``bad_release=True`` ships a regressed version (10x the service time):
its canary visibly drags the soak window's p95 latency past the gate
threshold, so the rollout deterministically rolls back.

:data:`SCENARIOS` are the pinned fault patterns ``python -m repro
rollout`` runs against that engine, and :func:`rollout_verdict` is the
self-digested JSON document it emits.

:func:`chaos_upgrade_scenario` is the ``seed -> env`` factory
:class:`~repro.faults.campaign.ChaosCampaign` uses in upgrade mode, and
:func:`upgrade_schedule_factory` draws fault schedules timed to land
*inside* the rollout window (crash or partition while waves are moving).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.conformance.axioms import ConformanceViolation
from repro.conformance.history import History
from repro.conformance.report import CHECKER_NAMES, self_digested
from repro.faults.schedule import FaultSchedule
from repro.ipvs.addressing import IpEndpoint
from repro.rollout.engine import RolloutConfig, RolloutEngine
from repro.rollout.release import BundleRelease, make_release
from repro.sla.agreement import ServiceLevelAgreement

__all__ = [
    "FLEET_BUNDLE",
    "FLEET_ENDPOINT",
    "PINNED_VERSION",
    "TARGET_VERSION",
    "SCENARIOS",
    "SCENARIO_OPTIONS",
    "rollout_scenario",
    "rollout_verdict",
    "chaos_upgrade_scenario",
    "upgrade_schedule_factory",
]

FLEET_BUNDLE = "fleet.app"
FLEET_ENDPOINT = IpEndpoint("10.0.0.80", 80)
PINNED_VERSION = "1.0.0"
TARGET_VERSION = "2.0.0"
#: Healthy per-request service time (both versions unless regressed).
SERVICE_TIME = 0.02
#: Regressed release: 10x slower, dragging soak-window p95 over the gate.
BAD_SERVICE_TIME = 0.2


def rollout_scenario(
    seed: int,
    fleet_size: int = 3,
    node_count: int = 4,
    bad_release: bool = False,
    start_delay: float = 2.0,
    pump_interval: float = 0.02,
    config: Optional[RolloutConfig] = None,
) -> Any:
    """Build the fleet, the traffic, and a scheduled rollout engine."""
    from repro.core import DependableEnvironment

    # Rebalancing is off: the fleet is deliberately spread one-per-node
    # (anti-affinity), and consolidation would merge members behind one
    # real server — draining that node would then drain the whole fleet.
    env = DependableEnvironment.build(
        node_count=node_count, seed=seed, enable_rebalance=False
    )
    pinned = make_release(
        FLEET_BUNDLE, version=PINNED_VERSION, service_time=SERVICE_TIME
    )
    nodes = [n.node_id for n in env.cluster.nodes()]
    fleet: List[str] = []
    for i in range(fleet_size):
        name = "svc-%d" % (i + 1)
        completion = env.admit_customer(
            # The cpu share covers the member's metered traffic even when
            # a drained peer's load shifts onto it, so SLA enforcement
            # never migrates fleet members mid-rollout on its own.
            ServiceLevelAgreement(
                name, cpu_share=0.6, availability_target=0.9
            ),
            bundles=[pinned.definition()],
            node_id=nodes[i % len(nodes)],
        )
        env.cluster.run_until_settled([completion])
        fleet.append(name)
    env.run_for(1.0)
    env.expose_service(fleet[0], FLEET_ENDPOINT, service_time=SERVICE_TIME)
    for name in fleet[1:]:
        env.join_service(name, FLEET_ENDPOINT, service_time=SERVICE_TIME)

    def pump() -> None:
        env.director.submit(FLEET_ENDPOINT, client="rollout-client")
        env.loop.call_after(pump_interval, pump, label="rollout-traffic")

    env.loop.call_after(pump_interval, pump, label="rollout-traffic")

    release = make_release(
        FLEET_BUNDLE,
        version=TARGET_VERSION,
        service_time=BAD_SERVICE_TIME if bad_release else SERVICE_TIME,
    )
    engine = RolloutEngine(env, fleet, release, config=config)
    env.loop.call_after(start_delay, engine.start, label="rollout:start")
    env.rollout_engine = engine
    env.rollout_fleet = fleet
    return env


#: Scenario name -> pinned fault schedule builder. Times are aimed at
#: the engine timeline (start t=2, canary soak ~2.4-5.4, wave ~5.4-6.1;
#: with the bad release the rollback drains the canary from ~5.3).
SCENARIOS: Dict[str, Callable[[], FaultSchedule]] = {
    "clean": lambda: FaultSchedule(),
    "bad-release": lambda: FaultSchedule(),
    "crash-canary": lambda: FaultSchedule()
    .crash(4.5, "n1")
    .repair(14.0, "n1"),
    "crash-wave": lambda: FaultSchedule()
    .crash(5.6, "n2")
    .repair(14.0, "n2"),
    "partition": lambda: FaultSchedule()
    .partition(3.0, ["n1"], ["n2", "n3", "n4"])
    .heal(9.0),
    # The deadline fires in the final soak: an incomplete rollout.
    "deadline": lambda: FaultSchedule(),
    # The canary's node dies while the rollback drains it; the engine
    # swaps the member back on the node failover moves it to.
    "crash-during-rollback": lambda: FaultSchedule()
    .crash(7.0, "n1")
    .repair(14.0, "n1"),
}

#: Scenario name -> :func:`rollout_scenario` keyword overrides.
SCENARIO_OPTIONS: Dict[str, Dict[str, Any]] = {
    "bad-release": {"bad_release": True},
    "deadline": {"config": RolloutConfig(deadline_seconds=4.0)},
    "crash-during-rollback": {"bad_release": True},
}


def rollout_verdict(
    env: Any,
    trace: Any,
    violations: Sequence[Any],
    history: History,
    conformance: Sequence[ConformanceViolation],
    scenario: str,
    seed: int,
) -> Dict[str, Any]:
    """The deterministic, self-digested verdict of one replayed rollout.

    ``trace`` / ``violations`` come from
    :func:`~repro.faults.campaign.replay_schedule`, ``conformance`` is
    :func:`~repro.conformance.report.check_history` over ``history``.
    """
    report = env.rollout_engine.report
    summary = report.summary() if report is not None else {"outcome": "incomplete"}
    requests = env.director.requests
    document = {
        "tool": "repro.rollout",
        "version": 1,
        "scenario": scenario,
        "seed": seed,
        "checkers": list(CHECKER_NAMES),
        "rollout": summary,
        "requests": {
            "total": len(requests),
            "completed": sum(1 for r in requests if r.ok),
            "dropped": sum(1 for r in requests if r.dropped is not None),
            "dropped_in_upgrade_windows": sum(
                1 for v in conformance if v.checker == "rollout-no-dropped-request"
            ),
        },
        "invariant_violations": [str(v) for v in violations],
        "conformance_violations": [v.to_dict() for v in conformance],
        "history_events": len(history),
        "history_digest": history.digest(),
        "trace_digest": trace.digest(),
    }
    document["ok"] = (
        summary.get("outcome") in ("completed", "rolled-back")
        and not summary.get("mixed_version", True)
        and not violations
        and not conformance
    )
    return self_digested(document)


def chaos_upgrade_scenario(seed: int) -> Any:
    """The ChaosCampaign upgrade-mode scenario: clean release under fire.

    The release itself is healthy; whatever goes wrong comes from the
    injected faults. The campaign then asserts the engine still ends in
    a terminal, uniform-version state with no rollout-attributed drops.
    """
    return rollout_scenario(seed, fleet_size=3, node_count=4)


def upgrade_schedule_factory(
    rng: random.Random, node_ids: Sequence[str], duration: float
) -> FaultSchedule:
    """Faults aimed at the rollout window (engine starts at t=2).

    Draws one of three attack shapes — crash a fleet node mid-rollout,
    crash two nodes staggered, or partition one fleet node from the rest
    — with jittered times, always repairing/healing before the episode's
    settle phase so quiescent invariants get a fair final check.
    """
    nodes = sorted(node_ids)
    window_start = 2.5
    window_end = max(window_start + 1.0, duration * 0.6)

    def at(fraction: float) -> float:
        span = window_end - window_start
        return round(window_start + span * fraction, 3)

    shape = rng.randrange(3)
    victim = nodes[rng.randrange(len(nodes))]
    schedule = FaultSchedule()
    if shape == 0:
        schedule = schedule.crash(at(rng.uniform(0.0, 0.6)), victim)
        schedule = schedule.repair(at(0.8), victim)
    elif shape == 1:
        second = nodes[rng.randrange(len(nodes))]
        schedule = schedule.crash(at(rng.uniform(0.0, 0.3)), victim)
        schedule = schedule.repair(at(0.6), victim)
        if second != victim:
            schedule = schedule.crash(at(rng.uniform(0.3, 0.6)), second)
            schedule = schedule.repair(at(0.9), second)
    else:
        others = [n for n in nodes if n != victim]
        schedule = schedule.partition(
            at(rng.uniform(0.0, 0.5)), [victim], others
        )
        schedule = schedule.heal(at(0.85))
    return schedule
