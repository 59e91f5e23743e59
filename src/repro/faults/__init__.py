"""Deterministic fault injection, invariants and chaos campaigns.

The dependability claims of the paper (graceful degradation through node
crashes, IP takeover, migration at "cost comparable to a normal startup")
are only as credible as the adversity they survive. This package turns the
hand-written happy/sad-path scenarios into a systematic tool:

* :class:`FaultSchedule` — a scripted or seeded-random timeline of fault
  actions (crash, repair, partition, heal, loss burst, slow node, clock
  skew), serializable and replayable;
* :class:`FaultInjector` — executes a schedule as events on the shared
  :class:`~repro.sim.eventloop.EventLoop`, recording a :class:`FaultTrace`;
* :class:`Invariant` / :class:`InvariantRegistry` — cluster-wide safety
  properties evaluated at sim-time intervals;
* :class:`ChaosCampaign` — N seeded episodes against a scenario factory;
  a violation yields a minimal reproduction snippet (seed + schedule).

See ``docs/FAULTS.md`` for the fault model and workflow.
"""

from repro.faults.campaign import (
    CampaignResult,
    ChaosCampaign,
    Episode,
    EpisodeVerdict,
    default_scenario,
    replay_and_check,
    replay_schedule,
    shrink_schedule,
    verify_deployment,
)
from repro.faults.injector import FaultInjector
from repro.faults.invariants import (
    Invariant,
    InvariantChecker,
    InvariantRegistry,
    Violation,
    default_invariants,
)
from repro.faults.schedule import (
    CLOCK_SKEW,
    CRASH,
    FAULT_KINDS,
    HEAL,
    LOSS_BURST,
    PARTITION,
    REPAIR,
    SLOW_NODE,
    FaultAction,
    FaultSchedule,
)
from repro.faults.trace import FaultTrace, TraceEntry

__all__ = [
    "CampaignResult",
    "ChaosCampaign",
    "Episode",
    "EpisodeVerdict",
    "default_scenario",
    "replay_and_check",
    "replay_schedule",
    "shrink_schedule",
    "verify_deployment",
    "FaultInjector",
    "Invariant",
    "InvariantChecker",
    "InvariantRegistry",
    "Violation",
    "default_invariants",
    "FaultAction",
    "FaultSchedule",
    "FaultTrace",
    "TraceEntry",
    "FAULT_KINDS",
    "CRASH",
    "REPAIR",
    "PARTITION",
    "HEAL",
    "LOSS_BURST",
    "SLOW_NODE",
    "CLOCK_SKEW",
]
