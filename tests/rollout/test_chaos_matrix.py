"""Chaos-during-upgrade matrix: faults mid-rollout, pinned seeds.

Each pinned scenario attacks the rollout at a specific point — crash the
canary's node mid-soak, crash a wave member's node mid-deploy, partition
the canary from the directors — and must still end in a terminal,
uniform-version state with zero rollout-attributed request drops: the
engine either finishes the upgrade or rolls everything back, never
leaves the fleet mixed. A randomized campaign of rollouts under fire
then sweeps the same claim across many seeds (the 25-episode sweep is
``chaos``-marked for the nightly run).
"""

import random
from typing import Sequence

import pytest

from repro.conformance import HistoryRecorder, check_history
from repro.faults.campaign import ChaosCampaign, replay_schedule
from repro.faults.schedule import FaultSchedule
from repro.rollout.scenario import SCENARIOS
from repro.rollout.engine import COMPLETED, ROLLED_BACK
from repro.rollout.scenario import (
    PINNED_VERSION,
    TARGET_VERSION,
    rollout_scenario,
)
from repro.telemetry import Telemetry, attach

PINNED_FAULT_SCENARIOS = ("crash-canary", "crash-wave", "partition")


def run_scenario(name, seed=0):
    """One pinned fault scenario, instrumented exactly like the CLI."""
    schedule = SCENARIOS[name]()
    env = rollout_scenario(seed, bad_release=name == "bad-release")
    telemetry = Telemetry(env.loop.clock, env.cluster.rng, scenario="rollout")
    recorder = HistoryRecorder(env.loop.clock)
    with attach(env.loop, telemetry=telemetry, recorder=recorder):
        telemetry.open_root("rollout:%s" % name)
        try:
            _trace, violations = replay_schedule(
                env, schedule, duration=18.0, settle=12.0
            )
        finally:
            telemetry.close_root()
    report = env.rollout_engine.report
    return env, report, recorder, violations


@pytest.mark.parametrize("name", PINNED_FAULT_SCENARIOS)
def test_fault_mid_rollout_never_ends_mixed_version(name):
    _env, report, recorder, violations = run_scenario(name)
    assert report is not None, "%s: rollout never terminated" % name
    # Completed or fully rolled back — both are legal under injected
    # faults; a mixed-version steady state never is.
    assert report.outcome in (COMPLETED, ROLLED_BACK)
    assert not report.mixed_version
    expected = {
        COMPLETED: TARGET_VERSION,
        ROLLED_BACK: PINNED_VERSION,
    }[report.outcome]
    assert set(report.final_versions.values()) == {expected}
    assert violations == []
    # The offline judges agree: no drop pinned on a draining node, no
    # version-order anomaly.
    assert check_history(recorder.history) == []


def chaos_upgrade_scenario(seed: int):
    """Chaos-during-upgrade scenario: a clean release under fire.

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


def upgrade_campaign(seed, episodes):
    """Every episode runs a staged rollout under fire: the rollout
    scenario, faults aimed at the rollout window, and telemetry plus
    conformance on (gates need metrics; the rollout checkers need a
    history)."""
    return ChaosCampaign(
        scenario_factory=chaos_upgrade_scenario,
        seed=seed,
        episodes=episodes,
        episode_duration=18.0,
        settle=12.0,
        schedule_factory=upgrade_schedule_factory,
        telemetry=True,
        conformance=True,
    )


def assert_campaign_safe(result):
    assert result.ok, [str(v) for v in result.violations]
    for episode in result.episodes:
        assert episode.rollout is not None
        assert episode.rollout["outcome"] in (COMPLETED, ROLLED_BACK)
        assert episode.rollout["mixed_version"] is False
        assert episode.conformance == []


def test_small_upgrade_campaign_is_safe():
    result = upgrade_campaign(seed=5, episodes=3).run()
    assert_campaign_safe(result)


def test_upgrade_campaign_is_deterministic():
    first = upgrade_campaign(seed=9, episodes=2).run()
    second = upgrade_campaign(seed=9, episodes=2).run()
    assert first.trace_digest() == second.trace_digest()
    assert [e.rollout for e in first.episodes] == [
        e.rollout for e in second.episodes
    ]


@pytest.mark.chaos
def test_25_episode_upgrade_sweep():
    """The acceptance sweep: 25 seeded episodes of chaos-during-upgrade,
    zero rollout-attributed drops, zero mixed-version end states."""
    result = upgrade_campaign(seed=0, episodes=25).run()
    assert_campaign_safe(result)
    outcomes = [e.rollout["outcome"] for e in result.episodes]
    assert len(outcomes) == 25
