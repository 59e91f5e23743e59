"""Chaos-during-upgrade matrix: faults mid-rollout, pinned seeds.

Each pinned scenario attacks the rollout at a specific point — crash the
canary's node mid-soak, crash a wave member's node mid-deploy, partition
the canary from the directors — and must still end in a terminal,
uniform-version state with zero rollout-attributed request drops: the
engine either finishes the upgrade or rolls everything back, never
leaves the fleet mixed. The randomized upgrade-mode campaign then sweeps
the same claim across many seeds (the 25-episode sweep is ``chaos``-
marked for the nightly run).
"""

import pytest

from repro.conformance import HistoryRecorder, check_history
from repro.faults.campaign import ChaosCampaign, replay_schedule
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


def upgrade_campaign(seed, episodes):
    return ChaosCampaign(
        seed=seed,
        episodes=episodes,
        episode_duration=18.0,
        settle=12.0,
        upgrade=True,
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
