"""Conformance-enabled chaos campaigns: verdicts, determinism, CLI.

Seed 1 is a pinned known-clean seed: at duration=15/settle=10 every
episode passes both the invariant catalogue and every conformance
checker (verified over 25 episodes — the chaos-marked test below pins
the full run; the default-run tests use a 2-episode prefix for speed).
"""

import json

import pytest

from repro.conformance import CHECKER_NAMES, campaign_verdict, verdict_json
from repro.__main__ import conform_main
from repro.conformance.report import SCENARIOS
from repro.faults import ChaosCampaign, EpisodeVerdict
from repro.faults.campaign import (
    default_scenario,
    derive_episode_seed,
    replay_and_check,
)
from repro.faults.invariants import Violation
from repro.faults.schedule import FaultSchedule


def small_campaign(conformance=True, episodes=2, seed=1):
    return ChaosCampaign(
        seed=seed,
        episodes=episodes,
        episode_duration=15.0,
        settle=10.0,
        conformance=conformance,
    )


class TestConformanceCampaign:
    def test_pinned_seed_is_clean(self):
        result = small_campaign().run()
        assert result.ok
        assert result.conformance_violations == []
        for episode in result.episodes:
            assert episode.verdict is EpisodeVerdict.OK
            assert episode.history is not None
            assert len(episode.history) > 0
            assert episode.history_digest == episode.history.digest()

    def test_recording_leaves_fault_traces_identical(self):
        # The recorder draws no randomness and schedules nothing, so the
        # campaign trace digest must not depend on conformance on/off.
        with_rec = small_campaign(conformance=True).run()
        without = small_campaign(conformance=False).run()
        assert with_rec.trace_digest() == without.trace_digest()
        for episode in without.episodes:
            assert episode.history is None
            assert episode.history_digest == ""
            assert episode.verdict is EpisodeVerdict.OK

    def test_same_seed_runs_are_identical(self):
        first = small_campaign().run()
        second = small_campaign().run()
        assert first.trace_digest() == second.trace_digest()
        for a, b in zip(first.episodes, second.episodes):
            assert a.history_digest == b.history_digest

    def test_histories_record_protocol_and_registry_activity(self):
        result = small_campaign(episodes=1).run()
        history = result.episodes[0].history
        kinds = {event.kind for event in history}
        assert "deliver" in kinds and "send" in kinds
        # The default scenario admits customers before recording starts,
        # but chaos-driven failovers write the registry mid-episode.
        assert history.groups()  # at least the membership group


class TestEpisodeVerdict:
    def test_enum_values(self):
        assert EpisodeVerdict.OK.value == "ok"
        assert EpisodeVerdict.INVARIANT_VIOLATION.value == "invariant-violation"
        assert (
            EpisodeVerdict.CONFORMANCE_VIOLATION.value
            == "conformance-violation"
        )
        assert (
            EpisodeVerdict.INVARIANT_AND_CONFORMANCE.value
            == "invariant+conformance-violation"
        )

    def test_verdict_classification(self):
        result = small_campaign(episodes=1).run()
        episode = result.episodes[0]
        assert episode.verdict is EpisodeVerdict.OK
        episode.violations = [Violation(invariant="x", at=1.0, detail="d")]
        assert episode.verdict is EpisodeVerdict.INVARIANT_VIOLATION
        assert not episode.ok
        episode.conformance = ["fake"]
        assert episode.verdict is EpisodeVerdict.INVARIANT_AND_CONFORMANCE
        episode.violations = []
        assert episode.verdict is EpisodeVerdict.CONFORMANCE_VIOLATION

    def test_repro_snippet_distinguishes_verdicts(self):
        campaign = small_campaign(episodes=1)
        result = campaign.run()
        episode = result.episodes[0]
        episode.violations = [Violation(invariant="x", at=1.0, detail="d")]
        snippet = campaign.repro_snippet(episode)
        assert "# verdict: invariant-violation" in snippet
        assert "replay_schedule" in snippet
        # A conformance violation swaps in the recording harness and pins
        # the history digest alongside the trace digest.
        episode.conformance = [
            "[fifo-order] at n1 delivered fifo seq 2 after seq 2"
        ]
        snippet = campaign.repro_snippet(episode)
        assert "# verdict: invariant+conformance-violation" in snippet
        assert "# history digest: %s" % episode.history_digest in snippet
        assert "replay_and_check" in snippet
        assert "assert not conformance" in snippet
        assert "#   !! [fifo-order]" in snippet


class TestReplayAndCheck:
    def test_reproduces_episode_trace_and_history(self):
        campaign = small_campaign(episodes=1)
        episode = campaign.run().episodes[0]
        env = default_scenario(episode.seed)
        schedule = FaultSchedule(list(episode.schedule))
        trace, violations, history, conformance = replay_and_check(
            env, schedule, duration=15.0, settle=10.0
        )
        assert trace.digest() == episode.trace.digest()
        assert history.digest() == episode.history_digest
        assert violations == [] and conformance == []


class TestVerdictDocument:
    def test_checker_catalogue(self):
        assert CHECKER_NAMES[-3] == "linearizability"
        assert CHECKER_NAMES[-2:] == (
            "rollout-no-dropped-request",
            "rollout-version-monotonic",
        )
        assert len(CHECKER_NAMES) == 9

    def test_document_shape_and_self_digest(self):
        result = small_campaign().run()
        document = campaign_verdict(result, scenario="default")
        assert document["ok"] is True
        assert document["seed"] == 1
        assert document["scenario"] == "default"
        assert document["checkers"] == list(CHECKER_NAMES)
        assert document["campaign_trace_digest"] == result.trace_digest()
        for index, entry in enumerate(document["episodes"]):
            assert entry["index"] == index
            assert entry["seed"] == derive_episode_seed(1, index)
            assert entry["verdict"] == "ok"
            assert entry["events"] > 0 and entry["ops"] >= 0
            assert entry["conformance_violations"] == []
        digest = document.pop("digest")
        redone = campaign_verdict(result, scenario="default")
        assert redone.pop("digest") == digest

    def test_verdict_json_is_byte_stable(self):
        first = verdict_json(campaign_verdict(small_campaign().run()))
        second = verdict_json(campaign_verdict(small_campaign().run()))
        assert first == second
        assert first.endswith("\n")
        json.loads(first)  # well-formed


class TestConformCli:
    def test_scenarios_catalogue(self):
        assert set(SCENARIOS) == {"default", "crash", "partition", "loss"}
        assert SCENARIOS["default"] is None
        assert SCENARIOS["crash"] == ("crash", "repair")

    def test_two_runs_byte_identical(self, tmp_path, capsys):
        out1 = tmp_path / "v1.json"
        out2 = tmp_path / "v2.json"
        base = ["--seed", "1", "--episodes", "2", "--duration", "15"]
        assert conform_main(base + ["--out", str(out1)]) == 0
        assert conform_main(base + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        document = json.loads(out1.read_text())
        assert document["ok"] is True
        assert document["digest"] in capsys.readouterr().out

    def test_rejects_zero_episodes(self, capsys):
        with pytest.raises(SystemExit):
            conform_main(["--episodes", "0"])


@pytest.mark.chaos
def test_pinned_seed_full_campaign_is_clean():
    """25 episodes on the pinned seed: zero violations of any kind."""
    result = ChaosCampaign(
        seed=1,
        episodes=25,
        episode_duration=15.0,
        settle=10.0,
        conformance=True,
    ).run()
    assert result.ok, [
        (e.index, e.verdict.value, e.violations, e.conformance)
        for e in result.episodes
        if not e.ok
    ]
