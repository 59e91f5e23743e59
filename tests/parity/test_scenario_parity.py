"""Every digest-producing scenario, global vs laned, byte for byte.

Each test runs one end-to-end scenario under both schedulers and
compares the *serialised artifact* — the JSON verdict, the exported
span dump, the self-digested report — not just a summary number. A
single reordered event anywhere in the run changes a digest, so these
are whole-trajectory equivalence proofs at CI cost.
"""

from __future__ import annotations

import pytest

from repro.conformance.report import campaign_verdict, verdict_json
from repro.faults.campaign import ChaosCampaign
from repro.macrobench.scenario import MacroConfig, MacroScenario
from repro.rollout.scenario import SCENARIOS as ROLLOUT_SCENARIOS
from repro.__main__ import rollout_main
from repro.telemetry.export import dump_chrome_json, dump_spans_json

from tests.parity.conftest import assert_parity

CONFORMANCE_SCENARIOS = {
    "default": None,
    "crash": ("crash", "repair"),
    "partition": ("partition", "heal"),
    "loss": ("loss_burst",),
}


def test_chaos_campaign_parity(run_both):
    """Chaos with telemetry + conformance on: fault trace digests,
    per-episode history digests, span counts and the full JSON verdict
    must not move by a byte."""

    def scenario():
        campaign = ChaosCampaign(
            seed=7,
            episodes=2,
            episode_duration=10.0,
            settle=6.0,
            telemetry=True,
            conformance=True,
        )
        result = campaign.run()
        document = campaign_verdict(result, scenario="parity")
        return {
            "trace_digest": result.trace_digest(),
            "episode_digests": [e.digest() for e in result.episodes],
            "history_digests": [e.history_digest for e in result.episodes],
            "span_counts": [len(e.spans) for e in result.episodes],
            "failover_seconds": list(result.failover_seconds),
            "verdict": verdict_json(document),
        }

    global_run, laned_run = run_both(scenario)
    for key in global_run:
        assert_parity(global_run[key], laned_run[key], "chaos %s" % key)


def test_failover_trace_export_parity(run_both):
    """The acceptance trace: exported Chrome JSON and raw span dumps are
    identical files — span ids included, thanks to per-node RNG
    substreams."""
    from repro.telemetry.scenarios import run_failover_scenario

    def scenario():
        env, telemetry = run_failover_scenario(seed=42, requests=6)
        spans = telemetry.export_spans()
        meta = {"scenario": "failover", "seed": 42}
        return dump_chrome_json(spans, meta), dump_spans_json(spans, meta)

    (global_chrome, global_spans), (laned_chrome, laned_spans) = run_both(scenario)
    assert global_chrome == laned_chrome
    assert global_spans == laned_spans


@pytest.mark.parametrize("name", sorted(CONFORMANCE_SCENARIOS))
def test_conformance_verdict_parity(run_both, name):
    """`python -m repro conform` scenario mixes: byte-identical verdicts."""
    kinds = CONFORMANCE_SCENARIOS[name]

    def scenario():
        campaign = ChaosCampaign(
            seed=3,
            episodes=1,
            episode_duration=8.0,
            settle=5.0,
            kinds=kinds,
            conformance=True,
        )
        document = campaign_verdict(campaign.run(), scenario=name)
        return verdict_json(document)

    global_text, laned_text = run_both(scenario)
    assert_parity(global_text, laned_text, "conform verdict %r" % name)


@pytest.mark.parametrize("name", ["clean", "crash-canary"])
def test_rollout_verdict_parity(tmp_path, name):
    """`python -m repro rollout` drives the full stack — engine, gates,
    telemetry, conformance — through the real CLI; the verdict files
    from the two schedulers must compare equal byte for byte."""
    assert name in ROLLOUT_SCENARIOS
    outputs = {}
    for scheduler in ("global", "laned"):
        out = tmp_path / ("%s-%s.json" % (name, scheduler))
        rollout_main(
            [
                "--scenario",
                name,
                "--seed",
                "0",
                "--out",
                str(out),
                "--scheduler",
                scheduler,
            ]
        )
        outputs[scheduler] = out.read_bytes()
    assert outputs["global"] == outputs["laned"]


def test_macro_report_parity():
    """The macro benchmark's self-digested report (a reduced-size smoke
    config) is identical under both schedulers; ``loop_scheduler`` is
    deliberately excluded from the report so the digest can prove it."""
    reports = {}
    for scheduler in ("global", "laned"):
        config = MacroConfig.smoke(
            base_rps=120.0,
            peak_rps=480.0,
            day_seconds=12.0,
            loop_scheduler=scheduler,
        )
        scenario = MacroScenario(config)
        assert scenario.loop.laned == (scheduler == "laned")
        reports[scheduler] = scenario.run().report()
    assert reports["global"]["digest"] == reports["laned"]["digest"]
    assert reports["global"] == reports["laned"]
