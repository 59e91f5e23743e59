"""Macro-benchmark scenario: deterministic, accounted, and schedulable."""

import hashlib
import json
import sys

import pytest

from repro.macrobench import MacroConfig, MacroScenario


@pytest.fixture(scope="module")
def smoke_result():
    # Trimmed further below CI smoke scale to keep the unit suite fast.
    config = MacroConfig.smoke(day_seconds=10.0)
    return MacroScenario(config).run()


def test_two_runs_byte_identical():
    config = MacroConfig.smoke(day_seconds=10.0)
    first = json.dumps(MacroScenario(config).run().report(), sort_keys=True)
    second = json.dumps(MacroScenario(config).run().report(), sort_keys=True)
    assert first == second


def test_seed_changes_the_run():
    a = MacroScenario(MacroConfig.smoke(day_seconds=10.0)).run()
    b = MacroScenario(MacroConfig.smoke(day_seconds=10.0, seed=9)).run()
    assert a.report()["digest"] != b.report()["digest"]


def test_accounting_balances(smoke_result):
    result = smoke_result
    assert result.submitted > 0
    assert result.submitted == result.completed + result.dropped
    assert sum(result.per_shard_submitted) == result.submitted
    assert sum(result.per_shard_completed) == result.completed
    # ~mean-rate x duration arrivals, within Poisson noise.
    expected = result.config.expected_requests
    assert abs(result.submitted - expected) < expected * 0.15


def test_every_shard_sees_traffic(smoke_result):
    assert len(smoke_result.per_shard_submitted) == smoke_result.config.shards
    assert all(n > 0 for n in smoke_result.per_shard_submitted)


def test_latencies_sane(smoke_result):
    result = smoke_result
    service_time = result.config.service_time
    assert result.latency_p50 >= service_time - 1e-12
    assert result.latency_p50 <= result.latency_p99 <= result.latency_max
    assert result.latency_mean > 0


def test_report_shape(smoke_result):
    report = smoke_result.report()
    decoded = json.loads(json.dumps(report, sort_keys=True))
    assert decoded["scenario"] == "million-user-day"
    assert decoded["config"]["seed"] == 2026
    assert decoded["requests"]["submitted"] == smoke_result.submitted
    assert len(decoded["digest"]) == 64
    # Digest covers the payload: recompute by clearing and re-reporting.
    again = smoke_result.report()
    assert again["digest"] == decoded["digest"]
    # ... and independently of the reporting code.
    digest = decoded.pop("digest")
    payload = json.dumps(decoded, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(payload).hexdigest() == digest


def test_default_scheduler_digest_pinned():
    """Pinned smoke report. Two events per request since arrivals stopped
    scheduling rejected thinning candidates (12880 events and digest
    9ea1039e... before); everything but ``sim.events_fired`` is the
    report commit 38f947d produced, which the second digest, computed
    there, holds fixed."""
    report = MacroScenario(MacroConfig.smoke(day_seconds=5.0)).run().report()
    assert report["config"]["scheduler"] == "lc"
    assert report["requests"]["submitted"] == 4936
    assert report["sim"]["events_fired"] == 9872 == 2 * 4936
    assert report["digest"] == (
        "0cc50fab860ab0d797fcd38ae82e2f2dbbb521fb0846eb061e667f04ae826d81"
    )
    del report["digest"], report["sim"]["events_fired"]
    rest = json.dumps(report, sort_keys=True).encode("utf-8")
    assert hashlib.sha256(rest).hexdigest() == (
        "00c1981a9df9d71c80ec1a757a985eab5b693f4539ea2f61d97bf97ce4d786b5"
    )


def test_python_calls_per_request_stay_within_budget():
    """Every Python-level call of a smoke day, stdlib frames included,
    which the layer ledger's ``calls_in`` does not see. 17.8 per request
    while ``randrange`` / ``expovariate`` were called per draw; 13.2 with
    those bodies in line; 11.2 once real servers move their own
    least-connection index bits instead of calling a watcher, on CPython
    3.10 to 3.13."""
    scenario = MacroScenario(MacroConfig.smoke(day_seconds=5.0))
    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        result = scenario.run()
    finally:
        sys.setprofile(None)
    assert result.submitted == 4936
    assert calls / result.submitted <= 11.5


def test_no_rejected_candidate_reaches_the_loop():
    """Exactly two events per request, an arrival and a completion."""
    result = MacroScenario(MacroConfig.smoke()).run()
    assert result.submitted == result.completed > 40000
    assert result.events_fired == result.submitted + result.completed


def test_no_scheduler_knob():
    with pytest.raises(TypeError):
        MacroConfig.smoke(scheduler="lc-bucketed")
    with pytest.raises(TypeError):
        MacroConfig.smoke(loop_scheduler="laned")


