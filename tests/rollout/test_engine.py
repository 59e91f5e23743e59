"""The live rollout engine: clean completion and SLA-gated rollback.

Both runs record a conformance history; the offline checkers must stay
silent — a correct rollout neither drops requests nor leaves the fleet
mixed-version, whichever way it terminates.
"""

import pytest

from repro.conformance import HistoryRecorder, check_history
from repro.faults.campaign import replay_schedule
from repro.faults.schedule import FaultSchedule
from repro.rollout.engine import COMPLETED, INCOMPLETE, ROLLED_BACK, RolloutConfig
from repro.rollout.scenario import (
    PINNED_VERSION,
    TARGET_VERSION,
    rollout_scenario,
)
from repro.telemetry import Telemetry, attach


def run_rollout(seed=0, bad_release=False, duration=20.0):
    """Run one instrumented rollout: telemetry gates + recorded history."""
    env = rollout_scenario(seed, bad_release=bad_release)
    telemetry = Telemetry(env.loop.clock, env.cluster.rng, scenario="rollout")
    recorder = HistoryRecorder(env.loop.clock)
    with attach(env.loop, telemetry=telemetry, recorder=recorder):
        telemetry.open_root("rollout-test")
        try:
            env.run_for(duration)
        finally:
            telemetry.close_root()
    report = env.rollout_engine.report
    assert report is not None, "rollout never terminated"
    return env, report, recorder


def test_clean_rollout_completes_at_target():
    env, report, recorder = run_rollout()
    assert report.outcome == COMPLETED
    assert set(report.final_versions.values()) == {TARGET_VERSION}
    assert not report.mixed_version
    assert sorted(report.touched) == sorted(env.rollout_fleet)
    # Every gate evaluation along the way passed.
    assert report.gate_results
    assert all(
        g["ok"] for entry in report.gate_results for g in entry["gates"]
    )
    assert check_history(recorder.history) == []


def test_bad_release_rolls_back_to_pinned():
    env, report, recorder = run_rollout(bad_release=True)
    assert report.outcome == ROLLED_BACK
    assert "latency-p95" in report.reason
    assert set(report.final_versions.values()) == {PINNED_VERSION}
    assert not report.mixed_version
    # The canary was touched, judged unhealthy, and restored — with its
    # drain intact, so the rollback itself dropped nothing.
    assert any(
        not g["ok"] for entry in report.gate_results for g in entry["gates"]
    )
    assert check_history(recorder.history) == []


def test_report_summary_is_sorted_and_serialisable():
    import json

    _env, report, _recorder = run_rollout()
    summary = report.summary()
    assert summary["outcome"] == COMPLETED
    assert summary["final_versions"] == report.final_versions
    assert list(summary["final_versions"]) == sorted(summary["final_versions"])
    json.dumps(summary, sort_keys=True)


def test_history_records_the_full_phase_sequence():
    _env, _report, recorder = run_rollout()
    phases = [
        e.data["phase"] for e in recorder.history.of_kind("rollout")
    ]
    assert phases[0] == "start"
    assert phases[-1] == "final"
    for member_phase in ("drain-begin", "drain-complete", "upgrade-begin",
                         "upgrade-complete", "undrain"):
        assert phases.count(member_phase) == 3


def test_deadline_during_rollback_ends_incomplete():
    # The bad release trips the canary gate; the deadline fires while the
    # rollback is still draining the canary, which still runs the release:
    # a mixed fleet is not rolled back.
    env = rollout_scenario(
        0, bad_release=True, config=RolloutConfig(deadline_seconds=5.0)
    )
    telemetry = Telemetry(env.loop.clock, env.cluster.rng, scenario="rollout")
    with attach(env.loop, telemetry=telemetry):
        env.run_for(20.0)
    report = env.rollout_engine.report
    assert report.outcome == INCOMPLETE
    assert report.reason == "deadline during rollback"
    assert report.final_versions["svc-1"] == TARGET_VERSION
    assert report.mixed_version


SECOND_CRASHES = pytest.mark.parametrize(
    "second_crash",
    [7.45, 7.75],
    ids=["before-failover-activates", "while-replica-down"],
)


def abandoned_rollback(second_crash):
    """The bad release trips the canary gate and the rollback starts
    draining svc-1 on n1; n1 dies (t=7), failover moves svc-1 to n4, and
    n4 dies at ``second_crash`` during the retried swap. With both swaps
    failed the engine republishes the pinned definitions to the SAN and
    puts svc-1's pinned profile back in the environment's endpoint table
    instead of swapping live."""
    env = rollout_scenario(0, bad_release=True)
    endpoints = dict(env.customer("svc-1").endpoints)
    schedule = (
        FaultSchedule()
        .crash(7.0, "n1")
        .crash(second_crash, "n4")
        .repair(16.0, "n1")
        .repair(16.0, "n4")
    )
    telemetry = Telemetry(env.loop.clock, env.cluster.rng, scenario="rollout")
    recorder = HistoryRecorder(env.loop.clock)
    with attach(env.loop, telemetry=telemetry, recorder=recorder):
        telemetry.open_root("rollout-test")
        try:
            _trace, violations = replay_schedule(env, schedule, duration=18.0)
        finally:
            telemetry.close_root()
    return env, endpoints, violations, recorder


@SECOND_CRASHES
def test_rollback_abandoned_when_the_new_node_dies_too(second_crash):
    env, endpoints, violations, recorder = abandoned_rollback(second_crash)
    report = env.rollout_engine.report
    assert report.outcome == ROLLED_BACK
    assert "latency-p95" in report.reason
    assert set(report.final_versions.values()) == {PINNED_VERSION}
    assert not report.mixed_version
    phases = [
        (e.data["phase"], e.data["instance"])
        for e in recorder.history.of_kind("rollout")
    ]
    assert phases[-2:] == [("rollback-republish", "svc-1"), ("final", "")]
    assert env.customer("svc-1").endpoints == endpoints
    assert violations == []
    assert check_history(recorder.history) == []


@SECOND_CRASHES
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="DependableEnvironment._on_migration_record neither re-profiles "
    "a real server already on the target node nor drops one left on a node "
    "the member has left: a real server keeps the bad release's service "
    "time after the rollback (ROADMAP item 9)",
)
def test_abandoned_rollback_leaves_no_real_server_at_the_release_profile(
    second_crash,
):
    env, endpoints, _violations, _recorder = abandoned_rollback(second_crash)
    assert env.rollout_engine.report.outcome == ROLLED_BACK
    pinned = {service_time for service_time, _weight in endpoints.values()}
    served = {
        server.service_time
        for director in env.director.directors
        for endpoint in endpoints
        for server in director.real_servers(endpoint)
    }
    assert served == pinned
