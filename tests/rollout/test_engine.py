"""The live rollout engine: clean completion and SLA-gated rollback.

Both runs record a conformance history; the offline checkers must stay
silent — a correct rollout neither drops requests nor leaves the fleet
mixed-version, whichever way it terminates.
"""

from repro.conformance import HistoryRecorder, check_history
from repro.rollout.engine import COMPLETED, ROLLED_BACK
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
