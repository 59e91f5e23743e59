"""``python -m repro rollout``: deterministic, self-digested verdicts.

The CLI is the reproduction surface: CI runs every scenario twice and
``cmp``'s the verdict files, so byte-stability *is* the contract.
"""

import json

import pytest

from repro.__main__ import rollout_main
from repro.rollout.scenario import SCENARIOS


def run(tmp_path, label, args):
    out = tmp_path / ("%s.json" % label)
    code = rollout_main(args + ["--out", str(out)])
    return code, out.read_bytes()


def test_scenarios_catalogue():
    assert sorted(SCENARIOS) == [
        "bad-release",
        "clean",
        "crash-canary",
        "crash-during-rollback",
        "crash-wave",
        "deadline",
        "partition",
    ]


@pytest.mark.parametrize("scenario", ["clean", "crash-canary"])
def test_two_same_seed_runs_byte_identical(tmp_path, capsys, scenario):
    base = ["--seed", "3", "--scenario", scenario]
    code1, first = run(tmp_path, "first", base)
    code2, second = run(tmp_path, "second", base)
    assert code1 == 0 and code2 == 0
    assert first == second
    capsys.readouterr()


def test_verdict_document_shape(tmp_path, capsys):
    code, raw = run(tmp_path, "clean", ["--seed", "0"])
    assert code == 0
    document = json.loads(raw)
    assert document["tool"] == "repro.rollout"
    assert document["ok"] is True
    assert document["rollout"]["outcome"] == "completed"
    assert document["rollout"]["mixed_version"] is False
    assert document["requests"]["dropped_in_upgrade_windows"] == 0
    assert "rollout-no-dropped-request" in document["checkers"]
    assert "rollout-version-monotonic" in document["checkers"]
    # The digest is over the document minus itself — recomputable.
    body = dict(document)
    digest = body.pop("digest")
    import hashlib

    assert digest == hashlib.sha256(
        json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    capsys.readouterr()


def test_bad_release_rolls_back_and_still_passes(tmp_path, capsys):
    code, raw = run(
        tmp_path, "bad", ["--seed", "0", "--scenario", "bad-release"]
    )
    document = json.loads(raw)
    assert code == 0
    assert document["rollout"]["outcome"] == "rolled-back"
    assert "latency-p95" in document["rollout"]["reason"]
    assert document["ok"] is True
    capsys.readouterr()


def test_deadline_ends_the_rollout_incomplete(tmp_path, capsys):
    # The engine's deadline fires in the last soak: every member already
    # runs the target, but the rollout never verified, so the verdict fails.
    code, raw = run(tmp_path, "deadline", ["--seed", "0", "--scenario", "deadline"])
    document = json.loads(raw)
    assert code == 1
    assert document["ok"] is False
    assert document["rollout"]["outcome"] == "incomplete"
    assert document["rollout"]["reason"] == "deadline exceeded"
    assert document["rollout"]["mixed_version"] is False
    assert document["conformance_violations"] == []
    assert document["digest"] == (
        "7a1e6c5fc4090ed34d2feb3fd56fc61985a47688f24ab1dd018badc7c8d17ed5"
    )
    capsys.readouterr()


def test_crash_during_rollback_swaps_the_member_on_its_new_node(tmp_path, capsys):
    # The canary's node dies while the rollback drains it. The engine sees
    # the dead node (no upgrade window opens on it), finds the member where
    # failover redeployed it at the release, and swaps it back there, so
    # the rollback it reports is the fleet the checkers see.
    code, raw = run(
        tmp_path, "crash", ["--seed", "0", "--scenario", "crash-during-rollback"]
    )
    document = json.loads(raw)
    assert code == 0
    assert document["ok"] is True
    assert document["rollout"]["outcome"] == "rolled-back"
    assert document["rollout"]["final_versions"] == {
        "svc-1": "1.0.0",
        "svc-2": "1.0.0",
        "svc-3": "1.0.0",
    }
    assert document["conformance_violations"] == []
    assert document["requests"]["dropped_in_upgrade_windows"] == 0
    # Re-pinned when the engine learned to retry the rollback swap after a
    # failover and to stop treating a crashed node as drained (the parent
    # verdict, f4cd7db0..., ended rolled-back with svc-1 at 2.0.0).
    assert document["digest"] == (
        "16e0645cf79bd0482f76c3d550491d2e2403abe6707b5aa5c3c07ffe5d0cfa82"
    )
    capsys.readouterr()


def test_main_module_dispatch(capsys, tmp_path):
    from repro.__main__ import main

    out = tmp_path / "verdict.json"
    assert main(["rollout", "--seed", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_bytes())["seed"] == 1
    capsys.readouterr()
