"""``python -m repro rollout``: deterministic, self-digested verdicts.

The CLI is the reproduction surface: CI runs every scenario twice and
``cmp``'s the verdict files, so byte-stability *is* the contract.
"""

import json

import pytest

from repro.__main__ import main
from repro.rollout.scenario import SCENARIOS


def run(tmp_path, label, args):
    out = tmp_path / ("%s.json" % label)
    code = main(["rollout", *args, "--out", str(out)])
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
    # Re-pinned from 7a1e6c5f when inventory gossip became change-driven:
    # the verdict is unchanged, the platform's message counts are not.
    assert document["digest"] == (
        "4e067226a89ed45657e08f4aa6471221fb1076f0de3c65ce9e51d4c98d6a9940"
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
    # verdict, f4cd7db0..., ended rolled-back with svc-1 at 2.0.0), and
    # again from 16e0645c when inventory gossip became change-driven (same
    # verdict, fewer messages).
    assert document["digest"] == (
        "1df59e37ba0d24679c04812aefc4a2c4a039b07d176cca1fa3ef75dddc306adf"
    )
    capsys.readouterr()


def test_main_module_dispatch(capsys, tmp_path):
    from repro.__main__ import main

    out = tmp_path / "verdict.json"
    assert main(["rollout", "--seed", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_bytes())["seed"] == 1
    capsys.readouterr()
