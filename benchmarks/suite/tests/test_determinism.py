"""Two smoke sets from separate processes agree on everything exact."""

import json
import os
import subprocess
import sys

import pytest

from benchmarks.suite import compare, harness


def _suite(command, out, hashseed):
    environment = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.suite", command, "--smoke", "--out", out],
        cwd=harness.ROOT,
        env=environment,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("command", ["run", "trace"])
def test_two_smoke_sets_agree(command, tmp_path):
    # Different string-hash seeds: no digest, counter or call count may
    # depend on set or dict order.
    first = _suite(command, str(tmp_path / "first.json"), 1)
    second = _suite(command, str(tmp_path / "second.json"), 2)
    assert set(first["workloads"]) == set(second["workloads"])
    assert len(first["workloads"]) == 4
    outcome = compare.compare(first, second)
    assert outcome["exact"] == []
    assert outcome["digests"] == []
    for name, workload, left, right, verdict in outcome["rows"]:
        if compare.BY_NAME[name].kind == "sim":
            assert left == right, (name, workload)
    for document in (first, second):
        assert document["provenance"]["revision"] != "dev"
        assert "dirty" in document["provenance"]
        assert all(w["correct"] for w in document["workloads"].values())
