"""Hash order must not reach a run's output: each CLI runner, started
under two ``PYTHONHASHSEED`` values, prints the same bytes and writes the
same file.

This is the dynamic counterpart of the per-file DET003 rule
(docs/ANALYSIS.md, "What was given up, and what checks it now"): a set
walked on a send path shows up here as a different digest however many
calls lie between the walk and the send.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
SHORT = ["--episodes", "2", "--duration", "12", "--settle", "6"]
COMMANDS = [
    pytest.param(
        ["conform", "--seed", "5"] + SHORT + ["--out", "out.json"], id="conform"
    ),
    pytest.param(
        ["rollout", "--seed", "5", "--scenario", "crash-canary", "--out", "out.json"],
        id="rollout",
    ),
    pytest.param(["chaos", "--seed", "5"] + SHORT, id="chaos"),
    pytest.param(
        ["trace", "--scenario", "failover", "--seed", "5", "--out", "out.json"],
        id="trace",
    ),
]


def run(command, hashseed, cwd):
    """(stdout, out.json bytes) of one run in its own directory, so the
    line echoing the relative ``--out`` path reads the same in both."""
    cwd.mkdir()
    # Absolute: tier 1 runs with a relative PYTHONPATH=src and cwd moves.
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-m", "repro"] + command,
        cwd=str(cwd),
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr.decode()
    written = cwd / "out.json"
    return done.stdout, written.read_bytes() if "--out" in command else None


@pytest.mark.parametrize("command", COMMANDS)
def test_same_bytes_under_two_hash_seeds(command, tmp_path):
    stdout_1, file_1 = run(command, "1", tmp_path / "seed1")
    stdout_2, file_2 = run(command, "2", tmp_path / "seed2")
    assert stdout_1 and stdout_1 == stdout_2
    assert file_1 == file_2
