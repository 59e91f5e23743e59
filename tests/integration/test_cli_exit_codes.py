"""``python -m repro`` exit codes at the edges: an output path that cannot
be written is exit 3, reported in one stderr line before any simulation
runs (exit 1 stays "violations found"); an unknown option is exit 2."""

import os
import subprocess
import sys

import pytest

from repro.__main__ import main

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


def run(args, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro"] + args,
        cwd=str(cwd),
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize(
    "args",
    [
        ["conform", "--seed", "1", "--episodes", "1", "--duration", "5", "--out"],
        ["rollout", "--out"],
        ["trace", "--out"],
        ["trace", "--out", "t.json", "--spans-out"],
    ],
    ids=["conform", "rollout", "trace", "trace-spans"],
)
def test_unwritable_output_exits_3_before_running(args, tmp_path):
    missing = str(tmp_path / "no" / "such" / "dir" / "out.json")
    done = run(args + [missing], tmp_path)
    assert done.returncode == 3, done.stderr
    assert done.stdout == ""
    assert done.stderr.count("\n") == 1
    assert missing in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "t.json").exists()


def test_output_path_that_is_a_directory_exits_3(tmp_path):
    done = run(["rollout", "--out", str(tmp_path)], tmp_path)
    assert done.returncode == 3
    assert done.stdout == ""


@pytest.mark.parametrize("command", ["chaos", "conform", "rollout", "trace"])
def test_scheduler_option_is_rejected(command, capsys):
    """Every run uses the one event loop, so there is none to choose."""
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--scheduler", "global"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --scheduler global" in capsys.readouterr().err
