"""Every shipped example must run to completion (guards against bit-rot).

Each example runs as ``python examples/<name>.py`` in a fresh
interpreter, as a reader would start it: an import cycle that only bites
when a given module is imported first cannot hide behind modules an
earlier test already loaded.
"""

import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"
EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))
SRC = EXAMPLES_DIR.parent / "src"


def run_example(script):
    """stdout of ``python examples/<script>``; fails on a nonzero exit."""
    done = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_examples_directory_found():
    assert EXAMPLES, "no examples found at %s" % EXAMPLES_DIR


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs_and_prints(script):
    output = run_example(script)
    assert len(output) > 100, "%s produced almost no output" % script


def test_quickstart_shows_failover():
    output = run_example("quickstart.py")
    assert "redeployed on" in output
    assert "ComplianceReport" in output


def test_ha_shop_promotes_standby_and_keeps_orders():
    output = run_example("ha_shop.py")
    assert "orders after failover: ['o-1', 'o-2']" in output
    assert "promoted to" in output


def test_module_entrypoint_runs():
    from repro.__main__ import main

    captured = io.StringIO()
    with redirect_stdout(captured):
        code = main(["--nodes", "3", "--seed", "5"])
    assert code == 0
    output = captured.getvalue()
    assert "compliance" in output
