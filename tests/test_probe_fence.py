"""Static fences around the observation surface.

Observers attach per event loop (``loop.probe``), so protocol code needs
neither a process-global switch nor an import of the observers:

* no ``global`` statement rebinds module state anywhere under
  ``src/repro`` except the scheduler default in ``sim/scheduler.py``;
* the protocol and platform packages import nothing from
  ``repro.conformance``, and from ``repro.telemetry`` only the two value
  types they annotate with (``tracer.Span``, ``metrics.MetricsRegistry``).
"""

import ast
import os

import pytest

PACKAGE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro"
)
GLOBAL_ALLOWED = {os.path.join("sim", "scheduler.py")}
FENCED = (
    "sim", "gcs", "ipvs", "migration", "cluster", "vosgi", "services", "workloads"
)
TELEMETRY_ALLOWED = {
    "repro.telemetry.tracer": {"Span"},
    "repro.telemetry.metrics": {"MetricsRegistry"},
}


def modules(root):
    """``(path relative to the package, AST)`` of every module under ``root``."""
    found = []
    for directory, _subdirs, files in os.walk(root):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as handle:
                    tree = ast.parse(handle.read())
                found.append((os.path.relpath(path, PACKAGE), tree))
    assert found, "no modules under %s" % root
    return found


def test_no_global_statement_outside_the_scheduler():
    found = [
        "%s:%d" % (path, node.lineno)
        for path, tree in modules(PACKAGE)
        if path not in GLOBAL_ALLOWED
        for node in ast.walk(tree)
        if isinstance(node, ast.Global)
    ]
    assert found == []


def observer_imports(tree):
    """``module:name`` of every import that reaches an observer package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith(("repro.conformance", "repro.telemetry")):
                    yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith(("repro.conformance", "repro.telemetry")):
                allowed = TELEMETRY_ALLOWED.get(node.module, set())
                for alias in node.names:
                    if alias.name not in allowed:
                        yield "%s:%s" % (node.module, alias.name)


@pytest.mark.parametrize("package", FENCED)
def test_protocol_packages_import_no_observer(package):
    found = [
        "%s imports %s" % (path, name)
        for path, tree in modules(os.path.join(PACKAGE, package))
        for name in observer_imports(tree)
    ]
    assert found == []
