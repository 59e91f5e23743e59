"""Static fences around the observation surface.

Observers attach per event loop (``loop.probe``), so protocol code needs
neither a process-global switch nor an import of the observers:

* no ``global`` statement rebinds module state anywhere under
  ``src/repro``;
* the protocol and platform packages import nothing from
  ``repro.conformance``, and from ``repro.telemetry`` only the two value
  types they annotate with (``tracer.Span``, ``metrics.MetricsRegistry``);
* every handler that catches ``Exception``, ``BaseException`` or
  everything (a bare ``except:``) sits in a function named in
  ``SPEC_RULE_SITES`` or ``USER_CODE_SITES``, and every entry there
  names one such handler.
"""

import ast
import os

import pytest

PACKAGE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro"
)
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


#: ``(path::qualname, reason)`` of every broad exception handler under
#: ``src/repro`` that an OSGi spec rule requires, one entry per handler.
SPEC_RULE_SITES = (
    ("osgi/bundle.py::Bundle._do_start", "a failed activator raises BundleException"),
    ("osgi/bundle.py::Bundle._do_stop", "the bundle still stops, then raises"),
    ("osgi/events.py::EventDispatcher._safely", "listener isolation, reports ERROR"),
    (
        "osgi/events.py::EventDispatcher.fire_framework_event",
        "listener isolation; reporting it as ERROR would recurse",
    ),
)
#: The same for handlers that wrap user code: whatever it raises is
#: reported where it happens, and the caller keeps running.
USER_CODE_SITES = (
    (
        "autonomic/scripting.py::scripted_policy.action",
        "an operator's action script: counted in Policy.errors",
    ),
    (
        "autonomic/scripting.py::scripted_policy.condition",
        "an operator's condition script: counted in Policy.errors",
    ),
    (
        "workloads/webservice.py::HostHttpService.dispatch",
        "a customer's servlet: answered as a 500 with the error text",
    ),
)
#: A new broad handler needs an entry, and a reason, in one of the two.
BROAD_CATCH_SITES = tuple(site for site, _ in SPEC_RULE_SITES + USER_CODE_SITES)
BROAD = {"Exception", "BaseException"}


def catches_broadly(handler):
    kind = handler.type
    if kind is None:
        return True
    kinds = kind.elts if isinstance(kind, ast.Tuple) else [kind]
    return any(
        (isinstance(k, ast.Name) and k.id in BROAD)
        or (isinstance(k, ast.Attribute) and k.attr in BROAD)
        for k in kinds
    )


def broad_handlers(node, scope=()):
    """``(qualname, line)`` of every broad handler under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from broad_handlers(child, scope + (child.name,))
            continue
        if isinstance(child, ast.ExceptHandler) and catches_broadly(child):
            yield ".".join(scope) or "<module>", child.lineno
        yield from broad_handlers(child, scope)


def test_broad_catch_sites_match_the_allow_list():
    found = sorted(
        ("%s::%s" % (path, qualname), line)
        for path, tree in modules(PACKAGE)
        for qualname, line in broad_handlers(tree)
    )
    allowed = list(BROAD_CATCH_SITES)
    new = []
    for site, line in found:
        if site in allowed:
            allowed.remove(site)
        else:
            new.append("%s (line %d)" % (site, line))
    assert new == [], "broad handlers not in BROAD_CATCH_SITES"
    assert allowed == [], "BROAD_CATCH_SITES entries with no handler left"


@pytest.mark.parametrize(
    "source, expected",
    [
        ("try:\n    pass\nexcept:\n    pass\n", [("<module>", 3)]),
        (
            "class C:\n    def f(self):\n        try:\n            pass\n"
            "        except (ValueError, BaseException):\n            raise\n",
            [("C.f", 5)],
        ),
        (
            "def g():\n    try:\n        pass\n    except builtins.Exception:\n"
            "        pass\n    except OSError:\n        pass\n",
            [("g", 4)],
        ),
    ],
)
def test_broad_handlers_are_found_with_their_qualname(source, expected):
    assert list(broad_handlers(ast.parse(source))) == expected
