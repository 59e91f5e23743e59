"""Function census: which ``src/repro`` functions only the tests reach.

Runs the production surfaces (every CLI command, the examples, the paper
benches, ``benchmarks.suite run --smoke``, the suite micro and
self-tests, ``benchmarks.ledger --chaos 3``) and then tier 1, each under
a ``sys.setprofile`` hook that ``census_site/sitecustomize.py`` installs
in every Python process started with it first on ``PYTHONPATH`` (the
suite's child processes included); test suites run one file per process.
A function counts as called when its code object runs at least once. The
report lists, per file, the functions tier 1 calls and no production
surface does, with their line spans (decorators included), and the
totals::

    python -m benchmarks.ledger.census

The census informs; it gates nothing. Its numbers are exact for one
Python version. A process that installs a profiler of its own
(``sys.setprofile``, ``cProfile``) replaces the hook; the census names
every command where that happened, because calls after it went unseen.
"""

from __future__ import annotations

import argparse
import ast
import glob
import json
import os
import subprocess
import sys
import tempfile
from typing import Dict, Iterable, List, Sequence, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.realpath(os.path.join(SRC, "repro"))
SITE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "census_site")

#: (file, first line) of one function: the line of its first decorator,
#: or of ``def`` when it has none (a code object's ``co_firstlineno``).
Key = Tuple[str, int]


def production_commands(out: str) -> List[List[str]]:
    """Argument lists (after ``python``) of every production surface;
    artifacts go under ``out``."""
    cli = [
        ["demo", "--nodes", "3", "--seed", "5"],
        ["chaos", "--seed", "42", "--episodes", "2", "--duration", "20"],
        ["lint"],
    ]
    for scenario in ("crash", "default", "loss", "partition"):
        cli.append(
            ["conform", "--seed", "1", "--episodes", "2", "--scenario", scenario,
             "--out", os.path.join(out, "conform-%s.json" % scenario)]
        )
    for scenario in (
        "bad-release", "clean", "crash-canary", "crash-during-rollback",
        "crash-wave", "deadline", "partition",
    ):
        cli.append(
            ["rollout", "--seed", "1", "--scenario", scenario,
             "--out", os.path.join(out, "rollout-%s.json" % scenario)]
        )
    for scenario in ("failover", "chaos"):
        cli.append(
            ["trace", "--seed", "42", "--scenario", scenario,
             "--out", os.path.join(out, "trace-%s.json" % scenario),
             "--spans-out", os.path.join(out, "spans-%s.json" % scenario)]
        )
    commands = [["-m", "repro"] + args for args in cli]
    commands += [[path] for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))]
    commands += pytest_per_file("benchmarks/test_*.py")
    commands += [
        ["-m", "benchmarks.suite", "run", "--smoke", "--out", os.path.join(out, "smoke.json")],
        ["-m", "benchmarks.suite", "micro", "--out", os.path.join(out, "micro.json")],
    ]
    commands += pytest_per_file("benchmarks/suite/tests/test_*.py")
    commands.append(["-m", "benchmarks.ledger", "--chaos", "3"])
    return commands


def pytest_per_file(pattern: str) -> List[List[str]]:
    """One pytest process per test file: a test that installs its own
    profiler (``tests/perf`` counts calls with ``sys.setprofile``, the
    suite's ``trace`` runs ``cProfile``) then blinds the hook only for the
    rest of its file."""
    paths = sorted(glob.glob(os.path.join(ROOT, pattern), recursive=True))
    return [["-m", "pytest", "-q", "-p", "no:cacheprovider", path] for path in paths]


def tier1_commands() -> List[List[str]]:
    """Tier 1, as CI runs it, one file at a time."""
    return pytest_per_file("tests/**/test_*.py")


def called(commands: Sequence[List[str]], workdir: str) -> Set[Key]:
    """Every ``src/repro`` function any process of ``commands`` called."""
    dumps = tempfile.mkdtemp(dir=workdir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SITE, SRC, ROOT])
    env["REPRO_CENSUS_DIR"] = dumps
    env["REPRO_CENSUS_ROOT"] = PACKAGE + os.sep
    seen: Set[Key] = set()
    for args in commands:
        done = subprocess.run(
            [sys.executable] + args,
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        note = ""
        for path in glob.glob(os.path.join(dumps, "*.json")):
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
            os.remove(path)
            seen.update((name, line) for name, line in document["rows"])
            if document["replaced"]:
                note = " (hook replaced by another profiler: later calls unseen)"
        print(
            "  exit %d: python %s%s" % (done.returncode, " ".join(args), note),
            file=sys.stderr,
        )
    return seen


def functions(package: str = PACKAGE) -> Dict[Key, Tuple[str, int]]:
    """Every function under ``package``: key -> (qualified name, lines)."""
    table: Dict[Key, Tuple[str, int]] = {}
    for path in sorted(glob.glob(os.path.join(package, "**", "*.py"), recursive=True)):
        with open(path, "r", encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)
        _collect(tree, os.path.realpath(path), "", table)
    return table


def _collect(node: ast.AST, path: str, prefix: str, table: Dict[Key, Tuple[str, int]]) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            name = prefix + child.name
            table[(path, first)] = (name, child.end_lineno - first + 1)
            _collect(child, path, name + ".", table)
        elif isinstance(child, ast.ClassDef):
            _collect(child, path, prefix + child.name + ".", table)
        else:
            _collect(child, path, prefix, table)


def only_tests(
    table: Dict[Key, Tuple[str, int]], production: Iterable[Key], tests: Iterable[Key]
) -> Dict[str, List[Tuple[int, str, int]]]:
    """Per file (relative to the repo): (first line, name, lines) of the
    non-dunder functions ``tests`` reach and ``production`` does not."""
    reached = set(tests) - set(production)
    out: Dict[str, List[Tuple[int, str, int]]] = {}
    for key in sorted(reached & set(table)):
        name, lines = table[key]
        leaf = name.rsplit(".", 1)[-1]
        if leaf.startswith("__") and leaf.endswith("__"):
            continue
        out.setdefault(os.path.relpath(key[0], ROOT), []).append((key[1], name, lines))
    return out


def render(report: Dict[str, List[Tuple[int, str, int]]]) -> str:
    lines = []
    for path in sorted(report):
        rows = report[path]
        lines.append(
            "%s: %d functions, %d lines" % (path, len(rows), sum(r[2] for r in rows))
        )
        lines.extend("  %5d  %4d  %s" % (first, count, name) for first, name, count in rows)
    total = [row for rows in report.values() for row in rows]
    lines.append(
        "test-only: %d functions, %d lines in %d files"
        % (len(total), sum(r[2] for r in total), len(report))
    )
    return "\n".join(lines)


def main(argv: Sequence[str] = ()) -> int:
    argparse.ArgumentParser(prog="python -m benchmarks.ledger.census").parse_args(
        list(argv) or None
    )
    with tempfile.TemporaryDirectory(prefix="census-") as workdir:
        print("production surfaces:", file=sys.stderr)
        production = called(production_commands(workdir), workdir)
        print("tier 1:", file=sys.stderr)
        tests = called(tier1_commands(), workdir)
    report = only_tests(functions(), production, tests)
    print(render(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
