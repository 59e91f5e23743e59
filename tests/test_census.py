"""The function census: the profile hook sees calls in child processes,
functions are keyed the way code objects are, and the report keeps only
the non-dunder functions tier 1 reaches and production does not."""

import os

from benchmarks.ledger.census import PACKAGE, called, functions, only_tests, render
from repro.osgi.version import Version, VersionRange

VERSION = os.path.join(PACKAGE, "osgi", "version.py")
PARSE = Version.parse.__func__.__code__.co_firstlineno
INCLUDES = VersionRange.includes.__code__.co_firstlineno


def test_functions_are_keyed_by_their_first_decorator_line():
    table = functions()
    # ``Version.parse`` is a classmethod: its code object starts at the
    # decorator line, and so does its key.
    assert table[(VERSION, PARSE)][0] == "Version.parse"
    assert table[(VERSION, INCLUDES)][0] == "VersionRange.includes"
    assert (VERSION, PARSE + 1) not in table


def test_hook_records_what_a_child_process_calls(tmp_path):
    seen = called(
        [["-c", "from repro.osgi.version import Version; Version.parse('1.2')"]],
        str(tmp_path),
    )
    assert (VERSION, PARSE) in seen
    assert (VERSION, INCLUDES) not in seen
    assert all(path.startswith(PACKAGE) for path, _ in seen)


def test_report_keeps_test_only_non_dunder_functions():
    table = {
        ("/x/src/repro/a.py", 1): ("f", 3),
        ("/x/src/repro/a.py", 5): ("C.__init__", 2),
        ("/x/src/repro/a.py", 8): ("C.g", 4),
        ("/x/src/repro/b.py", 1): ("h", 6),
    }
    tests = set(table)
    production = {("/x/src/repro/a.py", 1)}
    report = only_tests(table, production, tests)
    assert [rows for rows in report.values()] == [[(8, "C.g", 4)], [(1, "h", 6)]]
    assert render(report).splitlines()[-1] == "test-only: 2 functions, 10 lines in 2 files"
