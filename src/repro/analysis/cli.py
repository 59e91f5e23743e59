"""``python -m repro lint`` — the CI surface of the determinism linter.

Runs the per-file rules (DET000–DET008, :mod:`repro.analysis.
determinism`) over every ``.py`` file under the given paths.

Text output is one block per finding (``path:line: CODE severity:
message`` plus an indented hint); ``--format json`` emits the stable
machine-readable schema documented in docs/ANALYSIS.md (version 3).
Exit codes:

* 0 — no findings (warnings only fail with ``--strict``)
* 1 — at least one non-suppressed error (or any finding with
  ``--strict``)
* 2 — usage error (argparse): unknown rule code, or a path that holds
  no ``.py`` file

With no paths the installed ``repro`` package itself is linted, which is
exactly what the CI ``lint`` job runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.analysis.determinism import DET_RULES, collect_python_files, lint_paths
from repro.analysis.diagnostics import severity_counts


def lint_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="Sim-safety determinism linter: per-file rules "
        "DET000-DET008 (see docs/ANALYSIS.md)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail on any non-suppressed diagnostic, warnings included",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for code in sorted(DET_RULES):
            print("%s  %s" % (code, DET_RULES[code]))
        return 0

    select = None
    if args.select:
        select = {code.strip().upper() for code in args.select.split(",") if code.strip()}
        unknown = sorted(select - set(DET_RULES))
        if unknown:
            parser.error(
                "unknown rule codes %s for --select (see --list-rules)"
                % ",".join(unknown)
            )

    if args.paths:
        paths = args.paths
        root = os.getcwd()
        for path in paths:
            if not collect_python_files([path]):
                parser.error("no .py file at %s" % path)
    else:
        import repro

        package_dir = os.path.dirname(os.path.abspath(repro.__file__))
        paths = [package_dir]
        root = os.path.dirname(package_dir)

    result = lint_paths(paths, root=root, select=select)
    counts = severity_counts(result.diagnostics)

    if args.format == "json":
        print(
            json.dumps(
                {
                    "version": 3,
                    "tool": "repro.analysis",
                    "strict": args.strict,
                    "files": len(result.files),
                    "counts": counts,
                    "diagnostics": [d.to_dict() for d in result.diagnostics],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for diagnostic in result.diagnostics:
            print(diagnostic.format())
        summary = "%d file(s) scanned: %d error(s), %d warning(s)" % (
            len(result.files),
            counts["error"],
            counts["warning"],
        )
        if not result.diagnostics:
            summary += " — clean"
        print(summary, file=sys.stderr)

    if counts["error"]:
        return 1
    if args.strict and counts["warning"]:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - module smoke entry
    raise SystemExit(lint_main())
