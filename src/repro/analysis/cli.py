"""``python -m repro lint`` — the CI surface of the analysis engine.

Runs both tiers: the per-file determinism linter (DET001–DET007) and the
whole-program pass (interprocedural taint DET101–DET105, lane-safety
LANE001–LANE003) over one file set, then applies the ratchet baseline.

Text output is one block per finding (``path:line: CODE severity:
message`` plus an indented hint); ``--format json`` emits the stable
machine-readable schema documented in docs/ANALYSIS.md (version 2, now
with ``trace``/``fingerprint``/``baselined`` per diagnostic) and
``--format sarif`` emits SARIF 2.1.0 for code-scanning UIs. Exit codes:

* 0 — no *new* findings (baselined findings never fail; warnings only
  fail with ``--strict``)
* 1 — at least one new non-suppressed error (or any new finding with
  ``--strict``)
* 2 — usage error (argparse)

With no paths the installed ``repro`` package itself is linted, which is
exactly what the CI ``lint`` job runs: the tree plus the committed
ratchet baseline (``benchmarks/analysis/BASELINE_lint.json``, found
relative to the working directory) is its own contract. ``--explain
DET101`` renders each DET101 finding's full source→sink taint path;
``--update-baseline`` re-records the baseline after a justified change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Set

from repro.analysis.baseline import (
    default_baseline_path,
    fingerprint_diagnostics,
    load_baseline,
    split_by_baseline,
    write_baseline,
)
from repro.analysis.determinism import DET_RULES, LintResult
from repro.analysis.diagnostics import Diagnostic, severity_counts
from repro.analysis.engine import analyze_paths
from repro.analysis.lanes import LANE_RULES
from repro.analysis.sarif import sarif_report
from repro.analysis.taintrules import TAINT_RULES


def _all_rules() -> Dict[str, str]:
    catalogue = dict(DET_RULES)
    catalogue.update(TAINT_RULES)
    catalogue.update(LANE_RULES)
    return catalogue


def _parse_codes(parser: argparse.ArgumentParser, text: str, flag: str) -> Set[str]:
    codes = {code.strip().upper() for code in text.split(",") if code.strip()}
    unknown = sorted(codes - set(_all_rules()))
    if unknown:
        parser.error(
            "unknown rule codes %s for %s (see --list-rules)"
            % (",".join(unknown), flag)
        )
    return codes


def lint_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="Sim-safety analysis engine: per-file determinism rules "
        "DET001-DET007, interprocedural taint rules DET101-DET105, "
        "lane-safety rules LANE001-LANE003 (see docs/ANALYSIS.md)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail on any new non-suppressed diagnostic, warnings included",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--explain",
        default=None,
        metavar="CODES",
        help="render the full source→sink step chain for findings with "
        "these codes (text format; includes baselined findings)",
    )
    parser.add_argument(
        "--no-deep",
        action="store_true",
        help="skip the whole-program tier (call graph, DET1xx, LANE rules)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="ratchet baseline of known findings (default: %s when it "
        "exists under the working directory)"
        % os.path.join("benchmarks", "analysis", "BASELINE_lint.json"),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline; every finding counts",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="re-record the baseline file from this run's findings and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    args = parser.parse_args(argv)

    rules = _all_rules()
    if args.list_rules:
        for code in sorted(rules):
            print("%s  %s" % (code, rules[code]))
        return 0

    select = _parse_codes(parser, args.select, "--select") if args.select else None
    explain = (
        _parse_codes(parser, args.explain, "--explain") if args.explain else set()
    )

    if args.paths:
        paths = args.paths
        root = os.getcwd()
    else:
        import repro

        package_dir = os.path.dirname(os.path.abspath(repro.__file__))
        paths = [package_dir]
        root = os.path.dirname(package_dir)

    result = analyze_paths(paths, root=root, select=select, deep=not args.no_deep)

    baseline_path: Optional[str] = None
    if not args.no_baseline:
        baseline_path = args.baseline or default_baseline_path()

    if args.update_baseline:
        target = baseline_path or args.baseline or os.path.join(
            "benchmarks", "analysis", "BASELINE_lint.json"
        )
        document = write_baseline(target, result.diagnostics)
        print(
            "recorded %d finding(s) into %s" % (document["count"], target),
            file=sys.stderr,
        )
        return 0

    baselined_fps: Set[str] = set()
    if baseline_path is not None:
        try:
            baselined_fps = load_baseline(baseline_path)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            parser.error("cannot read baseline %s: %s" % (baseline_path, exc))
    new, baselined = split_by_baseline(result.diagnostics, baselined_fps)
    counts = severity_counts(new)

    if args.format == "json":
        fingerprints = {
            id(d): fp for d, fp in fingerprint_diagnostics(result.diagnostics)
        }
        known = {id(d) for d in baselined}
        payload = []
        for diagnostic in result.diagnostics:
            entry = diagnostic.to_dict()
            entry["fingerprint"] = fingerprints[id(diagnostic)]
            entry["baselined"] = id(diagnostic) in known
            payload.append(entry)
        print(
            json.dumps(
                {
                    "version": 2,
                    "tool": "repro.analysis",
                    "strict": args.strict,
                    "files": len(result.files),
                    "baseline": baseline_path,
                    "baselined": len(baselined),
                    "counts": counts,
                    "diagnostics": payload,
                },
                indent=2,
                sort_keys=True,
            )
        )
    elif args.format == "sarif":
        print(
            json.dumps(
                sarif_report(result.diagnostics, baselined_fps),
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for diagnostic in new:
            print(diagnostic.format())
            if diagnostic.code in explain:
                _print_trace(diagnostic)
        if explain:
            for diagnostic in baselined:
                if diagnostic.code in explain:
                    print("%s  [baselined]" % diagnostic.format())
                    _print_trace(diagnostic)
        summary = "%d file(s) scanned: %d error(s), %d warning(s)" % (
            len(result.files),
            counts["error"],
            counts["warning"],
        )
        if baselined:
            summary += ", %d baselined finding(s) not counted (%s)" % (
                len(baselined),
                baseline_path,
            )
        if not new:
            summary += " — clean"
        print(summary, file=sys.stderr)

    if counts["error"]:
        return 1
    if args.strict and counts["warning"]:
        return 1
    return 0


def _print_trace(diagnostic: Diagnostic) -> None:
    if not diagnostic.trace:
        print("    (no recorded step chain for this finding)")
        return
    print("    path:")
    for index, step in enumerate(diagnostic.trace):
        marker = "source" if index == 0 else (
            "sink" if index == len(diagnostic.trace) - 1 else "step %d" % index
        )
        print("      [%s] %s" % (marker, step))


if __name__ == "__main__":  # pragma: no cover - module smoke entry
    raise SystemExit(lint_main())
