"""One entry point over both analysis tiers: ``analyze_paths``.

Tier 1 is the per-file AST linter (:mod:`repro.analysis.determinism`,
rules DET001–DET007) — syntactic, no cross-file knowledge. Tier 2 is the
whole-program pass: the call/module graph (:mod:`repro.analysis.
callgraph`) feeding the interprocedural taint rules (DET1xx,
:mod:`repro.analysis.taintrules`) and the lane-safety escape analyzer
(LANE0xx, :mod:`repro.analysis.lanes`).

Suppression semantics are uniform: a ``# repro: allow[...]`` on the
*anchor line* of a deep finding (its sink for taint, its definition site
for LANE) silences it exactly like a per-file finding, and the
suppression-free zones void directives for deep findings too.

Each file is parsed once per run and the tree is handed to both tiers.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.callgraph import Program, build_program
from repro.analysis.determinism import (
    LintResult,
    _in_suppression_free_zone,
    collect_python_files,
    lint_source,
)
from repro.analysis.diagnostics import Diagnostic, sort_diagnostics
from repro.analysis.lanes import LANE_RULES, run_lane_rules
from repro.analysis.suppressions import Suppressions, scan_suppressions
from repro.analysis.taintrules import TAINT_RULES, run_taint_rules

__all__ = ["analyze_paths", "deep_rule_codes"]


def deep_rule_codes() -> Set[str]:
    """Codes only the whole-program tier can produce."""
    return set(TAINT_RULES) | set(LANE_RULES)


def _rel_label(path: str, root: Optional[str], base: Optional[str]) -> str:
    rel = os.path.relpath(path, root) if root else path
    if rel.startswith("..") and base:
        # Outside the root (e.g. linting /tmp/... from the repo): label
        # relative to the argument's parent instead, so files still form
        # a coherent module tree for cross-file name resolution.
        rel = os.path.relpath(path, base)
    if rel.startswith(".."):
        rel = path
    return rel.replace(os.sep, "/")


def analyze_paths(
    paths: Iterable[str],
    root: Optional[str] = None,
    select: Optional[Iterable[str]] = None,
    deep: bool = True,
) -> LintResult:
    """Run both analysis tiers over every ``.py`` under ``paths``.

    Returns a :class:`~repro.analysis.determinism.LintResult` whose
    diagnostics merge the per-file rules with (when ``deep``) the
    DET1xx/LANE0xx whole-program findings, in stable order.
    """
    selected = {c.upper() for c in select} if select is not None else None
    result = LintResult()
    entries: List[Tuple[str, str, ast.Module]] = []
    suppressions_by_path: Dict[str, Suppressions] = {}
    labelled: List[Tuple[str, str]] = []
    seen_files: Set[str] = set()
    for arg in paths:
        base = os.path.dirname(os.path.abspath(arg))
        for path in collect_python_files([arg]):
            absolute = os.path.abspath(path)
            if absolute in seen_files:
                continue
            seen_files.add(absolute)
            labelled.append((_rel_label(path, root, base), path))
    labelled.sort()
    for rel, path in labelled:
        result.files.append(rel)
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        tree: Optional[ast.Module] = None
        try:
            tree = ast.parse(source)
        except SyntaxError:
            pass  # lint_source reports DET000 on its own parse attempt
        result.diagnostics.extend(lint_source(source, rel, select=select, tree=tree))
        if tree is not None:
            entries.append((rel, source, tree))
            suppressions_by_path[rel] = scan_suppressions(source)
    deep_selected = (
        selected is None or bool(selected & deep_rule_codes())
    )
    if deep and deep_selected and entries:
        program = build_program(entries)
        result.program = program
        deep_diags: List[Diagnostic] = []
        if selected is None or selected & set(TAINT_RULES):
            deep_diags.extend(run_taint_rules(program))
        if selected is None or selected & set(LANE_RULES):
            deep_diags.extend(run_lane_rules(program))
        for diagnostic in deep_diags:
            if selected is not None and diagnostic.code not in selected:
                continue
            suppressions = suppressions_by_path.get(diagnostic.source)
            if (
                suppressions is not None
                and not _in_suppression_free_zone(diagnostic.source)
                and suppressions.is_suppressed(diagnostic.code, diagnostic.line)
            ):
                continue
            result.diagnostics.append(diagnostic)
    result.diagnostics = sort_diagnostics(result.diagnostics)
    return result
