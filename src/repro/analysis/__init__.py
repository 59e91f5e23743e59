"""Static analysis for the dependable platform: ``repro.analysis``.

Two engines share one diagnostic model (:class:`Diagnostic`):

* the **determinism linter** (:mod:`repro.analysis.determinism`) keeps
  the simulation replayable — no wall clocks, no global RNG, no
  hash-order iteration feeding the event loop (rules ``DET001``..);
* the **static bundle verifier** (:mod:`repro.analysis.bundles`) checks
  bundle metadata before install — unresolvable imports, impossible
  version ranges, activator class-space violations, lifecycle leaks
  (rules ``VER001``..).

On top of the per-file linter sits the **whole-program tier**: a call/
module graph (:mod:`repro.analysis.callgraph`), interprocedural taint
rules tracking nondeterminism to scheduling/network/digest sinks
(``DET101``.., :mod:`repro.analysis.taintrules`) and the lane-safety
escape analyzer flagging shared mutable state that would break parallel
event lanes (``LANE001``.., :mod:`repro.analysis.lanes`). Use
:func:`analyze_paths` to run everything with ratchet-baseline support;
:func:`sarif_report` exports findings as SARIF 2.1.0.

Surfaces: ``python -m repro lint`` (CI), ``Framework.install(...,
verify=True)`` (install time) and chaos-campaign deployment verdicts
(:func:`repro.faults.campaign.verify_deployment`). docs/ANALYSIS.md has
the full rule catalogue and the JSON schema.
"""

from repro.analysis.baseline import (
    default_baseline_path,
    fingerprint_diagnostics,
    load_baseline,
    split_by_baseline,
    write_baseline,
)
from repro.analysis.bundles import VER_RULES, verify_bundles, verify_install
from repro.analysis.callgraph import Program, build_program
from repro.analysis.determinism import (
    DET_RULES,
    LintResult,
    lint_paths,
    lint_source,
)
from repro.analysis.diagnostics import (
    Diagnostic,
    Severity,
    severity_counts,
    sort_diagnostics,
)
from repro.analysis.engine import analyze_paths, deep_rule_codes
from repro.analysis.lanes import LANE_RULES, run_lane_rules
from repro.analysis.sarif import sarif_report
from repro.analysis.suppressions import Suppressions, scan_suppressions
from repro.analysis.taintrules import TAINT_RULES, run_taint_rules

__all__ = [
    "DET_RULES",
    "Diagnostic",
    "LANE_RULES",
    "LintResult",
    "Program",
    "Severity",
    "Suppressions",
    "TAINT_RULES",
    "VER_RULES",
    "analyze_paths",
    "build_program",
    "deep_rule_codes",
    "default_baseline_path",
    "fingerprint_diagnostics",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "run_lane_rules",
    "run_taint_rules",
    "sarif_report",
    "scan_suppressions",
    "severity_counts",
    "sort_diagnostics",
    "split_by_baseline",
    "verify_bundles",
    "verify_install",
    "write_baseline",
]
