"""Static analysis for the dependable platform: ``repro.analysis``.

Two engines share one diagnostic model (:class:`Diagnostic`):

* the **determinism linter** (:mod:`repro.analysis.determinism`) keeps
  the simulation replayable — no wall clocks, no global RNG or OS
  entropy, no hash-order iteration feeding the event loop, no
  environment reads (rules ``DET001``..); one pass per file, each
  source flagged where it is read;
* the **static bundle verifier** (:mod:`repro.analysis.bundles`) checks
  bundle metadata before install — unresolvable imports, impossible
  version ranges, activator class-space violations, lifecycle leaks
  (rules ``VER001``..).

Surfaces: ``python -m repro lint`` (CI), ``Framework.install(...,
verify=True)`` (install time) and chaos-campaign deployment verdicts
(:func:`repro.faults.campaign.verify_deployment`). docs/ANALYSIS.md has
the full rule catalogue and the JSON schema.
"""

from repro.analysis.bundles import VER_RULES, verify_bundles, verify_install
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
from repro.analysis.suppressions import Suppressions, scan_suppressions

__all__ = [
    "DET_RULES",
    "Diagnostic",
    "LintResult",
    "Severity",
    "Suppressions",
    "VER_RULES",
    "lint_paths",
    "lint_source",
    "scan_suppressions",
    "severity_counts",
    "sort_diagnostics",
    "verify_bundles",
    "verify_install",
]
