"""The diagnostic model shared by both analysis engines.

The determinism linter (:mod:`repro.analysis.determinism`) and the static
bundle verifier (:mod:`repro.analysis.bundles`) both report through
:class:`Diagnostic` so one CLI, one JSON schema and one suppression
mechanism cover install-time and source-level findings alike. ``source``
is a file path for linter findings and a bundle symbolic name for
verifier findings; ``line`` is 0 when a finding is not anchored to source
text (manifest-level problems).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List


class Severity(enum.Enum):
    """How bad a finding is; errors gate CI and chaos deployment verdicts."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One finding from an analysis engine.

    Parameters
    ----------
    code:
        Stable rule identifier (``DET001`` .. / ``VER001`` ..), the key
        used by suppression comments and ``--select``.
    severity:
        :attr:`Severity.ERROR` findings fail the build / reject the
        install; :attr:`Severity.WARNING` findings fail only ``--strict``.
    source:
        File path (linter) or bundle symbolic name (verifier).
    line:
        1-based source line, or 0 for findings without a text anchor.
    message:
        What is wrong, specific enough to act on.
    hint:
        Optional remediation advice, shown indented under the message.
    """

    code: str
    severity: Severity
    source: str
    line: int
    message: str
    hint: str = ""

    def format(self) -> str:
        """Render as ``source:line: CODE severity: message`` text."""
        location = self.source if self.line <= 0 else "%s:%d" % (self.source, self.line)
        text = "%s: %s %s: %s" % (location, self.code, self.severity.value, self.message)
        if self.hint:
            text += "\n    hint: %s" % self.hint
        return text

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (see docs/ANALYSIS.md for the schema)."""
        return {
            "code": self.code,
            "severity": self.severity.value,
            "source": self.source,
            "line": self.line,
            "message": self.message,
            "hint": self.hint,
        }

    def __str__(self) -> str:
        return self.format()


def sort_diagnostics(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    """Stable presentation order: by source, then line, then code."""
    return sorted(
        diagnostics, key=lambda d: (d.source, d.line, d.code, d.message)
    )


def severity_counts(diagnostics: Iterable[Diagnostic]) -> Dict[str, int]:
    """``{"error": n, "warning": m}`` over ``diagnostics``."""
    counts = {"error": 0, "warning": 0}
    for diagnostic in diagnostics:
        counts[diagnostic.severity.value] += 1
    return counts
