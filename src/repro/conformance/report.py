"""Run checkers over a history; verdicts.

Two layers on top of the recorder:

* :func:`check_history` — run the virtual-synchrony axioms plus the
  linearizability checker over one recorded history.
* :func:`campaign_verdict` / :func:`verdict_json` — the deterministic
  JSON document ``python -m repro conform`` emits and CI diffs byte-for-
  byte across same-seed runs.

Replaying an episode with recording on is
:func:`repro.faults.campaign.replay_and_check`.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Tuple

from repro.conformance.axioms import AXIOMS, ConformanceViolation, run_axioms
from repro.conformance.history import History
from repro.conformance.linearizability import check_linearizability
from repro.conformance.rollout_checks import (
    check_rollout_no_dropped_request,
    check_rollout_version_monotonic,
)

#: Every checker, in reporting order.
CHECKER_NAMES: Tuple[str, ...] = tuple(AXIOMS) + (
    "linearizability",
    "rollout-no-dropped-request",
    "rollout-version-monotonic",
)


def check_history(history: History) -> List[ConformanceViolation]:
    """Axioms + linearizability + rollout checks (no-ops without rollouts)."""
    violations = run_axioms(history)
    violations.extend(check_linearizability(history))
    violations.extend(check_rollout_no_dropped_request(history))
    violations.extend(check_rollout_version_monotonic(history))
    return violations


# ----------------------------------------------------------------------
# Verdict documents
# ----------------------------------------------------------------------
def campaign_verdict(result: Any, scenario: str = "default") -> Dict[str, Any]:
    """Deterministic verdict dict for a conformance-enabled campaign.

    ``result`` is a :class:`repro.faults.campaign.CampaignResult` whose
    episodes were run with ``conformance=True``.
    """
    episodes = []
    for episode in result.episodes:
        history = getattr(episode, "history", None)
        episodes.append(
            {
                "index": episode.index,
                "seed": episode.seed,
                "verdict": episode.verdict.value,
                "history_digest": episode.history_digest,
                "events": 0 if history is None else len(history),
                "ops": 0
                if history is None
                else len(history.of_kind("op_invoke")),
                "invariant_violations": [
                    str(v) for v in episode.violations
                ],
                "conformance_violations": [
                    v.to_dict() for v in episode.conformance
                ],
            }
        )
    document = {
        "tool": "repro.conformance",
        "version": 1,
        "scenario": scenario,
        "seed": result.seed,
        "checkers": list(CHECKER_NAMES),
        "episodes": episodes,
        "campaign_trace_digest": result.trace_digest(),
        "ok": all(e["verdict"] == "ok" for e in episodes),
    }
    document["digest"] = hashlib.sha256(
        json.dumps(document, sort_keys=True, separators=(",", ":")).encode(
            "utf-8"
        )
    ).hexdigest()
    return document


def verdict_json(document: Dict[str, Any]) -> str:
    """Canonical rendering: byte-identical for identical documents."""
    return json.dumps(document, sort_keys=True, indent=2) + "\n"
