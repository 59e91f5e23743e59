"""``compare A.json B.json``: one row per (end-to-end metric, workload).

``A`` is the base, ``B`` the candidate; every ratio is ``B / A``. Host
metrics get a verdict from the bound in :mod:`.metrics`; a row that
either side's noise guard flagged is ``unresolved`` rather than
``unchanged``. Sim metrics, counters,
``calls_in`` and digests compare by equality.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from .metrics import BY_NAME, END_TO_END


def _host_verdict(metric, base: Dict[str, Any], new: Dict[str, Any]) -> str:
    bound = metric.bound
    if base.get("unresolved") or new.get("unresolved"):
        return "unresolved"
    ratio = new["median"] / base["median"]
    gain = ratio - 1.0 if metric.better == "higher" else 1.0 - ratio
    if gain < -bound:
        return "regressed"
    if gain > bound:
        return "improved"
    return "unchanged"


def _sim_verdict(metric, base: float, new: float) -> str:
    if new == base:
        return "unchanged"
    return "improved" if (new < base) == (metric.better == "lower") else "regressed"


def compare(base: Dict[str, Any], new: Dict[str, Any]) -> Dict[str, Any]:
    """Rows, exact differences and differing digests of two result files."""
    rows: List[Tuple[str, str, float, float, str]] = []
    exact: List[str] = []
    digests: List[str] = []
    shared = [w for w in base.get("workloads", {}) if w in new.get("workloads", {})]
    for workload in shared:
        a, b = base["workloads"][workload], new["workloads"][workload]
        for metric in END_TO_END:
            left = a.get(metric.kind, {}).get(metric.name)
            right = b.get(metric.kind, {}).get(metric.name)
            if left is None or right is None:
                continue
            if metric.kind == "host":
                verdict = _host_verdict(metric, left, right)
                left, right = left["median"], right["median"]
            else:
                verdict = _sim_verdict(metric, left, right)
            rows.append((metric.name, workload, left, right, verdict))
        for name, left in a.get("counters", {}).items():
            right = b.get("counters", {}).get(name)
            if right is not None and right != left:
                exact.append("%s %s: %r -> %r" % (workload, name, left, right))
        for layer, left in a.get("layers", {}).items():
            right = b.get("layers", {}).get(layer)
            if right is not None and right["calls_in"] != left["calls_in"]:
                exact.append(
                    "%s %s.calls_in: %r -> %r"
                    % (workload, layer, left["calls_in"], right["calls_in"])
                )
        if a.get("digest") != b.get("digest"):
            digests.append("%s: %s -> %s" % (workload, a.get("digest"), b.get("digest")))
    return {"rows": rows, "exact": exact, "digests": digests}


def render(outcome: Dict[str, Any]) -> List[str]:
    lines = [
        "%-30s %-16s %14s %14s %8s  %s"
        % ("metric", "workload", "A (base)", "B", "B/A", "verdict")
    ]
    for name, workload, left, right, verdict in outcome["rows"]:
        ratio = "%8.4f" % (right / left) if left else "     n/a"
        lines.append(
            "%-30s %-16s %14.6g %14.6g %s  %s%s"
            % (
                name,
                workload,
                left,
                right,
                ratio,
                verdict,
                "" if BY_NAME[name].kind == "host" else " (exact)",
            )
        )
    lines.append("counters and calls_in that differ: %d" % len(outcome["exact"]))
    lines.extend("  " + line for line in outcome["exact"])
    lines.append("digests that differ: %d" % len(outcome["digests"]))
    lines.extend("  " + line for line in outcome["digests"])
    return lines


def regressed(outcome: Dict[str, Any]) -> bool:
    return any(row[4] == "regressed" for row in outcome["rows"])
