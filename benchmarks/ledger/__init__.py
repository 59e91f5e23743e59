"""The layer call ledger: each workload's ``digest``, ``attempted`` and
``failed``, its ``calls_in`` per layer and its public counters from
``python -m benchmarks.suite trace --smoke``, committed as
``calls_smoke.json`` beside this file.

Host seconds on a shared runner mean nothing, but a layer's ``calls_in``
is exact for a seed and a Python version, so an accidental extra Python
call per request or per message shows up here by layer name. The digest
covers the simulated side of the unit (its report, sim metrics and
counters), so a change that claims to leave the simulation byte-exact is
held to it by workload name. A change that moves a count or a digest on
purpose re-records the ledger and declares the movement in CHANGES.md, as
a re-pinned digest is declared.

::

    python -m benchmarks.suite trace --smoke --out trace-smoke.json
    python -m benchmarks.ledger trace-smoke.json            # check
    python -m benchmarks.ledger trace-smoke.json --record   # re-record

The committed ledger is recorded with the Python the CI ``suite`` job
pins (3.12); another version calls other standard-library code and may
differ.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List

LEDGER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "calls_smoke.json")

#: What the ledger keeps of the unit itself, besides its two columns.
RUN_FIELDS = ("digest", "attempted", "failed")


def ledger_of(trace: Dict[str, Any]) -> Dict[str, Any]:
    """The exact part of a ``trace`` document, per workload."""
    return {
        # major.minor of the Python that ran the trace
        "python": ".".join(trace["provenance"]["python"].split(".")[:2]),
        "workloads": {
            name: {
                **{field: report[field] for field in RUN_FIELDS},
                "calls_in": {
                    layer: row["calls_in"]
                    for layer, row in sorted(report["layers"].items())
                },
                "counters": dict(sorted(report["counters"].items())),
            }
            for name, report in sorted(trace["workloads"].items())
        },
    }


def differences(recorded: Dict[str, Any], measured: Dict[str, Any]) -> List[str]:
    """One line per (workload, layer or counter) that does not match."""
    lines = []
    if recorded["python"] != measured["python"]:
        lines.append(
            "recorded with Python %s, measured with %s"
            % (recorded["python"], measured["python"])
        )
    workloads = sorted(set(recorded["workloads"]) | set(measured["workloads"]))
    for workload in workloads:
        old = recorded["workloads"].get(workload)
        new = measured["workloads"].get(workload)
        if old is None or new is None:
            where = "run" if old is None else "ledger"
            lines.append("%s: only in the %s" % (workload, where))
            continue
        for field in RUN_FIELDS:
            if old.get(field) != new.get(field):
                lines.append(
                    "%s %s: ledger %s, run %s"
                    % (workload, field, old.get(field), new.get(field))
                )
        for column in ("calls_in", "counters"):
            for name in sorted(set(old[column]) | set(new[column])):
                before, after = old[column].get(name), new[column].get(name)
                if before != after:
                    lines.append(
                        "%s %s %s: ledger %s, run %s"
                        % (workload, name, column, before, after)
                    )
    return lines
