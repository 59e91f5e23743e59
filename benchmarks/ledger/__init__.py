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
differ, so the check reports a version mismatch.

``chaos_seeds.json``, the red-seed ledger, is the same kind of record
for correctness: per fleet size and seed, the sorted names of the
invariant and conformance checks one chaos episode violated (empty for
a green seed). A seed that turns red, or green, fails the check until
it is re-recorded and the change is declared in CHANGES.md. Its check
runs on any Python: the version it was recorded with is kept but not
compared::

    python -m benchmarks.ledger --chaos 3 8 16        # check (every push)
    python -m benchmarks.ledger --chaos 3 --record    # re-record 3 nodes

A sweep prints each fleet's wall time to stderr.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Any, Dict, List

LEDGER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "calls_smoke.json")
CHAOS_LEDGER = os.path.join(os.path.dirname(LEDGER), "chaos_seeds.json")

#: Fleet size -> the seeds the red-seed ledger sweeps (1 to N).
CHAOS_SEEDS = {3: 60, 8: 60, 16: 40}

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


def chaos_verdicts(nodes: int, seed: int) -> List[str]:
    """The sorted names of the invariant and conformance checks one chaos
    episode violates: a fleet of ``nodes`` nodes with six customers and
    three warm standbys, every fault kind, conformance on, a 30 s
    episode and a 10 s settle."""
    from benchmarks.suite.workloads import FleetScale, _fleet_scenario
    from repro.faults import ChaosCampaign

    result = ChaosCampaign(
        scenario_factory=_fleet_scenario(FleetScale(nodes, 6, 3, 1, 30.0, 10.0), []),
        seed=seed,
        episodes=1,
        episode_duration=30,
        settle=10,
        kinds=None,
        conformance=True,
    ).run()
    return sorted(
        {v.invariant for v in result.violations}
        | {v.checker for v in result.conformance_violations}
    )


def chaos_ledger(sizes: List[int]) -> Dict[str, Any]:
    """The red-seed ledger's fleets of ``sizes`` nodes, every seed swept.

    Each fleet's sweep prints its wall time to stderr, the budget a wider
    sweep spends; the ledger itself stays wall-clock free."""
    fleets = {}
    for nodes in sorted(sizes):
        started = time.perf_counter()
        seeds = range(1, CHAOS_SEEDS[nodes] + 1)
        fleets["fleet_%d" % nodes] = {
            "verdicts": {"%02d" % seed: chaos_verdicts(nodes, seed) for seed in seeds}
        }
        print(
            "fleet_%d: %d seeds in %.1f s wall"
            % (nodes, len(seeds), time.perf_counter() - started),
            file=sys.stderr,
        )
    return {"python": "%d.%d" % sys.version_info[:2], "workloads": fleets}


def differences(recorded: Dict[str, Any], measured: Dict[str, Any]) -> List[str]:
    """One line per (workload, field, or key of a column such as a layer,
    a counter or a seed) that does not match."""
    lines = []
    # Call counts depend on the standard library the Python ships; chaos
    # verdicts were measured equal under 3.11 and 3.12.
    counts_calls = any(
        "calls_in" in row
        for ledger in (recorded, measured)
        for row in ledger["workloads"].values()
    )
    if counts_calls and recorded["python"] != measured["python"]:
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
        # calls_in and counters here, verdicts in the red-seed ledger.
        columns = {k for row in (old, new) for k, v in row.items() if isinstance(v, dict)}
        for column in sorted(columns):
            was, now = old.get(column, {}), new.get(column, {})
            for name in sorted(set(was) | set(now)):
                before, after = was.get(name), now.get(name)
                if before != after:
                    lines.append(
                        "%s %s %s: ledger %s, run %s"
                        % (workload, name, column, before, after)
                    )
    return lines
