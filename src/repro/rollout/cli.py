"""``python -m repro rollout`` — one staged rollout, judged end to end.

Builds the canonical fleet scenario, starts the rollout engine, replays
a pinned fault schedule against it (crash the canary mid-soak, crash a
wave member mid-deploy, partition the canary from the rest — or no
faults at all), then emits a deterministic JSON verdict combining the
engine's report, the invariant results, and every conformance checker —
including the rollout-specific no-dropped-request and
version-monotonicity checks. Two runs with the same seed and scenario
produce byte-identical verdicts; CI runs it twice and ``cmp``'s them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import Callable, Dict

from repro import __version__
from repro.faults.schedule import FaultSchedule

#: Scenario name -> pinned fault schedule builder. Times are aimed at
#: the engine timeline (start t=2, canary soak ~2.4-5.4, wave ~5.4-6.1).
SCENARIOS: Dict[str, Callable[[], FaultSchedule]] = {
    "clean": lambda: FaultSchedule(),
    "bad-release": lambda: FaultSchedule(),
    "crash-canary": lambda: FaultSchedule()
    .crash(4.5, "n1")
    .repair(14.0, "n1"),
    "crash-wave": lambda: FaultSchedule()
    .crash(5.6, "n2")
    .repair(14.0, "n2"),
    "partition": lambda: FaultSchedule()
    .partition(3.0, ["n1"], ["n2", "n3", "n4"])
    .heal(9.0),
}


def rollout_main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = argparse.ArgumentParser(
        prog="python -m repro rollout",
        description="Staged canary rollout with SLA gates and automatic "
        "rollback, under a pinned fault scenario; emits a deterministic "
        "JSON verdict",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--scenario",
        choices=sorted(SCENARIOS),
        default="clean",
        help="pinned fault pattern run against the rollout",
    )
    parser.add_argument(
        "--duration", type=float, default=18.0, help="sim-seconds of rollout"
    )
    parser.add_argument(
        "--settle", type=float, default=12.0, help="quiesce window afterwards"
    )
    parser.add_argument(
        "--out", default=None, help="write the JSON verdict to this path"
    )
    parser.add_argument(
        "--scheduler",
        choices=("global", "laned"),
        default="global",
        help="event-loop scheduler (same seed, same verdict, byte for "
        "byte — see docs/SIM.md)",
    )
    args = parser.parse_args(argv)

    from repro.conformance.recorder import HistoryRecorder
    from repro.conformance.report import CHECKER_NAMES, check_history
    from repro.faults.campaign import replay_schedule
    from repro.rollout.scenario import rollout_scenario
    from repro.telemetry.runtime import Telemetry, attach

    from repro.sim.scheduler import use_scheduler

    schedule = SCENARIOS[args.scenario]()
    with use_scheduler(args.scheduler):
        env = rollout_scenario(
            args.seed, bad_release=args.scenario == "bad-release"
        )
    print(
        "repro %s — rollout scenario=%s seed=%d (%d faults scheduled)"
        % (__version__, args.scenario, args.seed, len(schedule))
    )
    telemetry = Telemetry(env.loop.clock, env.cluster.rng, scenario="rollout")
    recorder = HistoryRecorder(env.loop.clock)
    with attach(env.loop, telemetry=telemetry, recorder=recorder):
        telemetry.open_root("rollout:%s" % args.scenario)
        try:
            trace, violations = replay_schedule(
                env, schedule, duration=args.duration, settle=args.settle
            )
        finally:
            telemetry.close_root()
    history = recorder.history
    conformance = check_history(history)
    engine = env.rollout_engine
    report = engine.report
    rollout_summary = (
        report.summary() if report is not None else {"outcome": "incomplete"}
    )
    requests = env.director.requests
    dropped = [r for r in requests if r.dropped is not None]
    rollout_attributed = [
        v for v in conformance if v.checker == "rollout-no-dropped-request"
    ]
    document = {
        "tool": "repro.rollout",
        "version": 1,
        "scenario": args.scenario,
        "seed": args.seed,
        "checkers": list(CHECKER_NAMES),
        "rollout": rollout_summary,
        "requests": {
            "total": len(requests),
            "completed": sum(1 for r in requests if r.ok),
            "dropped": len(dropped),
            "dropped_in_upgrade_windows": len(rollout_attributed),
        },
        "invariant_violations": [str(v) for v in violations],
        "conformance_violations": [v.to_dict() for v in conformance],
        "history_events": len(history),
        "history_digest": history.digest(),
        "trace_digest": trace.digest(),
    }
    document["ok"] = (
        rollout_summary.get("outcome") in ("completed", "rolled-back")
        and not rollout_summary.get("mixed_version", True)
        and not violations
        and not conformance
    )
    document["digest"] = hashlib.sha256(
        json.dumps(document, sort_keys=True, separators=(",", ":")).encode(
            "utf-8"
        )
    ).hexdigest()
    text = json.dumps(document, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print("verdict written to %s" % args.out)
    print(
        "rollout: %s (%s) — versions %s"
        % (
            rollout_summary.get("outcome"),
            rollout_summary.get("reason", ""),
            rollout_summary.get("final_versions", {}),
        )
    )
    print(
        "requests: %d total, %d dropped (%d inside upgrade windows)"
        % (
            document["requests"]["total"],
            document["requests"]["dropped"],
            document["requests"]["dropped_in_upgrade_windows"],
        )
    )
    for violation in conformance:
        print("  !!", violation)
    for violation in violations:
        print("  !!", violation)
    print("verdict digest:", document["digest"])
    return 0 if document["ok"] else 1
