"""``python -m repro`` — the one command-line front end.

Subcommands (``demo`` when none is given):

* ``demo`` — builds a 3-node cluster, admits two customers (one with a
  warm standby), injects a crash, and prints the dependability story.
* ``chaos`` — a seeded chaos campaign of random fault schedules with
  invariant checking (see docs/FAULTS.md); prints a reproduction snippet
  for any violation.
* ``conform`` — a conformance-checked chaos campaign (virtual-synchrony
  axioms + registry linearizability) with a deterministic JSON verdict
  (see docs/CONFORMANCE.md).
* ``rollout`` — one staged canary rollout under a pinned fault scenario,
  with a deterministic JSON verdict (see docs/ROLLOUT.md).
* ``trace`` — a telemetry-enabled scenario exported as a Chrome
  ``trace_event`` file (see docs/TELEMETRY.md).
* ``lint`` — the per-file determinism linter (DET000-DET008) over the
  package or the given paths (see docs/ANALYSIS.md).

Two runs with the same arguments print and write the same bytes; CI
``cmp``'s them. Exit codes, for every subcommand:

* 0 — ok
* 1 — invariant or conformance violations, lint findings, or a failed
  verdict
* 2 — usage error (argparse, ``--episodes 0``, an unknown scenario,
  fault kind or rule code)
* 3 — an ``--out`` / ``--spans-out`` path cannot be written; checked
  before anything runs, so no simulation is wasted
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, List, NamedTuple, Optional, Sequence

from repro import __version__
from repro.analysis.determinism import DET_RULES, collect_python_files, lint_paths
from repro.analysis.diagnostics import severity_counts
from repro.conformance.recorder import HistoryRecorder
from repro.conformance.report import SCENARIOS as CONFORM_SCENARIOS
from repro.conformance.report import campaign_verdict, check_history, verdict_json
from repro.core import DependableEnvironment
from repro.faults import FAULT_KINDS, ChaosCampaign
from repro.faults.campaign import replay_schedule
from repro.rollout.scenario import SCENARIO_OPTIONS
from repro.rollout.scenario import SCENARIOS as ROLLOUT_SCENARIOS
from repro.rollout.scenario import rollout_scenario, rollout_verdict
from repro.sla import ServiceLevelAgreement
from repro.telemetry.export import dump_chrome_json, dump_spans_json
from repro.telemetry.runtime import Telemetry, attach
from repro.telemetry.scenarios import (
    run_chaos_scenario,
    run_failover_scenario,
    summarise_spans,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_UNWRITABLE = 3


class Unwritable(Exception):
    """An output path that cannot be written (exit 3)."""


# ----------------------------------------------------------------------
# The shared pieces
# ----------------------------------------------------------------------
def banner(text: str) -> None:
    print("repro %s — %s" % (__version__, text))


def check_writable(path: Optional[str]) -> None:
    """Raise :class:`Unwritable` unless ``path`` (if given) can be
    written: its directory exists and is writable, and it is not itself
    a directory or a read-only file."""
    if path is None:
        return
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise Unwritable("%s: directory %s does not exist" % (path, directory))
    if os.path.isdir(path):
        raise Unwritable("%s: is a directory" % path)
    target = path if os.path.exists(path) else directory
    if not os.access(target, os.W_OK):
        raise Unwritable("%s: permission denied" % path)


def write_output(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _episode_flags(
    parser: argparse.ArgumentParser, episodes: int, duration: float
) -> None:
    parser.add_argument("--episodes", type=_at_least_one, default=episodes)
    parser.add_argument(
        "--duration", type=float, default=duration, help="sim-seconds per episode"
    )
    parser.add_argument(
        "--settle", type=float, default=10.0, help="quiesce window per episode"
    )
    parser.add_argument(
        "--mean-gap", type=float, default=4.0, help="mean sim-seconds between faults"
    )


def _out_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--out", default=None, help="write the JSON verdict to this path"
    )


# ----------------------------------------------------------------------
# demo
# ----------------------------------------------------------------------
def _demo_setup(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=int, default=3)
    parser.add_argument(
        "--no-standby", action="store_true", help="skip the warm standby"
    )


def _demo(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    banner("Dependable Distributed OSGi Environment")
    env = DependableEnvironment.build(node_count=args.nodes, seed=args.seed)
    print("cluster up:", env.cluster)

    for name, share in (("acme", 0.25), ("globex", 0.25)):
        completion = env.admit_customer(
            ServiceLevelAgreement(name, cpu_share=share, availability_target=0.95)
        )
        env.cluster.run_until_settled([completion])
    env.run_for(2.0)
    print("admitted:", {c: env.locate(c) for c in env.customer_names()})

    if not args.no_standby and args.nodes >= 2:
        target = [
            n.node_id
            for n in env.cluster.alive_nodes()
            if n.node_id != env.locate("acme")
        ][0]
        preparation = env.prepare_standby("acme", target)
        env.cluster.run_until_settled([preparation])
        print("warm standby for acme prepared on", target)
        env.run_for(1.5)

    victim = env.locate("acme")
    print("\ncrashing %s ..." % victim)
    env.fail_node(victim)
    env.run_for(8.0)
    print("placement now:", {c: env.locate(c) for c in env.customer_names()})
    for node in env.cluster.alive_nodes():
        for record in node.modules["migration"].records:
            if record.completed:
                print(" ", record)

    env.run_for(10.0)
    print("\ncompliance:")
    for report in env.compliance():
        print(" ", report)
    return EXIT_OK


# ----------------------------------------------------------------------
# chaos
# ----------------------------------------------------------------------
def _chaos_setup(parser: argparse.ArgumentParser) -> None:
    _episode_flags(parser, episodes=3, duration=30.0)
    parser.add_argument(
        "--kinds",
        default=None,
        help="comma-separated fault kinds (default: all)",
    )


def _chaos(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    kinds = None
    if args.kinds:
        kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
        unknown = sorted(set(kinds) - set(FAULT_KINDS))
        if unknown:
            parser.error(
                "unknown fault kinds %s (choose from %s)"
                % (",".join(unknown), ",".join(FAULT_KINDS))
            )
    campaign = ChaosCampaign(
        seed=args.seed,
        episodes=args.episodes,
        episode_duration=args.duration,
        settle=args.settle,
        mean_gap=args.mean_gap,
        kinds=kinds,
    )
    banner(
        "chaos campaign seed=%d episodes=%d duration=%.1fs"
        % (args.seed, args.episodes, args.duration)
    )
    result = campaign.run()
    for episode in result.episodes:
        print(" ", episode)
        if episode.deployment:
            print(
                "     deployment verifier: %d finding(s)%s"
                % (
                    len(episode.deployment),
                    "" if episode.deployment_ok else " — ERRORS",
                )
            )
            for diagnostic in episode.deployment:
                print("      ", diagnostic.format().replace("\n", "\n      "))
        for entry in episode.trace:
            print("    ", entry)
        for violation in episode.violations:
            print("    !!", violation)
    print("campaign trace digest:", result.trace_digest())
    if result.ok:
        print("all invariants held across %d episodes" % len(result.episodes))
        if not result.deployment_ok:
            print(
                "note: the static bundle verifier flagged the deployment; "
                "see findings above"
            )
        return EXIT_OK
    print("\n%d invariant violations; reproduction:" % len(result.violations))
    if result.deployment_ok:
        print(
            "deployment verdict: statically clean — violations point at a "
            "platform bug"
        )
    else:
        print(
            "deployment verdict: verifier errors present — suspect a bad "
            "deployment before blaming the platform"
        )
    print(result.snippets[0])
    return EXIT_FAILED


# ----------------------------------------------------------------------
# conform
# ----------------------------------------------------------------------
def _conform_setup(parser: argparse.ArgumentParser) -> None:
    _episode_flags(parser, episodes=5, duration=20.0)
    parser.add_argument(
        "--scenario",
        choices=sorted(CONFORM_SCENARIOS),
        default="default",
        help="fault mix drawn by the random schedules",
    )
    _out_flag(parser)


def _conform(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    check_writable(args.out)
    campaign = ChaosCampaign(
        seed=args.seed,
        episodes=args.episodes,
        episode_duration=args.duration,
        settle=args.settle,
        mean_gap=args.mean_gap,
        kinds=CONFORM_SCENARIOS[args.scenario],
        conformance=True,
    )
    banner(
        "conformance campaign seed=%d scenario=%s episodes=%d"
        % (args.seed, args.scenario, args.episodes)
    )
    result = campaign.run()
    document = campaign_verdict(result, scenario=args.scenario)
    for episode, entry in zip(result.episodes, document["episodes"]):
        print(
            "  episode #%d seed=%d: %s (%d events, %d ops, digest %s)"
            % (
                entry["index"],
                entry["seed"],
                entry["verdict"],
                entry["events"],
                entry["ops"],
                entry["history_digest"][:12],
            )
        )
        for violation in episode.conformance:
            print("    !!", violation)
        for violation in episode.violations:
            print("    !!", violation)
    if args.out:
        write_output(args.out, verdict_json(document))
        print("verdict written to %s" % args.out)
    print("verdict digest:", document["digest"])
    if document["ok"]:
        print(
            "conformance: all %d checkers held across %d episodes"
            % (len(document["checkers"]), len(document["episodes"]))
        )
        return EXIT_OK
    print("conformance: VIOLATIONS — reproduction snippets:")
    for snippet in result.snippets:
        print(snippet)
    return EXIT_FAILED


# ----------------------------------------------------------------------
# rollout
# ----------------------------------------------------------------------
def _rollout_setup(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario",
        choices=sorted(ROLLOUT_SCENARIOS),
        default="clean",
        help="pinned fault pattern run against the rollout",
    )
    parser.add_argument(
        "--duration", type=float, default=18.0, help="sim-seconds of rollout"
    )
    parser.add_argument(
        "--settle", type=float, default=12.0, help="quiesce window afterwards"
    )
    _out_flag(parser)


def _rollout(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    check_writable(args.out)
    schedule = ROLLOUT_SCENARIOS[args.scenario]()
    env = rollout_scenario(args.seed, **SCENARIO_OPTIONS.get(args.scenario, {}))
    banner(
        "rollout scenario=%s seed=%d (%d faults scheduled)"
        % (args.scenario, args.seed, len(schedule))
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
    conformance = check_history(recorder.history)
    document = rollout_verdict(
        env,
        trace,
        violations,
        recorder.history,
        conformance,
        scenario=args.scenario,
        seed=args.seed,
    )
    if args.out:
        write_output(args.out, verdict_json(document))
        print("verdict written to %s" % args.out)
    summary = document["rollout"]
    print(
        "rollout: %s (%s) — versions %s"
        % (
            summary.get("outcome"),
            summary.get("reason", ""),
            summary.get("final_versions", {}),
        )
    )
    requests = document["requests"]
    print(
        "requests: %d total, %d dropped (%d inside upgrade windows)"
        % (
            requests["total"],
            requests["dropped"],
            requests["dropped_in_upgrade_windows"],
        )
    )
    for violation in conformance:
        print("  !!", violation)
    for violation in violations:
        print("  !!", violation)
    print("verdict digest:", document["digest"])
    return EXIT_OK if document["ok"] else EXIT_FAILED


# ----------------------------------------------------------------------
# trace
# ----------------------------------------------------------------------
def _trace_setup(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario",
        choices=("failover", "chaos"),
        default="failover",
        help="which scenario to trace (default: failover)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="Chrome trace output path (default TRACE_<scenario>_<seed>.json)",
    )
    parser.add_argument(
        "--spans-out",
        default=None,
        help="also write the raw span dump to this path",
    )


def _trace(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    out_path = args.out or "TRACE_%s_%d.json" % (args.scenario, args.seed)
    check_writable(out_path)
    check_writable(args.spans_out)
    failover_seconds: List[float] = []
    if args.scenario == "failover":
        env, telemetry = run_failover_scenario(args.seed)
        spans = telemetry.export_spans()
        for node_id in sorted(env.migration):
            for record in env.migration[node_id].records:
                if record.reason == "failure" and record.downtime is not None:
                    failover_seconds.append(record.downtime)
    else:
        episode, failover_seconds = run_chaos_scenario(args.seed)
        spans = episode.spans

    meta = {"scenario": args.scenario, "seed": args.seed}
    write_output(out_path, dump_chrome_json(spans, meta))
    if args.spans_out:
        write_output(args.spans_out, dump_spans_json(spans, meta))

    summary = summarise_spans(spans)
    print("scenario=%s seed=%d -> %s" % (args.scenario, args.seed, out_path))
    print(
        "spans=%d traces=%d connected=%d roots=%d"
        % (
            summary["spans"],
            summary["traces"],
            summary["connected_traces"],
            summary["roots"],
        )
    )
    for name, count in summary["by_name"].items():
        print("  %-24s %d" % (name, count))
    if failover_seconds:
        ordered = sorted(failover_seconds)
        print(
            "failover downtime: n=%d min=%.3fs max=%.3fs"
            % (len(ordered), ordered[0], ordered[-1])
        )
    return EXIT_OK


# ----------------------------------------------------------------------
# lint
# ----------------------------------------------------------------------
def _lint_setup(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail on any non-suppressed diagnostic, warnings included",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )


def _lint(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.list_rules:
        for code in sorted(DET_RULES):
            print("%s  %s" % (code, DET_RULES[code]))
        return EXIT_OK

    select = None
    if args.select:
        select = {code.strip().upper() for code in args.select.split(",") if code.strip()}
        unknown = sorted(select - set(DET_RULES))
        if unknown:
            parser.error(
                "unknown rule codes %s for --select (see --list-rules)"
                % ",".join(unknown)
            )

    if args.paths:
        paths = args.paths
        root = os.getcwd()
        for path in paths:
            if not collect_python_files([path]):
                parser.error("no .py file at %s" % path)
    else:
        package_dir = os.path.dirname(os.path.abspath(__file__))
        paths = [package_dir]
        root = os.path.dirname(package_dir)

    result = lint_paths(paths, root=root, select=select)
    counts = severity_counts(result.diagnostics)

    if args.format == "json":
        print(
            json.dumps(
                {
                    "version": 3,
                    "tool": "repro.analysis",
                    "strict": args.strict,
                    "files": len(result.files),
                    "counts": counts,
                    "diagnostics": [d.to_dict() for d in result.diagnostics],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for diagnostic in result.diagnostics:
            print(diagnostic.format())
        summary = "%d file(s) scanned: %d error(s), %d warning(s)" % (
            len(result.files),
            counts["error"],
            counts["warning"],
        )
        if not result.diagnostics:
            summary += " — clean"
        print(summary, file=sys.stderr)

    if counts["error"]:
        return EXIT_FAILED
    if args.strict and counts["warning"]:
        return EXIT_FAILED
    return EXIT_OK


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
class Command(NamedTuple):
    description: str
    #: ``--seed`` default; ``None`` means the command takes no seed.
    seed: Optional[int]
    setup: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace, argparse.ArgumentParser], int]


COMMANDS = {
    "demo": Command(
        "Dependable Distributed OSGi Environment — demo run",
        7, _demo_setup, _demo,
    ),
    "chaos": Command(
        "Seeded chaos campaign with invariant checking",
        0, _chaos_setup, _chaos,
    ),
    "conform": Command(
        "Chaos campaign with virtual-synchrony + linearizability checking; "
        "emits a deterministic JSON verdict",
        0, _conform_setup, _conform,
    ),
    "rollout": Command(
        "Staged canary rollout with SLA gates and automatic rollback, under "
        "a pinned fault scenario; emits a deterministic JSON verdict",
        0, _rollout_setup, _rollout,
    ),
    "trace": Command(
        "Run a traced scenario and export Chrome trace_event JSON.",
        42, _trace_setup, _trace,
    ),
    "lint": Command(
        "Sim-safety determinism linter: per-file rules DET000-DET008 "
        "(see docs/ANALYSIS.md)",
        None, _lint_setup, _lint,
    ),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    name = argv.pop(0) if argv and argv[0] in COMMANDS else "demo"
    command = COMMANDS[name]
    parser = argparse.ArgumentParser(
        prog="python -m repro %s" % name, description=command.description
    )
    if command.seed is not None:
        parser.add_argument("--seed", type=int, default=command.seed)
    command.setup(parser)
    args = parser.parse_args(argv)
    try:
        return command.run(args, parser)
    except Unwritable as error:
        print("python -m repro %s: cannot write %s" % (name, error), file=sys.stderr)
        return EXIT_UNWRITABLE


if __name__ == "__main__":
    raise SystemExit(main())
