"""``python -m repro`` — demo tour, chaos campaigns, linting.

With no subcommand (or ``demo``): builds a 3-node cluster, admits two
customers (one with a warm standby), injects a crash, and prints the
dependability story. With ``chaos``: runs a seeded chaos campaign of
random fault schedules with invariant checking (see docs/FAULTS.md) and
prints a reproduction snippet for any violation. With ``lint``: runs
the sim-safety determinism linter (per-file rules DET000-DET008) over
the package (or given paths) and exits non-zero on findings (see
docs/ANALYSIS.md). With ``trace``: runs a telemetry-enabled scenario and
exports a Chrome ``trace_event`` file (see docs/TELEMETRY.md). With
``conform``: runs a conformance-checked chaos campaign (virtual-synchrony
axioms + registry linearizability) and emits a deterministic JSON verdict
(see docs/CONFORMANCE.md). With ``rollout``: runs one staged
canary rollout under a pinned fault scenario and emits a deterministic
JSON verdict (see docs/ROLLOUT.md).
"""

from __future__ import annotations

import argparse
import sys

from repro import __version__
from repro.core import DependableEnvironment
from repro.sla import ServiceLevelAgreement


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "chaos":
        return chaos_main(argv[1:])
    if argv and argv[0] == "lint":
        from repro.analysis.cli import lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "trace":
        from repro.telemetry.cli import trace_main

        return trace_main(argv[1:])
    if argv and argv[0] == "conform":
        from repro.conformance.cli import conform_main

        return conform_main(argv[1:])
    if argv and argv[0] == "rollout":
        from repro.rollout.cli import rollout_main

        return rollout_main(argv[1:])
    if argv and argv[0] == "demo":
        argv = argv[1:]
    return demo_main(argv)


def demo_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Dependable Distributed OSGi Environment — demo run",
    )
    parser.add_argument("--nodes", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--no-standby", action="store_true", help="skip the warm standby"
    )
    args = parser.parse_args(argv)

    print("repro %s — Dependable Distributed OSGi Environment" % __version__)
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
    return 0


def chaos_main(argv=None) -> int:
    from repro.faults import ChaosCampaign

    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="Seeded chaos campaign with invariant checking",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--episodes", type=int, default=3)
    parser.add_argument(
        "--duration", type=float, default=30.0, help="sim-seconds per episode"
    )
    parser.add_argument(
        "--settle", type=float, default=10.0, help="quiesce window per episode"
    )
    parser.add_argument(
        "--mean-gap", type=float, default=4.0, help="mean sim-seconds between faults"
    )
    parser.add_argument(
        "--kinds",
        default=None,
        help="comma-separated fault kinds (default: all)",
    )
    parser.add_argument(
        "--scheduler",
        choices=("global", "laned"),
        default="global",
        help="event-loop scheduler (same seed, same run, byte for byte — "
        "see docs/SIM.md)",
    )
    args = parser.parse_args(argv)

    if args.episodes < 1:
        parser.error("--episodes must be at least 1")
    kinds = None
    if args.kinds:
        from repro.faults import FAULT_KINDS

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
    print(
        "repro %s — chaos campaign seed=%d episodes=%d duration=%.1fs "
        "scheduler=%s"
        % (__version__, args.seed, args.episodes, args.duration, args.scheduler)
    )
    from repro.sim.scheduler import use_scheduler

    with use_scheduler(args.scheduler):
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
        return 0
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
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
