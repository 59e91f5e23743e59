"""``python -m repro trace`` — run a scenario and export its trace.

Two scenarios:

* ``failover`` — the acceptance scenario: a 3-node platform serving web
  traffic through ipvs, a warm standby prepared, then the hosting node
  crashes mid-traffic. The exported Chrome trace shows the client
  requests, the GCS view change and the standby activation as causally
  linked spans of one trace (open the file in Perfetto or
  chrome://tracing).
* ``chaos`` — one telemetry-enabled chaos-campaign episode (random fault
  schedule), reporting failover-latency percentiles.

Two same-seed runs emit byte-identical files — the CI determinism guard
runs the command twice and ``cmp``'s the outputs.
"""

from __future__ import annotations

import argparse
from typing import Any, Dict, List, Optional, Tuple

from repro.telemetry.export import (
    connected_trace_ids,
    dump_chrome_json,
    dump_spans_json,
    trace_roots,
)
from repro.telemetry.gauges import install_platform_gauges
from repro.telemetry.runtime import Telemetry, attach


def run_failover_scenario(
    seed: int,
    requests: int = 12,
    request_interval: float = 0.25,
) -> Tuple[Any, Telemetry]:
    """Build, trace and crash the acceptance scenario; returns (env, telemetry)."""
    from repro.core import DependableEnvironment
    from repro.ipvs.addressing import IpEndpoint
    from repro.sla import ServiceLevelAgreement

    env = DependableEnvironment.build(node_count=3, seed=seed)
    telemetry = Telemetry(env.loop.clock, env.cluster.rng, scenario="failover")
    install_platform_gauges(
        telemetry.metrics, loop=env.loop, network=env.cluster.network
    )
    with attach(env.loop, telemetry=telemetry):
        telemetry.open_root("scenario:failover")
        try:
            for name, share in (("acme", 0.25), ("globex", 0.25)):
                completion = env.admit_customer(
                    ServiceLevelAgreement(
                        name, cpu_share=share, availability_target=0.95
                    )
                )
                env.cluster.run_until_settled([completion])
            env.run_for(1.0)
            endpoint = IpEndpoint("10.0.0.80", 80)
            env.expose_service("acme", endpoint, service_time=0.005)
            victim = env.locate("acme")
            assert victim is not None
            target = [
                n.node_id
                for n in env.cluster.alive_nodes()
                if n.node_id != victim
            ][0]
            preparation = env.prepare_standby("acme", target)
            env.cluster.run_until_settled([preparation])
            env.run_for(1.0)

            remaining = [requests]

            def pump() -> None:
                if remaining[0] <= 0:
                    return
                remaining[0] -= 1
                env.director.submit(endpoint, client="trace-client")
                env.loop.call_after(request_interval, pump, label="trace-traffic")

            env.loop.call_after(request_interval, pump, label="trace-traffic")
            env.run_for(1.0)
            env.fail_node(victim)
            env.run_for(8.0)
        finally:
            telemetry.close_root()
    return env, telemetry


def run_chaos_scenario(seed: int) -> Tuple[Any, List[float]]:
    """One telemetry-enabled chaos episode; returns (episode, downtimes)."""
    from repro.faults.campaign import ChaosCampaign

    campaign = ChaosCampaign(
        seed=seed,
        episodes=1,
        episode_duration=20.0,
        settle=8.0,
        telemetry=True,
    )
    result = campaign.run()
    episode = result.episodes[0]
    return episode, list(result.failover_seconds)


def _summarise(spans: List[Dict[str, Any]]) -> Dict[str, Any]:
    names: Dict[str, int] = {}
    for span in spans:
        names[span["name"]] = names.get(span["name"], 0) + 1
    return {
        "spans": len(spans),
        "traces": len({s["trace_id"] for s in spans}),
        "connected_traces": len(connected_trace_ids(spans)),
        "roots": len(trace_roots(spans)),
        "by_name": dict(sorted(names.items())),
    }


def trace_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Run a traced scenario and export Chrome trace_event JSON.",
    )
    parser.add_argument(
        "--scenario",
        choices=("failover", "chaos"),
        default="failover",
        help="which scenario to trace (default: failover)",
    )
    parser.add_argument("--seed", type=int, default=42)
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
    parser.add_argument(
        "--scheduler",
        choices=("global", "laned"),
        default="global",
        help="event-loop scheduler (same seed, same trace, byte for byte "
        "— see docs/SIM.md)",
    )
    args = parser.parse_args(argv)

    from repro.sim.scheduler import use_scheduler

    failover_seconds: List[float] = []
    with use_scheduler(args.scheduler):
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
    out_path = args.out or "TRACE_%s_%d.json" % (args.scenario, args.seed)
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(dump_chrome_json(spans, meta))
    if args.spans_out:
        with open(args.spans_out, "w", encoding="utf-8") as handle:
            handle.write(dump_spans_json(spans, meta))

    summary = _summarise(spans)
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
    return 0
