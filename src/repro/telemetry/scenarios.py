"""The two traced scenarios ``python -m repro trace`` exports.

* :func:`run_failover_scenario` — the acceptance scenario: a 3-node
  platform serving web traffic through ipvs, a warm standby prepared,
  then the hosting node crashes mid-traffic. Its Chrome trace shows the
  client requests, the GCS view change and the standby activation as
  causally linked spans of one trace (open the file in Perfetto or
  chrome://tracing).
* :func:`run_chaos_scenario` — one telemetry-enabled chaos-campaign
  episode (random fault schedule), with its failover downtimes.

Two same-seed runs export byte-identical files — the CI determinism
guard runs the command twice and ``cmp``'s the outputs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.telemetry.export import connected_trace_ids, trace_roots
from repro.telemetry.gauges import install_platform_gauges
from repro.telemetry.runtime import Telemetry, attach

__all__ = ["run_chaos_scenario", "run_failover_scenario", "summarise_spans"]


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


def summarise_spans(spans: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Span, trace, connected-trace and root counts plus spans per name."""
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
