"""Names, units, direction and regression bounds of every metric.

``host`` metrics are what the simulator costs on this machine: noisy,
reported as a median, allowed to worsen by ``bound`` (a share of the
base median) before ``compare`` calls it a regression. ``sim`` metrics
are what the modelled platform does: they repeat exactly for a seed, so
they compare by equality and any movement is a behaviour change the PR
must declare.

``BENCHMARK.json`` lists the end-to-end metrics that exist on all four
workloads (the driver wants every metric from every workload, and none
that can read 0) and every per-layer metric; ``tests/test_contract.py``
holds the two files together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .layers import LAYERS
from .micro import MICRO, unit_of
from .workloads import COUNTERS


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    kind: str  # "host" or "sim"
    better: str  # "lower" or "higher"
    bound: Optional[float] = None  # host end-to-end metrics only


#: ``-`` in the README table = the workload's unit does not produce it.
END_TO_END: Tuple[Metric, ...] = (
    Metric("throughput_ops_s", "ops/s", "host", "higher", 0.25),
    Metric("host_s_per_m_events", "s", "host", "lower", 0.25),
    Metric("cpu_s_per_unit", "s", "host", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "host", "lower", 0.10),
    Metric("setup_s", "s", "host", "lower", 0.25),
    Metric("sim_latency_p50_ms", "ms", "sim", "lower"),
    Metric("sim_latency_p99_ms", "ms", "sim", "lower"),
    Metric("sim_failover_downtime_p50_s", "s", "sim", "lower"),
    Metric("sim_failover_downtime_max_s", "s", "sim", "lower"),
    Metric("failed_share", "ratio", "sim", "lower"),
)

#: The end-to-end metrics every workload reports and that are never 0:
#: the ones ``BENCHMARK.json`` may name and the driver entry prints.
DRIVER_END_TO_END = ("throughput_ops_s", "cpu_s_per_unit", "peak_rss_mb", "setup_s")

_COUNTER_UNITS = {
    "sim.eventloop.events_per_op": "events/op",
    "sim.network.msgs_per_op": "msgs/op",
}
#: Counters that state the offered load rather than work to be saved.
_HIGHER_IS_BETTER = {"ipvs.server.submitted", "faults.injected"}

OVERHEAD = Metric("trace.overhead_ratio", "ratio", "host", "lower")


def _per_layer() -> Tuple[Metric, ...]:
    traced = tuple(
        metric
        for layer in LAYERS
        for metric in (
            Metric("%s.self_s" % layer, "s", "host", "lower"),
            Metric("%s.share" % layer, "ratio", "host", "lower"),
            Metric("%s.calls_in" % layer, "count", "sim", "lower"),
        )
    )
    counters = tuple(
        Metric(
            name,
            _COUNTER_UNITS.get(name, "count"),
            "sim",
            "higher" if name in _HIGHER_IS_BETTER else "lower",
        )
        for name in COUNTERS
    )
    micro = tuple(Metric(name, unit_of(name), "host", "lower") for name in MICRO)
    return traced + counters + micro + (OVERHEAD,)


PER_LAYER: Tuple[Metric, ...] = _per_layer()
BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}
