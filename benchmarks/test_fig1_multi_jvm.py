"""FIG1 — one OSGi instance per JVM, managed externally (Figure 1).

The paper's first deployment option: "running multiple OSGi instances,
each one on its own JVM", controlled by an external Instance Manager over
"communication methods like RMI, JMX, or TCP/IP connections further
increasing the overhead and complexity of the solution".

We regenerate the (implicit) comparison: memory footprint, startup time
and management-operation latency as customer count grows, for the
separate-JVM layout.
"""

from benchmarks.conftest import print_table
from repro.vosgi.deployment import (
    DeploymentModel,
    JVM_BASELINE_BYTES,
    REMOTE_MANAGEMENT_OP_SECONDS,
    estimate_costs,
)

CUSTOMER_COUNTS = [1, 2, 4, 8, 16, 32]


def scenario():
    return {
        n: estimate_costs(DeploymentModel.SEPARATE_JVMS, n, bundles_per_instance=5)
        for n in CUSTOMER_COUNTS
    }


def test_fig1_separate_jvms():
    results = scenario()

    rows = []
    for n in CUSTOMER_COUNTS:
        costs = results[n]
        rows.append(
            (
                n,
                "%.0f" % (costs.memory_bytes / (1024 * 1024)),
                "%.1f" % costs.startup_seconds,
                "%.2f" % (costs.management_op_seconds * 1e3),
            )
        )
    print_table(
        "FIG1: one JVM per customer (external Instance Manager over RMI/JMX)",
        ["customers", "memory MiB", "startup s", "mgmt op ms"],
        rows,
    )

    # Shape assertions: every resource scales linearly with a full JVM per
    # customer, and management pays a network round trip.
    one = results[1]
    thirty_two = results[32]
    assert thirty_two.memory_bytes == 32 * one.memory_bytes
    assert thirty_two.startup_seconds == 32 * one.startup_seconds
    assert one.memory_bytes >= JVM_BASELINE_BYTES
    assert one.management_op_seconds == REMOTE_MANAGEMENT_OP_SECONDS



def test_fig1_measured_remote_management():
    """The management indirection, *measured*: every operation against a
    per-process instance pays a network round trip through the external
    Instance Manager (vs the µs in-process calls of FIG2/FIG3)."""
    from repro.sim.eventloop import EventLoop
    from repro.sim.network import Network
    from repro.sim.rng import RngStreams
    from repro.osgi.definition import simple_bundle
    from repro.vosgi.remote import RemoteInstanceHost, RemoteInstanceManager

    def scenario():
        loop = EventLoop()
        # One-way LAN latency 0.75 ms: the 2008 RMI/JMX ballpark.
        network = Network(loop, RngStreams(8), latency=0.00075, jitter=0.0003)
        manager = RemoteInstanceManager(loop, network)
        for i in range(8):
            host = RemoteInstanceHost("c%02d" % i, loop, network)
            host.provision("loc://app", simple_bundle("app"))
            manager.register_host(host)
            manager.start_framework(host.name)
            manager.install(host.name, "loc://app")
            manager.start_bundle(host.name, "app")
        loop.run_for(5.0)
        # A burst of routine management (status polls + restart cycles).
        for name in manager.names():
            manager.status(name)
            manager.stop_bundle(name, "app")
            manager.start_bundle(name, "app")
        loop.run_for(5.0)
        return manager

    manager = scenario()
    print_table(
        "FIG1 (measured): remote management over the external Instance Manager",
        ["operations", "mean RTT ms", "min RTT ms", "max RTT ms"],
        [
            (
                len(manager.round_trip_times),
                "%.2f" % (manager.mean_rtt * 1e3),
                "%.2f" % (min(manager.round_trip_times) * 1e3),
                "%.2f" % (max(manager.round_trip_times) * 1e3),
            )
        ],
    )
    # Every op paid the wire: RTT >= 2x the one-way latency, ~10^3 above
    # the in-process management call measured in FIG2/FIG3.
    assert len(manager.round_trip_times) == 8 * 3 + 8 * 3
    assert manager.mean_rtt >= 0.0015
    assert manager.mean_rtt < 0.004
