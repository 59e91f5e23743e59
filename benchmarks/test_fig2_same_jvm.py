"""FIG2 — all OSGi instances embedded in one JVM (Figure 2).

"The overhead of multiple JVMs is gone and the management of the
instances becomes simpler as we can easily start and stop embedded OSGi
instances and maintain a simple data structure such as a Map."

We regenerate the comparison against FIG1: amortized JVM baseline and
in-process management calls, plus a *measured* in-process management
operation (start/stop of an embedded instance) on the real implementation.
"""

from benchmarks.conftest import min_host_seconds, print_table
from repro.osgi.framework import Framework
from repro.vosgi.deployment import DeploymentModel, estimate_costs
from repro.vosgi.manager import InstanceManager

CUSTOMER_COUNTS = [1, 2, 4, 8, 16, 32]


def model_scenario():
    out = {}
    for n in CUSTOMER_COUNTS:
        out[n] = {
            "separate": estimate_costs(DeploymentModel.SEPARATE_JVMS, n),
            "shared": estimate_costs(DeploymentModel.SHARED_JVM, n),
        }
    return out


def test_fig2_shared_jvm_vs_separate():
    results = model_scenario()

    rows = []
    for n in CUSTOMER_COUNTS:
        separate = results[n]["separate"]
        shared = results[n]["shared"]
        rows.append(
            (
                n,
                "%.0f" % (separate.memory_bytes / 2**20),
                "%.0f" % (shared.memory_bytes / 2**20),
                "%.1fx" % (separate.memory_bytes / shared.memory_bytes),
                "%.1f" % separate.startup_seconds,
                "%.1f" % shared.startup_seconds,
            )
        )
    print_table(
        "FIG2: shared JVM vs one-JVM-per-customer",
        [
            "customers",
            "sep MiB",
            "shared MiB",
            "mem ratio",
            "sep boot s",
            "shared boot s",
        ],
        rows,
    )

    # Shape: shared JVM always wins, and the advantage grows with scale.
    ratios = [
        results[n]["separate"].memory_bytes / results[n]["shared"].memory_bytes
        for n in CUSTOMER_COUNTS
    ]
    assert ratios[0] >= 1.0  # identical at one customer (one JVM either way)
    assert all(r > 1.0 for r in ratios[1:])
    assert ratios == sorted(ratios)
    assert results[32]["separate"].startup_seconds > results[32]["shared"].startup_seconds


def test_fig2_measured_management_op():
    """Measure the real in-process management operation the Map-based
    Instance Manager gives us: stop+start of an embedded instance."""
    host = Framework("bench-host")
    host.start()
    manager = InstanceManager(host)
    manager.create_instance("customer")

    def manage():
        manager.stop_instance("customer")
        manager.start_instance("customer")

    fastest = min_host_seconds(manage)
    host.stop()
    # In-process management is far below the 1.5 ms RMI/JMX round trip.
    assert fastest < 1.5e-3
