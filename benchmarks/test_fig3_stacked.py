"""FIG3 — the Instance Manager inside an OSGi environment (Figure 3).

"It makes sense to pull up the Instance Manager into the architecture
stack and put it inside an OSGi environment … the Instance Manager could
be seen as yet another bundle in the system."

We build the real stacked architecture — host framework, Instance Manager
*bundle*, N virtual instances each running a customer bundle — measure the
real per-instance creation cost, and show the management path is ordinary
service lookup (no RMI/JMX indirection).
"""

from benchmarks.conftest import min_host_seconds, print_table
from repro.osgi.definition import simple_bundle
from repro.osgi.framework import Framework
from repro.vosgi.deployment import (
    DeploymentModel,
    estimate_costs,
)
from repro.vosgi.manager import INSTANCE_MANAGER_CLASS, instance_manager_bundle

from tests.conftest import RecordingActivator

INSTANCE_COUNTS = [1, 4, 16, 32]


def build_stacked(count):
    host = Framework("stacked-host")
    host.start()
    host.install(instance_manager_bundle(), "platform://im").start()
    reference = host.system_context.get_service_reference(INSTANCE_MANAGER_CLASS)
    manager = host.system_context.get_service(reference)
    for i in range(count):
        instance = manager.create_instance("customer-%02d" % i)
        instance.install(
            simple_bundle("app", activator_factory=RecordingActivator)
        ).start()
    return host, manager


def test_fig3_stacked_architecture():
    def scenario():
        results = {}
        for count in INSTANCE_COUNTS:
            host, manager = build_stacked(count)
            results[count] = {
                "instances": manager.count,
                "host_bundles": len(host.bundles()),
                "footprint": host.memory_footprint()
                + sum(i.memory_footprint() for i in manager.instances()),
                "modelled": estimate_costs(
                    DeploymentModel.STACKED_VOSGI, count, bundles_per_instance=1
                ),
            }
            host.stop()
        return results

    results = scenario()

    rows = [
        (
            count,
            results[count]["instances"],
            results[count]["host_bundles"],
            "%.2f" % (results[count]["footprint"] / 2**20),
            "%.1f" % results[count]["modelled"].startup_seconds,
        )
        for count in INSTANCE_COUNTS
    ]
    print_table(
        "FIG3: Instance Manager as a bundle, N stacked virtual instances",
        ["instances", "running", "host bundles", "real MiB", "model boot s"],
        rows,
    )

    # Shape: all instances run; the host carries a constant bundle count
    # (the Instance Manager is just another bundle) regardless of N.
    assert all(results[c]["instances"] == c for c in INSTANCE_COUNTS)
    host_bundle_counts = {results[c]["host_bundles"] for c in INSTANCE_COUNTS}
    assert host_bundle_counts == {1}


def test_fig3_management_is_a_service_call():
    """The management path: look up the Instance Manager service and
    operate on an instance — one in-process call chain."""
    host, manager = build_stacked(4)
    context = host.system_context

    def manage():
        reference = context.get_service_reference(INSTANCE_MANAGER_CLASS)
        m = context.get_service(reference)
        m.stop_instance("customer-00")
        m.start_instance("customer-00")
        context.unget_service(reference)

    fastest = min_host_seconds(manage)
    host.stop()
    assert fastest < 1.5e-3  # far below an RMI round trip
