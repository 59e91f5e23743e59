#!/usr/bin/env python3
"""Quickstart: the OSGi framework and one virtual instance.

Run with::

    python examples/quickstart.py

Walks through the layers bottom-up: a framework with bundles and services,
then a sandboxed virtual instance that uses an explicitly exported host
service (the paper's Figure 4 pattern), then the full distributed
environment in three lines.
"""

from repro.core import DependableEnvironment
from repro.osgi import Framework
from repro.osgi.definition import BundleActivator, simple_bundle
from repro.services import LOG_SERVICE_CLASS, log_bundle
from repro.sla import ServiceLevelAgreement
from repro.vosgi import ExportPolicy, InstanceManager


class GreeterActivator(BundleActivator):
    """A customer bundle that uses the (host-provided) log service."""

    def start(self, context):
        reference = context.get_service_reference(LOG_SERVICE_CLASS)
        log = context.get_service(reference)
        source = context.get_property("vosgi.instance", "demo")
        log.info("greetings from %s" % context.bundle.symbolic_name, source=source)


def log_lines(framework):
    """The entries of the log service registered in ``framework``."""
    context = framework.system_context
    log = context.get_service(context.get_service_reference(LOG_SERVICE_CLASS))
    return [str(entry) for entry in log.entries()]


def part_one_framework():
    print("=== 1. A plain OSGi framework ===")
    framework = Framework("demo")
    framework.start()

    framework.install(log_bundle()).start()

    app = framework.install(
        simple_bundle("greeter", activator_factory=GreeterActivator)
    )
    app.start()

    print("log contents:", log_lines(framework))
    print("bundles:", [(b.symbolic_name, b.state.value) for b in framework.bundles()])
    framework.stop()
    return framework


def part_two_virtual_instances():
    print("\n=== 2. Virtual OSGi instances on a host (Figures 3-4) ===")
    host = Framework("host")
    host.start()
    host.install(log_bundle()).start()

    manager = InstanceManager(host)
    # The administrator explicitly exports the log service to customers.
    policy = ExportPolicy(service_classes={LOG_SERVICE_CLASS})
    acme = manager.create_instance("acme", policy=policy)
    globex = manager.create_instance("globex", policy=policy)

    for instance in (acme, globex):
        bundle = instance.install(
            simple_bundle("greeter", activator_factory=GreeterActivator)
        )
        bundle.start()

    print("ONE shared log service, used by both customers:", log_lines(host))

    # Isolation: a service registered inside acme is invisible to globex.
    acme_ctx_bundle = acme.bundles()[0]
    print(
        "globex can see acme's private services?",
        globex.framework.registry.get_reference("greeter") is not None,
    )
    host.stop()


def part_three_distributed():
    print("\n=== 3. The dependable distributed environment ===")
    env = DependableEnvironment.build(node_count=3, seed=7)
    completion = env.admit_customer(
        ServiceLevelAgreement("acme", cpu_share=0.25, availability_target=0.99)
    )
    env.cluster.run_until_settled([completion])
    env.run_for(3.0)
    host_node = env.locate("acme")
    print("acme admitted, running on:", host_node)

    print("crashing", host_node, "...")
    env.fail_node(host_node)
    env.run_for(6.0)
    print("acme redeployed on:", env.locate("acme"))
    for report in env.compliance():
        print(report)


if __name__ == "__main__":
    part_one_framework()
    part_two_virtual_instances()
    part_three_distributed()
