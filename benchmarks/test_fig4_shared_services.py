"""FIG4 — pulling shared bundles down into the host (Figure 4).

"It becomes possible to have only one instance of 'Bundle II' whose
services will be used by all the required bundles … and therefore leverage
the management effort and optimize the resource usage of the platform."
§4 names the shared bundles: "the log service, the HTTP service and the
JMX server service".

We build both layouts for real with the three base bundles of
:mod:`repro.services` — K instances each installing their own log, HTTP
and JMX bundles, vs the three installed once on the host and exported —
and compare total bundle count, memory footprint and the class space each
tenant app sees. Every app loads the three service-interface symbols
through its own bundle: in the duplicated layout a resolver wire hands it
its instance's copy; in the shared layout the instance's topmost
delegation loader hands it the host exporter's one object, because the
export policy names the package. A host package no policy names is
refused in both layouts.
"""

from benchmarks.conftest import print_table
from repro.osgi.definition import BundleActivator, simple_bundle
from repro.osgi.framework import Framework
from repro.osgi.loader import ClassNotFoundError, split_symbol
from repro.services import (
    HTTP_SERVICE_CLASS,
    JMX_SERVICE_CLASS,
    LOG_SERVICE_CLASS,
    http_service_bundle,
    jmx_bundle,
    log_bundle,
)
from repro.vosgi.delegation import ExportPolicy
from repro.vosgi.manager import INSTANCE_MANAGER_CLASS, instance_manager_bundle

INSTANCE_COUNTS = [2, 4, 8, 16]
BASE_BUNDLES = (log_bundle, http_service_bundle, jmx_bundle)
#: Each base service registers under ``<exported package>.<symbol>``.
API_CLASSES = (LOG_SERVICE_CLASS, HTTP_SERVICE_CLASS, JMX_SERVICE_CLASS)
API_PACKAGES = tuple(split_symbol(clazz)[0] for clazz in API_CLASSES)
#: The host's framework API: named by no export policy.
HOST_ONLY = "org.osgi.framework.Framework"


class TenantActivator(BundleActivator):
    """A tenant app using the three base services, as §4 describes."""

    def start(self, context):
        bundle = context.bundle
        name = context.get_property("vosgi.instance")
        self.apis = {clazz: bundle.load_class(clazz) for clazz in API_CLASSES}
        try:
            bundle.load_class(HOST_ONLY)
            self.refused = False
        except ClassNotFoundError:
            self.refused = True
        services = {
            clazz: context.get_service(context.get_service_reference(clazz))
            for clazz in API_CLASSES
        }
        self.typed = all(
            isinstance(service, self.apis[clazz])
            for clazz, service in services.items()
        )
        services[LOG_SERVICE_CLASS].info("starting", source=name)
        services[HTTP_SERVICE_CLASS].register_servlet(
            "/%s" % name, lambda request: "%s says hi" % name
        )
        # Only the host's JMX server sees the Instance Manager.
        jmx = services[JMX_SERVICE_CLASS]
        self.peers = (
            jmx.get_attribute("platform:type=Instances", "Count")
            if jmx.query_names("platform:type=Instances")
            else None
        )


def app_bundle(imports=()):
    return simple_bundle(
        "app",
        imports=imports,
        activator_factory=TenantActivator,
        size_bytes=32 * 1024,
    )


def boot_host(instance_id, base_bundles=()):
    host = Framework(instance_id)
    host.start()
    host.install(instance_manager_bundle()).start()
    for make in base_bundles:
        host.install(make()).start()
    context = host.system_context
    manager = context.get_service(
        context.get_service_reference(INSTANCE_MANAGER_CLASS)
    )
    return host, manager


def build_duplicated(count):
    """Every instance carries its own copy of the base bundles."""
    host, manager = boot_host("dup-host")
    for i in range(count):
        instance = manager.create_instance("c%02d" % i)
        for make in BASE_BUNDLES:
            instance.install(make()).start()
        instance.install(app_bundle(imports=API_PACKAGES)).start()
    return host, manager


def build_shared(count):
    """Base bundles once on the host, exported to every instance."""
    host, manager = boot_host("shared-host", BASE_BUNDLES)
    policy = ExportPolicy(packages=API_PACKAGES, service_classes=API_CLASSES)
    for i in range(count):
        instance = manager.create_instance("c%02d" % i, policy=policy)
        instance.install(app_bundle()).start()
    return host, manager


def footprint(host, manager):
    return host.memory_footprint() + sum(
        i.memory_footprint() for i in manager.instances()
    )


def total_bundles(host, manager):
    return len(host.bundles()) + sum(
        len(i.bundles()) for i in manager.instances()
    )


def api_objects(framework):
    """API class -> the symbol its exporting bundle in ``framework`` holds."""
    exporters = {
        export.name: bundle
        for bundle in framework.bundles()
        for export in bundle.definition.manifest.exports
    }
    return {
        clazz: exporters[split_symbol(clazz)[0]].namespace.load_local(
            *split_symbol(clazz)
        )
        for clazz in API_CLASSES
    }


def class_space(host, manager):
    """How the tenant apps' class loads were answered, and by whom."""
    instances = manager.instances()
    activators = [i.get_bundle_by_name("app")._activator for i in instances]
    wires = [
        (instance, wire)
        for instance in instances
        for wire in instance.get_bundle_by_name("app").wires.values()
    ]
    frameworks = [host] + [i.framework for i in instances]
    return {
        "copies": sum(
            export.name in API_PACKAGES
            for framework in frameworks
            for bundle in framework.bundles()
            for export in bundle.definition.manifest.exports
        ),
        "wired": len(wires),
        "own_copies": all(w.exporter.framework is i.framework for i, w in wires),
        "delegated": sum(i.loader.delegated for i in instances),
        "denied": sum(i.loader.denied for i in instances),
        "loaded": [a.apis for a in activators],
        "refused": all(a.refused for a in activators),
        "typed": all(a.typed for a in activators),
        "peers": [a.peers for a in activators],
    }


def test_fig4_shared_vs_duplicated():
    results = {}
    for count in INSTANCE_COUNTS:
        dup_host, dup_manager = build_duplicated(count)
        shared_host, shared_manager = build_shared(count)
        context = shared_host.system_context
        log = context.get_service(context.get_service_reference(LOG_SERVICE_CLASS))
        http = context.get_service(context.get_service_reference(HTTP_SERVICE_CLASS))
        results[count] = {
            "dup_bundles": total_bundles(dup_host, dup_manager),
            "shared_bundles": total_bundles(shared_host, shared_manager),
            "dup_bytes": footprint(dup_host, dup_manager),
            "shared_bytes": footprint(shared_host, shared_manager),
            "dup": class_space(dup_host, dup_manager),
            "shared": class_space(shared_host, shared_manager),
            "host_objects": api_objects(shared_host),
            "log_sources": {entry.source for entry in log.entries()},
            "servlets": [
                http.dispatch("/%s" % name, None) for name in shared_manager.names()
            ],
            "names": shared_manager.names(),
        }
        dup_host.stop()
        shared_host.stop()

    rows = []
    for count in INSTANCE_COUNTS:
        r = results[count]
        rows.append(
            (
                count,
                r["dup_bundles"],
                r["shared_bundles"],
                "%.2f" % (r["dup_bytes"] / 2**20),
                "%.2f" % (r["shared_bytes"] / 2**20),
                "%.2fx" % (r["dup_bytes"] / r["shared_bytes"]),
            )
        )
    print_table(
        "FIG4: duplicated base bundles vs one shared copy on the host",
        ["instances", "dup bundles", "shared bundles", "dup MiB", "shared MiB", "saving"],
        rows,
    )
    print_table(
        "FIG4 (class space): who answered the apps' API loads",
        ["instances", "layout", "API bundles", "wired", "delegated", "denied"],
        [
            (count, layout, s["copies"], s["wired"], s["delegated"], s["denied"])
            for count in INSTANCE_COUNTS
            for layout, s in (
                ("dup", results[count]["dup"]),
                ("shared", results[count]["shared"]),
            )
        ],
    )

    apis = len(API_CLASSES)
    for count in INSTANCE_COUNTS:
        r = results[count]
        dup, shared = r["dup"], r["shared"]
        # Shape: sharing removes (count-1) copies of each base bundle...
        assert r["dup_bundles"] - r["shared_bundles"] == (count - 1) * apis
        assert (dup["copies"], shared["copies"]) == (count * apis, apis)
        # ...and saves memory accordingly.
        assert r["shared_bytes"] < r["dup_bytes"]
        # Duplicated: a resolver wire to the instance's own copy, per API.
        assert dup["wired"] == count * apis and dup["own_copies"]
        assert dup["delegated"] == 0
        # Shared: no wires; the delegation loader hands every instance the
        # host exporter's one object.
        assert shared["wired"] == 0
        assert shared["delegated"] == count * apis
        assert all(
            loaded[clazz] is r["host_objects"][clazz]
            for loaded in shared["loaded"]
            for clazz in API_CLASSES
        )
        # A package outside the policy is refused, in both layouts, and
        # every service is an instance of the API its consumer loaded.
        for space in (dup, shared):
            assert space["refused"] and space["denied"] == count
            assert space["typed"]
        # §4's scenario on the shared host: one log saw every tenant, one
        # HTTP service serves every tenant's servlet, and each tenant read
        # the instance count through the one JMX server.
        assert r["log_sources"] == set(r["names"])
        assert r["servlets"] == [(200, "%s says hi" % n) for n in r["names"]]
        assert shared["peers"] == list(range(1, count + 1))
        assert dup["peers"] == [None] * count
    # The saving factor grows with instance count.
    savings = [
        results[c]["dup_bytes"] / results[c]["shared_bytes"] for c in INSTANCE_COUNTS
    ]
    assert savings == sorted(savings)
