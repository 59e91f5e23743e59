"""Virtual instances: sandboxing, usage aggregation, persistence identity."""

import pytest

from repro.osgi.bundle import BundleState
from repro.osgi.definition import simple_bundle
from repro.osgi.framework import Framework
from repro.osgi.loader import ClassNotFoundError
from repro.storage.san import SharedStore
from repro.vosgi.delegation import ExportPolicy
from repro.vosgi.instance import VirtualInstance

from tests.conftest import RecordingActivator, library_bundle


@pytest.fixture
def host():
    fw = Framework("host")
    fw.start()
    fw.install(library_bundle("log", "1.0.0", "LogThing"))
    fw.system_context.register_service("log.LogService", ["shared-log"])
    yield fw
    if fw.active:
        fw.stop()


def test_instance_starts_and_stops(host):
    instance = VirtualInstance("acme", host)
    instance.start()
    assert instance.running
    instance.stop()
    assert not instance.running


def test_start_stop_idempotent(host):
    instance = VirtualInstance("acme", host)
    instance.start()
    instance.start()
    instance.stop()
    instance.stop()


def test_instance_framework_has_identity_properties(host):
    instance = VirtualInstance("acme", host)
    instance.start()
    assert instance.framework.properties["vosgi.instance"] == "acme"
    assert instance.framework.properties["vosgi.host"] == "host"
    assert instance.framework.instance_id == "vosgi:acme"


def test_bundle_sees_exported_host_package(host):
    instance = VirtualInstance(
        "acme", host, policy=ExportPolicy(packages={"log"})
    )
    instance.start()
    bundle = instance.install(simple_bundle("app"))
    bundle.start()
    assert bundle.load_class("log.Thing") == "LogThing"
    assert instance.loader.delegated == 1


def test_bundle_denied_unexported_host_package(host):
    instance = VirtualInstance("acme", host, policy=ExportPolicy())
    instance.start()
    bundle = instance.install(simple_bundle("app"))
    bundle.start()
    with pytest.raises(ClassNotFoundError):
        bundle.load_class("log.Thing")


def test_local_packages_resolve_before_delegation(host):
    instance = VirtualInstance(
        "acme", host, policy=ExportPolicy(packages={"log"})
    )
    instance.start()
    instance.install(library_bundle("log", "9.0.0", "local-log"))
    app = instance.install(simple_bundle("app", imports=("log",)))
    app.start()
    assert app.load_class("log.Thing") == "local-log"
    assert instance.loader.delegated == 0


def test_mirrored_service_visible_inside_instance(host):
    instance = VirtualInstance(
        "acme", host, policy=ExportPolicy(service_classes={"log.LogService"})
    )
    instance.start()
    activator = RecordingActivator()
    bundle = instance.install(simple_bundle("app", activator_factory=lambda: activator))
    bundle.start()
    ref = activator.context.get_service_reference("log.LogService")
    service = activator.context.get_service(ref)
    service.append("from-acme")
    host_ref = host.system_context.get_service_reference("log.LogService")
    assert host.system_context.get_service(host_ref) == ["shared-log", "from-acme"]


def test_two_instances_are_namespace_isolated(host):
    a = VirtualInstance("a", host)
    b = VirtualInstance("b", host)
    a.start()
    b.start()
    a.install(library_bundle("pkg", "1.0.0", "A-thing"))
    b.install(library_bundle("pkg", "1.0.0", "B-thing"))
    app_a = a.install(simple_bundle("app", imports=("pkg",)))
    app_b = b.install(simple_bundle("app", imports=("pkg",)))
    app_a.start()
    app_b.start()
    assert app_a.load_class("pkg.Thing") == "A-thing"
    assert app_b.load_class("pkg.Thing") == "B-thing"


def test_service_isolation_between_instances(host):
    a = VirtualInstance("a", host)
    b = VirtualInstance("b", host)
    a.start()
    b.start()
    act = RecordingActivator()
    a.install(simple_bundle("svc", activator_factory=lambda: act)).start()
    act.context.register_service("private.Service", "a-only")
    assert b.framework.registry.get_reference("private.Service") is None
    assert host.registry.get_reference("private.Service") is None


def test_usage_aggregates_bundle_ledgers(host):
    instance = VirtualInstance("acme", host)
    instance.start()
    act1, act2 = RecordingActivator(), RecordingActivator()
    instance.install(simple_bundle("b1", activator_factory=lambda: act1)).start()
    instance.install(simple_bundle("b2", activator_factory=lambda: act2)).start()
    act1.context.account(cpu=1.0, memory_delta=100)
    act2.context.account(cpu=0.5, memory_delta=50, disk_delta=10)
    usage = instance.usage()
    assert usage["cpu_seconds"] == 1.5
    assert usage["memory_bytes"] == 150
    assert usage["disk_bytes"] == 10


def test_same_identity_restores_across_hosts():
    """The migration property: same instance id + same SAN = same env."""
    store = SharedStore()
    host1 = Framework("host1")
    host1.start()
    instance = VirtualInstance(
        "acme",
        host1,
        storage=store.mount("n1").framework_storage(),
        repository=store,
    )
    instance.start()
    instance.install(simple_bundle("app")).start()
    instance.stop()
    host1.stop()

    host2 = Framework("host2")
    host2.start()
    reborn = VirtualInstance(
        "acme",
        host2,
        storage=store.mount("n2").framework_storage(),
        repository=store,
    )
    reborn.start()
    bundle = reborn.get_bundle_by_name("app")
    assert bundle is not None
    assert bundle.state == BundleState.ACTIVE
    host2.stop()


def test_restored_bundles_get_delegation_loader():
    store = SharedStore()
    host = Framework("host")
    host.start()
    host.install(library_bundle("log", "1.0.0", "LogThing"))
    policy = ExportPolicy(packages={"log"})
    instance = VirtualInstance(
        "acme",
        host,
        policy=policy,
        storage=store.mount("n1").framework_storage(),
        repository=store,
    )
    instance.start()
    instance.install(simple_bundle("app")).start()
    instance.stop()

    reborn = VirtualInstance(
        "acme",
        host,
        policy=policy,
        storage=store.mount("n1").framework_storage(),
        repository=store,
    )
    reborn.start()
    bundle = reborn.get_bundle_by_name("app")
    assert bundle.load_class("log.Thing") == "LogThing"
    host.stop()


class _LoadsOnStart(RecordingActivator):
    """Loads a host-exported class inside ``start()``."""

    loaded = []

    def start(self, context) -> None:
        super().start(context)
        _LoadsOnStart.loaded.append(context.bundle.load_class("log.Thing"))


def test_restored_bundle_loads_host_class_inside_its_activator():
    """A bundle re-installed by a restore from the SAN must have the
    delegation loader before its activator runs, not only after start."""
    store = SharedStore()
    host = Framework("host")
    host.start()
    host.install(library_bundle("log", "1.0.0", "LogThing"))
    policy = ExportPolicy(packages={"log"})

    def make_instance():
        return VirtualInstance(
            "acme",
            host,
            policy=policy,
            storage=store.mount("n1").framework_storage(),
            repository=store,
        )

    _LoadsOnStart.loaded = []
    instance = make_instance()
    instance.start()
    instance.install(simple_bundle("app", activator_factory=_LoadsOnStart)).start()
    instance.stop()

    reborn = make_instance()
    reborn.start()
    bundle = reborn.get_bundle_by_name("app")
    assert bundle.state == BundleState.ACTIVE
    assert _LoadsOnStart.loaded == ["LogThing", "LogThing"]
    assert bundle.namespace.delegated_loads == 1
    host.stop()


def test_same_bundle_name_in_two_instances_keeps_distinct_archives():
    """Regression: two customers installing a same-named bundle must not
    overwrite each other's archive in the shared SAN repository — their
    definitions can differ (e.g. close over per-customer objects)."""
    store = SharedStore()
    host = Framework("host")
    host.start()

    def build_instance(name, marker):
        instance = VirtualInstance(
            name,
            host,
            storage=store.mount("n1").framework_storage(),
            repository=store,
        )
        instance.start()
        instance.install(
            simple_bundle(
                "app",
                exports=("pkg",),
                packages={"pkg": {"Marker": marker}},
            )
        ).start()
        return instance

    a = build_instance("a", "A-archive")
    b = build_instance("b", "B-archive")
    a.stop()
    b.stop()

    # Redeploy both from the SAN (as after a node failure).
    reborn_a = VirtualInstance(
        "a", host, storage=store.mount("n2").framework_storage(), repository=store
    )
    reborn_b = VirtualInstance(
        "b", host, storage=store.mount("n2").framework_storage(), repository=store
    )
    reborn_a.start()
    reborn_b.start()
    assert reborn_a.get_bundle_by_name("app").load_class("pkg.Marker") == "A-archive"
    assert reborn_b.get_bundle_by_name("app").load_class("pkg.Marker") == "B-archive"
    host.stop()
