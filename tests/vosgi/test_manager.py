"""Instance Manager: the Map of customers and its bundle packaging."""

import pytest

from repro.osgi.bundle import BundleState
from repro.osgi.definition import simple_bundle
from repro.osgi.errors import BundleException
from repro.osgi.framework import Framework
from repro.storage.san import SharedStore
from repro.vosgi.delegation import ExportPolicy
from repro.vosgi.manager import (
    INSTANCE_MANAGER_CLASS,
    InstanceManager,
    instance_manager_bundle,
)


@pytest.fixture
def host():
    fw = Framework("host")
    fw.start()
    yield fw
    if fw.active:
        fw.stop()


@pytest.fixture
def manager(host):
    return InstanceManager(host)


def test_create_starts_by_default(manager):
    instance = manager.create_instance("acme")
    assert instance.running
    assert manager.names() == ["acme"]


def test_create_without_start(manager):
    instance = manager.create_instance("acme", start=False)
    assert not instance.running


def test_duplicate_name_rejected(manager):
    manager.create_instance("acme")
    with pytest.raises(BundleException):
        manager.create_instance("acme")


def test_get_and_require(manager):
    manager.create_instance("acme")
    assert manager.get("acme") is not None
    assert manager.get("ghost") is None
    assert manager.require("acme").name == "acme"
    with pytest.raises(BundleException):
        manager.require("ghost")


def test_stop_and_start_instance(manager):
    manager.create_instance("acme")
    manager.stop_instance("acme")
    assert not manager.require("acme").running
    manager.start_instance("acme")
    assert manager.require("acme").running


def test_destroy_removes_entry(manager):
    manager.create_instance("acme")
    manager.destroy_instance("acme")
    assert manager.names() == []
    manager.destroy_instance("acme")  # idempotent


def test_destroy_keeps_state_by_default(host):
    store = SharedStore()
    manager = InstanceManager(
        host,
        storage_factory=lambda iid: store.mount("n1").framework_storage(),
        repository=store,
    )
    instance = manager.create_instance("acme")
    instance.install(simple_bundle("app")).start()
    manager.destroy_instance("acme")
    assert store.has_state("vosgi:acme")


def test_destroy_can_wipe_state(host):
    store = SharedStore()
    manager = InstanceManager(
        host,
        storage_factory=lambda iid: store.mount("n1").framework_storage(),
        repository=store,
    )
    manager.create_instance("acme")
    manager.destroy_instance("acme", wipe_state=True)
    assert not store.has_state("vosgi:acme")


def test_recreate_restores_from_san(host):
    store = SharedStore()
    manager = InstanceManager(
        host,
        storage_factory=lambda iid: store.mount("n1").framework_storage(),
        repository=store,
    )
    instance = manager.create_instance("acme")
    instance.install(simple_bundle("app")).start()
    manager.destroy_instance("acme")

    reborn = manager.create_instance("acme")
    assert reborn.get_bundle_by_name("app") is not None


def test_release_instance_forgets_without_stopping(manager):
    instance = manager.create_instance("acme")
    released = manager.release_instance("acme")
    assert released is instance
    assert manager.names() == []
    assert instance.running  # untouched, as after a node crash takeover


def test_listeners_observe_lifecycle(manager):
    events = []
    manager.add_listener(lambda event, name: events.append((event, name)))
    manager.create_instance("acme")
    manager.stop_instance("acme")
    manager.start_instance("acme")
    manager.destroy_instance("acme")
    assert events == [
        ("created", "acme"),
        ("started", "acme"),
        ("stopped", "acme"),
        ("started", "acme"),
        ("destroyed", "acme"),
    ]


def test_count_and_instances_sorted(manager):
    manager.create_instance("zeta")
    manager.create_instance("alpha")
    assert manager.count == 2
    assert [i.name for i in manager.instances()] == ["alpha", "zeta"]


class TestActivatorPackaging:
    def test_manager_published_as_service(self, host):
        bundle = host.install(instance_manager_bundle())
        bundle.start()
        ref = host.system_context.get_service_reference(INSTANCE_MANAGER_CLASS)
        assert ref is not None
        manager = host.system_context.get_service(ref)
        instance = manager.create_instance("acme", policy=ExportPolicy())
        assert instance.running

    def test_stopping_bundle_stops_instances(self, host):
        bundle = host.install(instance_manager_bundle())
        bundle.start()
        ref = host.system_context.get_service_reference(INSTANCE_MANAGER_CLASS)
        manager = host.system_context.get_service(ref)
        instance = manager.create_instance("acme")
        bundle.stop()
        assert not instance.running
        assert host.registry.get_reference(INSTANCE_MANAGER_CLASS) is None


def test_restarts_leave_the_host_dispatcher_as_they_found_it(host, manager):
    """Each mirror open used to leave one more wildcard entry on the host,
    and every later restart scanned them all."""
    host.system_context.register_service("base.Service", "shared")
    policy = ExportPolicy(service_classes={"base.Service"})
    manager.create_instance("acme", policy=policy)
    manager.create_instance("other", policy=policy)
    dispatcher = host.dispatcher

    def layout():
        return (
            len(dispatcher._service_entries),
            len(dispatcher._service_wildcard),
            {clazz: len(bucket) for clazz, bucket in dispatcher._service_index.items()},
        )

    before = layout()
    assert before[2] == {"base.Service": 2}
    for _ in range(1000):
        manager.stop_instance("acme")
        assert layout()[2] == {"base.Service": 1}
        manager.start_instance("acme")
    assert layout() == before
    assert manager.require("acme").mirror.mirrored_count == 1
    reference = host.registry.get_reference("base.Service")
    manager.stop_instance("acme")
    manager.stop_instance("other")
    assert reference.using_bundles == []


def test_restart_brings_back_bundles_above_start_level_one(host):
    """The stored start level is the one the instance ran at, not where the
    shutdown walk happened to be when a bundle stopped."""
    store = SharedStore()
    manager = InstanceManager(
        host,
        storage_factory=lambda iid: store.mount("n1").framework_storage(),
        repository=store,
    )
    instance = manager.create_instance("acme")
    bundle = instance.install(simple_bundle("app"))
    instance.framework.start_levels.set_bundle_level(bundle, 5)
    bundle.start()
    manager.stop_instance("acme")
    assert store.load_state("vosgi:acme").start_level == 10
    manager.start_instance("acme")
    assert instance.framework.start_level == 10
    assert bundle.state == BundleState.ACTIVE
