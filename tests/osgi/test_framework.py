"""Framework lifecycle, persistence/restore, properties, context lookups."""

import pytest

from repro.osgi.bundle import BundleState
from repro.osgi.definition import simple_bundle
from repro.osgi.errors import FrameworkError
from repro.osgi.framework import Framework
from repro.osgi.persistence import InMemoryFrameworkStorage

from tests.conftest import RecordingActivator, library_bundle


def test_install_before_start_rejected():
    fw = Framework("f")
    with pytest.raises(FrameworkError):
        fw.install(simple_bundle("a"))


def test_system_bundle_active_while_running(framework):
    assert framework.system_bundle.state == BundleState.ACTIVE
    assert framework.system_bundle.bundle_id == 0


def test_system_context_unavailable_when_stopped():
    fw = Framework("f")
    with pytest.raises(FrameworkError):
        fw.system_context


def test_same_location_returns_existing_bundle(framework):
    b1 = framework.install(simple_bundle("a"), location="loc://a")
    b2 = framework.install(simple_bundle("a", version="9.9.9"), location="loc://a")
    assert b1 is b2
    assert str(b1.version) == "1.0.0"


def test_default_location_derived_from_identity(framework):
    bundle = framework.install(simple_bundle("a", version="2.0.0"))
    assert bundle.location == "bundle://a/2.0.0"


def test_context_install_bundle_installs_into_its_framework(framework):
    host = framework.install(simple_bundle("host"))
    host.start()
    bundle = host.context.install_bundle(simple_bundle("b"), location="loc://b")
    assert framework.get_bundle_by_name("b") is bundle
    assert bundle.location == "loc://b"
    # An unresolvable import still installs; it fails only at resolve.
    lonely = host.context.install_bundle(simple_bundle("c", imports=("missing.pkg",)))
    assert lonely.state == BundleState.INSTALLED


def test_get_bundle_by_name(framework):
    framework.install(simple_bundle("x"))
    assert framework.get_bundle_by_name("x") is not None
    assert framework.get_bundle_by_name("missing") is None


def test_framework_properties_visible_to_bundles():
    fw = Framework("f", properties={"greeting": "hello"})
    fw.start()
    activator = RecordingActivator()
    bundle = fw.install(simple_bundle("a", activator_factory=lambda: activator))
    bundle.start()
    assert activator.context.get_property("greeting") == "hello"
    assert activator.context.get_property("missing", "dflt") == "dflt"


class TestPersistence:
    def test_restart_restores_bundles_and_states(self):
        storage = InMemoryFrameworkStorage()
        fw = Framework("env", storage=storage)
        fw.start()
        fw.install(library_bundle("lib", "1.0.0"))
        app = fw.install(simple_bundle("app", imports=("lib",)))
        app.start()
        fw.stop()

        fw2 = Framework("env", storage=storage, repository=fw.repository)
        fw2.start()
        names = {b.symbolic_name: b.state for b in fw2.bundles()}
        assert names["app"] == BundleState.ACTIVE
        assert names["lib"] == BundleState.RESOLVED

    def test_stopped_bundle_restored_stopped(self):
        storage = InMemoryFrameworkStorage()
        fw = Framework("env", storage=storage)
        fw.start()
        bundle = fw.install(simple_bundle("a"))
        bundle.start()
        bundle.stop()
        fw.stop()

        fw2 = Framework("env", storage=storage, repository=fw.repository)
        fw2.start()
        restored = fw2.get_bundle_by_name("a")
        assert restored.state in (BundleState.INSTALLED, BundleState.RESOLVED)

    def test_crash_recovers_thanks_to_autopersist(self):
        storage = InMemoryFrameworkStorage()
        fw = Framework("env", storage=storage)
        fw.start()
        fw.install(simple_bundle("a")).start()
        # No fw.stop(): simulate a crash by abandoning the object.
        fw2 = Framework("env", storage=storage, repository=fw.repository)
        fw2.start()
        assert fw2.get_bundle_by_name("a").state == BundleState.ACTIVE

    def test_missing_definition_warns_and_skips(self):
        storage = InMemoryFrameworkStorage()
        fw = Framework("env", storage=storage)
        fw.start()
        fw.install(simple_bundle("a")).start()
        fw.stop()

        warnings = []
        fw2 = Framework("env", storage=storage, repository={})
        fw2.dispatcher.add_framework_listener(warnings.append)
        fw2.start()
        assert fw2.bundles() == []
        assert any("no definition" in w.message for w in warnings)

    def test_definition_resolver_fallback_used(self):
        storage = InMemoryFrameworkStorage()
        fw = Framework("env", storage=storage)
        fw.start()
        bundle = fw.install(simple_bundle("a"))
        bundle.start()
        location = bundle.location
        definition = bundle.definition
        fw.stop()

        fw2 = Framework(
            "env",
            storage=storage,
            definition_resolver=lambda loc: definition if loc == location else None,
        )
        fw2.start()
        assert fw2.get_bundle_by_name("a").state == BundleState.ACTIVE

    def test_distinct_instance_ids_do_not_share_state(self):
        storage = InMemoryFrameworkStorage()
        fw = Framework("one", storage=storage)
        fw.start()
        fw.install(simple_bundle("a"))
        fw.stop()
        other = Framework("two", storage=storage, repository=fw.repository)
        other.start()
        assert other.bundles() == []

    def test_restart_same_object_possible(self):
        storage = InMemoryFrameworkStorage()
        fw = Framework("env", storage=storage)
        fw.start()
        fw.install(simple_bundle("a")).start()
        fw.stop()
        assert not fw.active
        fw.start()
        assert fw.active
        # The bundle is still installed in this same object.
        assert fw.get_bundle_by_name("a") is not None


def test_context_lookup_is_the_registry_order(framework):
    context = framework.system_context
    context.register_service("x.S", "low", {"service.ranking": 1, "tier": "b"})
    context.register_service("x.S", "high", {"service.ranking": 5, "tier": "a"})
    assert context.get_service(context.get_service_reference("x.S")) == "high"
    assert [
        context.get_service(r) for r in context.get_service_references("x.S")
    ] == ["high", "low"]
    only_b = context.get_service_reference("x.S", "(tier=b)")
    assert context.get_service(only_b) == "low"
    assert context.get_service_reference("y.S") is None


def test_memory_footprint_counts_bundles_and_services(framework):
    empty = framework.memory_footprint()
    framework.install(simple_bundle("a", size_bytes=1000))
    framework.system_context.register_service("x", object())
    assert framework.memory_footprint() >= empty + 1000 + 512


def test_counters_track_operations(framework):
    bundle = framework.install(simple_bundle("a"))
    bundle.start()
    bundle.stop()
    assert framework.counters["installs"] == 1
    assert framework.counters["starts"] == 1
    assert framework.counters["stops"] == 1


def test_bundles_stay_in_id_order_across_uninstall_and_reinstall(framework):
    a = framework.install(simple_bundle("a"), "loc:a")
    b = framework.install(simple_bundle("b"), "loc:b")
    c = framework.install(simple_bundle("c"), "loc:c")
    assert framework.bundles() == [a, b, c]
    b.uninstall()
    assert framework.bundles() == [a, c]
    again = framework.install(simple_bundle("b"), "loc:b")
    assert again is not b and again.bundle_id > c.bundle_id
    assert framework.bundles() == [a, c, again]
    assert [x.bundle_id for x in framework.bundles()] == sorted(
        x.bundle_id for x in framework.bundles()
    )
    # The location index answers a repeated install with the live bundle.
    assert framework.install(simple_bundle("other"), "loc:b") is again
    a.uninstall()
    assert framework.bundles() == [c, again]
